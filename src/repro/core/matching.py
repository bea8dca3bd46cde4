"""Per-sample fingerprint matching with a modified Smith-Waterman score.

§III-C1: cellular samples and bus-stop fingerprints are sequences of
cell tower ids ordered by descending RSS.  Absolute RSS varies between
visits but the *rank order* largely survives, so similarity is scored
by local sequence alignment: the modified Smith-Waterman algorithm with
match +1 and tuned gap/mismatch penalties of 0.3 (the paper sweeps
0.1–0.9 and picks 0.3).  Table I's worked example — 3 matches, 1 gap,
1 mismatch → 2.4 — is a doctest below.

A sample is assigned to the best-scoring stop if that score clears the
acceptance threshold γ = 2; ties are broken by the number of common
cell ids (§III-C1).

Core keeps one Smith-Waterman, the vectorised :func:`_sw_kernel`; the
scalar textbook recurrence lives in :mod:`repro.testkit.oracles` as the
reference it is tested against.

**The match-pattern table.**  Scores depend only on which ids are
equal.  Fingerprint ids are distinct, so when a query's database ids are
distinct too, a (query, fingerprint) pair is fully described by its
*match pattern*: for each query position, the fingerprint position of
the same id, or none.  With at most 7 ids a side (phones report their
7 strongest cells) there are 130,922 patterns, and
:func:`_pattern_table` scores each of them once per ``(match_score,
mismatch_penalty, gap_penalty)``.  A table score is bit-equal to what
:func:`_sw_kernel` returns for the pair:

* the score is a function of the pattern alone;
* the table fills every cell with the kernel's own per-cell recurrence
  and operation order, ``max(max(diag + s, max(up, left) + gap), 0)``,
  so every cell holds the same float64 value; only the order in which
  cells are visited differs (row by row instead of by anti-diagonal),
  and a cell's value depends only on its three predecessors;
* padding never changes a score: a query row or fingerprint column
  that matches nothing adds cells that are at most the maximum of
  their predecessors (every penalty is ≤ 0), so patterns with
  ``n, m < 7`` are read off the 7 × 7 table, exactly as the kernel
  reads a short pair off a padded batch.

The matcher answers a pair from the table unless the table cannot know
its pattern: a query that repeats a database id of the fingerprint (its
code has a repeated position and is not in the table; a hostile upload
can send one), a known id past a query's 7th position, or a fingerprint
longer than 7 ids.  Those pairs go to :func:`_sw_kernel`, which also
stays the one general Smith-Waterman for :func:`batch_smith_waterman`,
the survey's medoids and :meth:`SampleMatcher.scores`.  The table is
complete and a pure function of three config floats, not a memo of
sequences seen: it is built on the first batch that needs it, never at
import or construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.config import MatchingConfig
from repro.core.match_index import MatchIndex, canonical_key
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, NullRegistry

#: Float64 cells per kernel chunk (~16 MB of DP buffer): a hostile upload
#: with very long samples or thousands of pairs is scored in slices
#: instead of allocating one huge ``(n+m+1, n+1, B)`` buffer.
_KERNEL_CELLS = 1 << 21

#: Skewed-gather index per ``(n, m)``: ``[d, i-1]`` is the reference
#: column ``d - i - 1`` of cell ``(i, d - i)``, or ``m`` (the pad column)
#: where the anti-diagonal leaves the ``n × m`` rectangle.  Memoized for
#: the short sequences real scans produce; longer ones are built per call.
_SKEW_INDEX: Dict[Tuple[int, int], np.ndarray] = {}
_SKEW_MEMO_MAX = 32


def _skew_index(n: int, m: int) -> np.ndarray:
    index = _SKEW_INDEX.get((n, m))
    if index is None:
        d = np.arange(n + m + 1)[:, None]
        i = np.arange(1, n + 1)[None, :]
        j = d - i
        index = np.where((j >= 1) & (j <= m), j - 1, m)
        if n <= _SKEW_MEMO_MAX and m <= _SKEW_MEMO_MAX:
            _SKEW_INDEX[(n, m)] = index
    return index


def _sw_kernel(
    query: np.ndarray, ref: np.ndarray, config: MatchingConfig
) -> np.ndarray:
    """Skewed anti-diagonal Smith-Waterman over padded ``(B, n)`` /
    ``(B, m)`` int matrices; returns the ``(B,)`` best local-alignment
    scores.

    The DP couples cell ``(i, j)`` to ``(i-1, j-1)``, ``(i-1, j)`` and
    ``(i, j-1)`` — all on the two *previous anti-diagonals*.  The DP
    table is therefore stored skewed: row ``d`` of one ``(n+m+1, n+1,
    B)`` buffer holds diagonal ``d`` indexed by ``i`` (``H[d, i] =
    H(i, d - i)`` for every pair at once), and the substitution scores
    are computed once per call and gathered into the same layout.  Each diagonal then costs
    one add, one add of the gap to the larger of its two gap
    predecessors, and three in-place maxima; one ``max`` at the end
    reads the answer.

    Exactness: every cell gets the scalar recurrence's float64 values —
    ``max(0, diag + s, up + gap, left + gap)``, where
    ``max(up, left) + gap`` equals ``max(up + gap, left + gap)`` bit for
    bit because rounding is monotone.  Cells outside the ``n × m``
    rectangle get the mismatch score: those left of column 1 stay at
    0 (every term is ≤ 0 there), and those right of column ``m`` are
    never read by a real cell and cannot exceed the real maximum, as
    every penalty is ≤ 0.

    Callers own the padding contract: query rows padded with one
    sentinel, ref rows with a *different* one, both below every real
    id, so padding never scores a match.
    """
    batch, n = query.shape
    m = ref.shape[1]
    if batch == 0 or n == 0 or m == 0:
        return np.zeros(batch)
    rows = max(1, _KERNEL_CELLS // ((n + m + 1) * (n + 1)))
    if batch > rows:
        return np.concatenate([
            _sw_kernel(query[lo: lo + rows], ref[lo: lo + rows], config)
            for lo in range(0, batch, rows)
        ])
    gap = -config.gap_penalty
    # The pad column stands for cells off the rectangle: any id below
    # both sides' minima, so it never equals a query entry.
    pad = min(int(query.min()), int(ref.min())) - 1
    ref_ext = np.empty((m + 1, batch), dtype=ref.dtype)
    ref_ext[:m] = ref.T
    ref_ext[m] = pad
    skewed = ref_ext[_skew_index(n, m)]                    # (n+m+1, n, B)
    subst = np.where(
        skewed == query.T, config.match_score, -config.mismatch_penalty
    )
    # Batch is the last axis, so every diagonal is one contiguous block.
    table = np.zeros((n + m + 1, n + 1, batch))
    step = np.empty((n, batch))
    for d in range(2, n + m + 1):
        value = table[d, 1:]
        np.add(table[d - 2, :-1], subst[d], out=value)
        np.maximum(table[d - 1, :-1], table[d - 1, 1:], out=step)
        step += gap
        np.maximum(value, step, out=value)
        np.maximum(value, 0.0, out=value)
    return table.reshape(-1, batch).max(axis=0)


#: Longest query and fingerprint the match-pattern table covers.
_TABLE_WIDTH = 7
#: Number of match patterns of a 7-id query against a 7-id fingerprint:
#: partial one-to-one maps between positions, Σₖ C(7, k)² k!.
_TABLE_SIZE = 130_922
#: A pattern's code: base-8 digits, query row 0 most significant; digit
#: ``j + 1`` means "matches fingerprint position ``j``", 0 "matches none".
_DIGIT_WEIGHTS = (8 ** np.arange(_TABLE_WIDTH - 1, -1, -1)).astype(np.int32)
#: Parents expanded per step of the table build: bounds its temporaries
#: to ~2.3 MB (tracemalloc), and larger chunks were not faster.
_BUILD_CHUNK = 1024

#: Built tables per ``(match_score, mismatch_penalty, gap_penalty)``.
_PATTERN_TABLES: Dict[Tuple[float, float, float], "_PatternTable"] = {}
_PATTERN_MEMO_MAX = 4


class _PatternTable(NamedTuple):
    """Every match pattern's score: ``scores[index[i]]`` for ``codes[i]``."""

    codes: np.ndarray       # (130922,) int32, ascending
    index: np.ndarray       # (130922,) uint8 (wider only if it must be)
    scores: np.ndarray      # the distinct scores, float64


def _pattern_table(config: MatchingConfig) -> _PatternTable:
    """The pattern table for ``config``'s scores, built on first use."""
    key = (config.match_score, config.mismatch_penalty, config.gap_penalty)
    table = _PATTERN_TABLES.get(key)
    if table is None:
        table = _build_pattern_table(*key)
        if len(_PATTERN_TABLES) >= _PATTERN_MEMO_MAX:
            del _PATTERN_TABLES[next(iter(_PATTERN_TABLES))]
        _PATTERN_TABLES[key] = table
    return table


def _build_pattern_table(
    match_score: float, mismatch_penalty: float, gap_penalty: float
) -> _PatternTable:
    """Score all 130,922 patterns in one pass over their prefix tree.

    Level ``i`` of the tree holds every pattern of the first ``i`` query
    rows, with that prefix's last DP row (columns 0..7, column 0 the
    zero border), the best cell so far and the fingerprint positions it
    has used.  A child appends one row: digit 0 (no match) or an unused
    position ``d``.  Every cell is filled exactly as :func:`_sw_kernel`
    fills it.  A digit-``d`` row equals the digit-0 row left of column
    ``d``, so one sweep over the columns fills the rows of all eight
    digits of a chunk of parents at once: at column ``j``, digits
    ``0..j - 1`` continue without a match and digit ``j`` starts with
    one, from digit 0's column ``j - 1``.  Rows of used positions are
    computed and dropped.  Parents are expanded depth first in chunks
    of :data:`_BUILD_CHUNK`, children in (parent, digit) order, so the
    leaves come out with their codes ascending and land straight in the
    output arrays.
    """
    width = _TABLE_WIDTH
    gap = -gap_penalty
    bits = np.concatenate(([0], 1 << np.arange(width)))
    masks = np.arange(1 << width)[:, None]
    free = np.ones((1 << width, width + 1), dtype=bool)     # [used, digit]
    free[:, 1:] = (masks >> np.arange(width)) & 1 == 0
    # Substitution score of digits 0..j at column j.
    subst = [
        np.array([-mismatch_penalty] * j + [match_score])[:, None]
        for j in range(width + 1)
    ]

    def children(prow, pbest, pused, pcode, leaf: bool):
        """The children of a chunk of parents: their DP rows (unless
        ``leaf``), best cells, used positions and codes."""
        count = prow.shape[1]
        cells = np.empty((width + 1, width + 1, count))   # [column, digit, parent]
        cells[0] = 0.0
        best = np.empty((width + 1, count))                # [digit, parent]
        best[0] = pbest
        step = np.empty((width + 1, count))
        for j in range(1, width + 1):
            cells[j - 1, j] = cells[j - 1, 0]
            best[j] = best[0]
            value, left = cells[j, : j + 1], cells[j - 1, : j + 1]
            gaps = step[: j + 1]
            np.add(prow[j - 1], subst[j], out=value)
            np.maximum(prow[j], left, out=gaps)
            gaps += gap
            np.maximum(value, gaps, out=value)
            np.maximum(value, 0.0, out=value)
            np.maximum(best[: j + 1], value, out=best[: j + 1])
        # The valid children in (parent, digit) order, and where each one's
        # cells sit in the [digit, parent] planes.
        parent, digit = np.nonzero(free[pused])
        take = digit * count + parent
        kids = (best.reshape(-1)[take], pcode[parent] * (width + 1) + digit)
        if leaf:
            return kids
        for d in range(2, width + 1):
            cells[: d - 1, d] = cells[: d - 1, 0]
        rows = cells.reshape(width + 1, -1)[:, take]
        return kids + (rows, pused[parent] | bits[digit])

    codes_out = np.empty(_TABLE_SIZE, dtype=np.int32)
    index_out = np.empty(_TABLE_SIZE, dtype=np.uint8)
    distinct: Dict[float, int] = {}
    cursor = 0

    def expand(level: int, rows, best, used, codes) -> None:
        nonlocal cursor, index_out
        leaf = level + 1 == width
        for lo in range(0, codes.size, _BUILD_CHUNK):
            chunk = slice(lo, lo + _BUILD_CHUNK)
            kids = children(rows[:, chunk], best[chunk], used[chunk],
                            codes[chunk], leaf)
            if not leaf:
                kid_best, kid_codes, kid_rows, kid_used = kids
                expand(level + 1, kid_rows, kid_best, kid_used, kid_codes)
                continue
            kid_best, kid_codes = kids
            codes_out[cursor: cursor + kid_codes.size] = kid_codes
            values, inverse = np.unique(kid_best, return_inverse=True)
            ids = [distinct.setdefault(v, len(distinct)) for v in values.tolist()]
            if len(distinct) > np.iinfo(index_out.dtype).max + 1:
                index_out = index_out.astype(np.uint32)
            index_out[cursor: cursor + kid_codes.size] = np.array(ids)[inverse]
            cursor += kid_codes.size

    expand(0, np.zeros((width + 1, 1)), np.zeros(1),
           np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int32))
    return _PatternTable(
        codes_out, index_out, np.array(list(distinct), dtype=np.float64)
    )


def batch_smith_waterman(
    uploads: Sequence[Sequence[int]],
    databases: Sequence[Sequence[int]],
    config: Optional[MatchingConfig] = None,
) -> np.ndarray:
    """Smith-Waterman scores for B (upload, database) pairs at once.

    Identical results, bit for bit, to the scalar recurrence pair by
    pair (:func:`repro.testkit.oracle_smith_waterman`), computed by
    :func:`_sw_kernel`.  Scores depend only on which ids are equal, so
    every id is replaced by its rank among the distinct ids, and the
    sentinels padding queries (-1) and references (-2) can never equal
    one, whatever ids come in.  Ids outside int64 raise ``ValueError``.

    >>> cfg = MatchingConfig()
    >>> round(float(batch_smith_waterman([[1, 2, 3, 4, 5]], [[1, 7, 3, 5]], cfg)[0]), 1)
    2.4
    """
    if len(uploads) != len(databases):
        raise ValueError("uploads and databases must pair up")
    config = config or MatchingConfig()
    batch = len(uploads)
    if batch == 0:
        return np.zeros(0)
    query_lengths = np.array([len(u) for u in uploads])
    ref_lengths = np.array([len(d) for d in databases])
    n_max, m_max = int(query_lengths.max()), int(ref_lengths.max())
    if n_max == 0 or m_max == 0:
        return np.zeros(batch)

    try:
        ids = np.array(
            [t for u in uploads for t in u] + [t for d in databases for t in d],
            dtype=np.int64,
        )
    except OverflowError as exc:
        raise ValueError("cell ids must lie inside int64") from exc
    ranks = np.unique(ids, return_inverse=True)[1].reshape(-1)
    split = int(query_lengths.sum())
    query = np.full((batch, n_max), -1, dtype=np.int64)
    query[np.arange(n_max) < query_lengths[:, None]] = ranks[:split]
    ref = np.full((batch, m_max), -2, dtype=np.int64)
    ref[np.arange(m_max) < ref_lengths[:, None]] = ranks[split:]
    return _sw_kernel(query, ref, config)


def common_id_count(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of cell ids shared by two sequences."""
    return len(set(a) & set(b))


def min_common_ids(config: MatchingConfig) -> int:
    """The fewest common ids a pair needs to possibly score ``≥ γ``.

    Fingerprint ids are distinct and local alignment is monotone, so
    each match step of an alignment uses a different common id; every
    other step adds a penalty ≤ 0.  A pair with ``c`` common ids thus
    scores at most ``c × match_score`` — exactly in real arithmetic and
    within ``c`` rounding steps in float64.  The 1e-9 slack covers that
    rounding with a wide margin, so the bound only ever lets a pair
    through that cannot win, never drops one that could.
    """
    ratio = config.accept_threshold / config.match_score
    return max(1, math.ceil(min(ratio, 1e18) * (1.0 - 1e-9)))


def _check_config(config: MatchingConfig) -> None:
    """The scoring domain the pruning bounds are proven for."""
    values = (
        config.match_score, config.mismatch_penalty, config.gap_penalty,
        config.accept_threshold,
    )
    if not all(math.isfinite(v) for v in values):
        raise ValueError("matching scores must be finite")
    if config.match_score <= 0.0 or config.accept_threshold <= 0.0:
        raise ValueError("match_score and accept_threshold must be positive")
    if config.mismatch_penalty < 0.0 or config.gap_penalty < 0.0:
        raise ValueError("mismatch and gap penalties cannot be negative")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one cellular sample against the database."""

    station_id: Optional[int]       # None: score below γ → sample discarded
    score: float
    common_ids: int

    @property
    def accepted(self) -> bool:
        """True when the sample was assigned to a stop."""
        return self.station_id is not None


_REJECTED = MatchResult(station_id=None, score=0.0, common_ids=0)


class SampleMatcher:
    """Matches ordered cell-id sequences against stop fingerprints.

    A batch (one upload) is answered in four steps, none of which can
    change a verdict (see :mod:`repro.core.match_index`):

    * rank space — one ``searchsorted`` turns every id of the batch into
      its row in :attr:`MatchIndex.towers` (:meth:`MatchIndex.ranks`);
    * one product — :meth:`MatchIndex.common_counts` gives every
      (sample, station) pair's common-id count for the whole batch;
    * pruning — only pairs with at least :func:`min_common_ids` common
      ids can reach γ, and only they are scored;
    * one table lookup — a gather from the per-station position table
      turns each surviving pair into its match-pattern code, and
      :func:`_pattern_table` holds its score (the few pairs the table
      cannot answer go to :func:`_sw_kernel`, see the module docstring);
      the tie-break reads the common-id counts of the same product.

    The ``matcher_*`` metrics count every sample and its whole candidate
    pool (the stations sharing a cell id, as a scan without pruning
    would see it), so they stay a deterministic function of the upload
    stream (the golden trace snapshots them).  They are recorded once
    per batch, with the values per-sample recording would leave.  The
    share of the database pruned is ``1 - matcher_pairs_scored /
    (matcher_samples_total × fingerprint_db_stops)``.
    """

    def __init__(
        self,
        fingerprints: Dict[int, Tuple[int, ...]],
        config: Optional[MatchingConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or MatchingConfig()
        _check_config(self.config)
        self._need = min_common_ids(self.config)
        reg = registry if registry is not None else NULL_REGISTRY
        # Per-sample instrumentation sits on the server's hottest loop, so
        # it is branch-guarded rather than relying on null-object calls.
        self._observing = not isinstance(reg, NullRegistry)
        self._m_samples = reg.counter(
            "matcher_samples_total", help="cellular samples matched"
        )
        self._m_accepted = reg.counter(
            "matcher_samples_accepted", help="samples clearing the γ threshold"
        )
        self._m_pairs = reg.counter(
            "matcher_pairs_scored", help="(sample, stop) Smith-Waterman scorings"
        )
        self._m_candidates = reg.histogram(
            "matcher_candidates_per_sample",
            buckets=(0, 1, 2, 5, 10, 20, 50),
            help="candidate stops sharing a tower with a sample",
        )
        self._fam_verdicts = reg.labeled_counter(
            "matcher_verdicts_total", ("verdict",),
            help="per-verdict sample matching outcomes",
        )
        self._c_accepted_verdict = self._fam_verdicts.labels("accepted")
        self._c_rejected_verdict = self._fam_verdicts.labels("rejected")
        self._fam_stop_matches = reg.labeled_counter(
            "matcher_stop_matches_total", ("stop",),
            help="accepted samples per matched bus stop",
        )
        self._load(fingerprints)

    def _load(self, fingerprints: Dict[int, Tuple[int, ...]]) -> None:
        """Build the index and the padded fingerprint matrix."""
        if not fingerprints:
            raise ValueError("matcher needs a non-empty fingerprint database")
        fingerprints = {
            int(sid): canonical_key(towers)
            for sid, towers in fingerprints.items()
        }
        for sid, towers in fingerprints.items():
            if len(set(towers)) != len(towers):
                raise ValueError(
                    f"fingerprint of station {sid} repeats a tower id"
                )
        self._fingerprints = fingerprints
        self._index = MatchIndex(fingerprints)
        stations = self._index.station_ids
        width = max(1, max(len(t) for t in fingerprints.values()))
        # Scores depend only on which ids are equal, so rows hold each
        # id's rank among the database ids.  Fingerprint rows are padded
        # with -2 and query rows with -1, which also stands in for every
        # sample id outside the database (such an id never matches): no
        # sentinel can equal a rank, whatever ids come in.
        rank = self._index.rank
        matrix = np.full((len(stations), width), -2, dtype=np.int64)
        # _pos[s, t]: 1 + the position of tower rank t in station s's
        # fingerprint, 0 where it holds no such id (column T stands for
        # every id outside the database).  Stations longer than the
        # pattern table are scored by the kernel and keep a zero row.
        pos = np.zeros((len(stations), self._index.tower_count + 1),
                       dtype=np.uint8)
        long = np.zeros(len(stations), dtype=bool)
        for row, sid in enumerate(stations.tolist()):
            towers = fingerprints[sid]
            ranks = [rank[t] for t in towers]
            matrix[row, : len(towers)] = ranks
            if len(towers) > _TABLE_WIDTH:
                long[row] = True
            else:
                pos[row, ranks] = np.arange(1, len(towers) + 1)
        self._matrix = matrix
        self._pos = pos
        self._long = long if long.any() else None

    def rebuild(self, fingerprints: Dict[int, Tuple[int, ...]]) -> None:
        """Swap in a rebuilt fingerprint database (index and matrix)."""
        self._load(fingerprints)

    def candidate_stations(self, tower_ids: Sequence[int]) -> set:
        """Stops sharing at least one cell id with the sample.

        Only these can score above zero; this is the logical candidate
        pool the ``matcher_*`` accounting counts.
        """
        return self._index.candidates(tower_ids)

    def _observe_batch(
        self, results: List[MatchResult], pools: np.ndarray
    ) -> None:
        """Record one batch's matcher_* accounting in one update per
        instrument, leaving exactly what recording each sample in turn
        would: counts are integers, and stop children are created in the
        order of their first sample."""
        accepted: Dict[int, int] = {}
        for result in results:
            station_id = result.station_id
            if station_id is not None:
                accepted[station_id] = accepted.get(station_id, 0) + 1
        hits = sum(accepted.values())
        self._m_samples.inc(len(results))
        self._m_candidates.observe_many(pools.tolist())
        self._m_pairs.inc(int(pools.sum()))
        self._m_accepted.inc(hits)
        self._c_accepted_verdict.inc(hits)
        self._c_rejected_verdict.inc(len(results) - hits)
        family = self._fam_stop_matches
        for station_id, count in accepted.items():
            overflowed = family.overflow_total
            child = family.labels(str(station_id))
            if family.overflow_total != overflowed:
                # Past the family's cardinality cap every lookup of a new
                # stop counts, as it would sample by sample.
                for _ in range(count - 1):
                    family.labels(str(station_id))
            child.inc(count)

    def _pair_scores(
        self, queries: np.ndarray, owners: np.ndarray, ordinals: np.ndarray
    ) -> np.ndarray:
        """Scores of the (query row, station ordinal) pairs, bit-equal to
        :func:`_sw_kernel`: from the pattern table where it knows the
        pattern, from the kernel where it does not."""
        blank = self._index.tower_count
        rows = queries[owners]
        digits = self._pos[ordinals[:, None], rows[:, :_TABLE_WIDTH]]
        codes = digits @ _DIGIT_WEIGHTS[: digits.shape[1]]
        table = _pattern_table(self.config)
        slots = np.searchsorted(table.codes, codes)
        np.minimum(slots, _TABLE_SIZE - 1, out=slots)
        scores = table.scores[table.index[slots]]
        # A query that repeats an id of the fingerprint has a pattern with
        # a repeated position, which the table does not hold.
        kernel = table.codes[slots] != codes
        if rows.shape[1] > _TABLE_WIDTH:
            kernel |= (rows[:, _TABLE_WIDTH:] != blank).any(axis=1)
        if self._long is not None:
            kernel |= self._long[ordinals]
        if kernel.any():
            query = rows[kernel]
            query[query == blank] = -1
            scores[kernel] = _sw_kernel(
                query, self._matrix[ordinals[kernel]], self.config
            )
        return scores

    def match(self, tower_ids: Sequence[int]) -> MatchResult:
        """Best stop for a sample, or a rejection below the γ threshold."""
        return self.match_many([tower_ids])[0]

    def match_many(
        self, samples: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Match a batch of samples (one upload) in one vectorised pass.

        The batch is planned by one incidence product and its surviving
        pairs are scored by one pattern-table lookup.  Results and
        accounting equal matching the samples one by one.
        """
        if not samples:
            return []
        lengths = [len(sample) for sample in samples]
        width = max(1, max(lengths))
        queries = np.full((len(samples), width), self._index.tower_count,
                          dtype=np.int64)
        queries[np.arange(width) < np.array(lengths)[:, None]] = (
            self._index.ranks(itertools.chain.from_iterable(samples))
        )
        common = self._index.common_counts(queries)          # (P, S)
        results = [_REJECTED] * len(samples)
        owners, ordinals = np.nonzero(common >= self._need)
        if owners.size:
            scores = self._pair_scores(queries, owners, ordinals)
            hits = scores >= self.config.accept_threshold
            if hits.any():
                owners, ordinals, scores = (
                    owners[hits], ordinals[hits], scores[hits]
                )
                shared = common[owners, ordinals]
                # Best (score, common ids, smaller station id) per owner:
                # sort by owner, then by the tie-break key, and keep each
                # owner's first.
                order = np.lexsort((ordinals, -shared, -scores, owners))
                ranked = owners[order]
                first = np.empty(ranked.size, dtype=bool)
                first[0] = True
                np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
                firsts = order[first]
                for row, station_id, score, common_ids in zip(
                    owners[firsts].tolist(),
                    self._index.station_ids[ordinals[firsts]].tolist(),
                    scores[firsts].tolist(),
                    shared[firsts].tolist(),
                ):
                    results[row] = MatchResult(station_id, score, common_ids)
        if self._observing:
            self._observe_batch(results, np.count_nonzero(common, axis=1))
        return results

    def scores(self, tower_ids: Sequence[int]) -> Dict[int, float]:
        """Similarity against every stop (analysis helper; no threshold)."""
        stations = sorted(self._fingerprints)
        key = canonical_key(tower_ids)
        values = batch_smith_waterman(
            [key] * len(stations),
            [self._fingerprints[s] for s in stations],
            self.config,
        )
        return dict(zip(stations, values.tolist()))
