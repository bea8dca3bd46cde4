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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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

    * dedupe — a verdict is a pure function of the sequence, so repeats
      within the batch are scored once;
    * one product — :meth:`MatchIndex.common_counts` gives every
      (sample, station) pair's common-id count for all pending samples;
    * pruning — only pairs with at least :func:`min_common_ids` common
      ids can reach γ, and only they are scored;
    * one kernel call — the surviving pairs run through
      :func:`_sw_kernel` together, and the tie-break reads the common-id
      counts of the same product.

    The ``matcher_*`` metrics count every sample and its whole candidate
    pool (the stations sharing a cell id, as a scan without dedupe or
    pruning would see it), so they stay a deterministic function of the
    upload stream (the golden trace snapshots them).  The share of the
    database pruned is ``1 - matcher_pairs_scored / (matcher_samples_total
    × fingerprint_db_stops)``.
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
        for row, sid in enumerate(stations.tolist()):
            towers = fingerprints[sid]
            matrix[row, : len(towers)] = [rank[t] for t in towers]
        self._matrix = matrix

    def rebuild(self, fingerprints: Dict[int, Tuple[int, ...]]) -> None:
        """Swap in a rebuilt fingerprint database (index and matrix)."""
        self._load(fingerprints)

    def candidate_stations(self, tower_ids: Sequence[int]) -> set:
        """Stops sharing at least one cell id with the sample.

        Only these can score above zero; this is the logical candidate
        pool the ``matcher_*`` accounting counts.
        """
        return self._index.candidates(tower_ids)

    def _observe_verdict(self, result: MatchResult, candidates: int) -> None:
        """Record one sample's matcher_* accounting."""
        self._m_samples.inc()
        self._m_candidates.observe(candidates)
        self._m_pairs.inc(candidates)
        if result.accepted:
            self._m_accepted.inc()
            self._c_accepted_verdict.inc()
            self._fam_stop_matches.labels(str(result.station_id)).inc()
        else:
            self._c_rejected_verdict.inc()

    def _scan(
        self, pending: List[Tuple[int, ...]]
    ) -> List[Tuple[MatchResult, int]]:
        """(verdict, candidate pool) per unique key, in ``pending`` order."""
        n_max = max(len(key) for key in pending)
        rank = self._index.rank
        queries = np.full((len(pending), max(n_max, 1)), -1, dtype=np.int64)
        for row, key in enumerate(pending):
            queries[row, : len(key)] = [rank.get(t, -1) for t in key]
        common = self._index.common_counts(queries)          # (P, S)
        pools = np.count_nonzero(common, axis=1).tolist()
        owners, ordinals = np.nonzero(common >= self._need)
        entries = [(_REJECTED, pool) for pool in pools]
        if not owners.size:
            return entries
        scores = _sw_kernel(queries[owners], self._matrix[ordinals], self.config)
        hits = scores >= self.config.accept_threshold
        if not hits.any():
            return entries
        owners, ordinals, scores = owners[hits], ordinals[hits], scores[hits]
        shared = common[owners, ordinals]
        # Best (score, common ids, smaller station id) per owner: sort by
        # owner, then by the tie-break key, and keep each owner's first.
        order = np.lexsort((ordinals, -shared, -scores, owners))
        firsts = order[np.unique(owners[order], return_index=True)[1]]
        stations = self._index.station_ids
        for pick in firsts.tolist():
            row = int(owners[pick])
            entries[row] = (
                MatchResult(
                    station_id=int(stations[ordinals[pick]]),
                    score=float(scores[pick]),
                    common_ids=int(shared[pick]),
                ),
                pools[row],
            )
        return entries

    def match(self, tower_ids: Sequence[int]) -> MatchResult:
        """Best stop for a sample, or a rejection below the γ threshold."""
        return self.match_many([tower_ids])[0]

    def match_many(
        self, samples: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Match a batch of samples (one upload) in one vectorised pass.

        Duplicates within the batch are scored once, and the unique
        sequences are planned by one incidence product and scored by one
        kernel call.  Results and accounting equal matching the samples
        one by one.
        """
        if not samples:
            return []
        keys = [canonical_key(sample) for sample in samples]
        unique = list(dict.fromkeys(keys))
        verdicts = dict(zip(unique, self._scan(unique)))
        if self._observing:
            for key in keys:
                self._observe_verdict(*verdicts[key])
        return [verdicts[key][0] for key in keys]

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
