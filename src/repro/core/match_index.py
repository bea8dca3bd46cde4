"""Candidate planning and memoization for per-sample matching (§III-C1).

Per-sample matching is the backend's hottest path: naively, every
uploaded cellular sample runs a Smith-Waterman alignment against every
stop fingerprint, O(stops × |seq|²) per sample.  Three observations make
most of that cost avoidable without changing a single verdict:

* **Zero-overlap pruning is exact.**  Smith-Waterman only ever adds a
  positive term on a *matching* cell id; a fingerprint sharing no id
  with the sample can accumulate only mismatch/gap penalties, which the
  local-alignment clamp floors at 0.  Its score is therefore exactly
  0.0 < γ, so it can never be accepted *and* never participate in a
  tie-break (ties only form at or above γ).  The stations sharing at
  least one cell id are the *logical candidate pool* the ``matcher_*``
  accounting counts.

* **The common-id bound is exact.**  Fingerprint ids are distinct, so
  every match step of an alignment consumes a different common id and
  a pair with ``c`` common ids scores at most ``c × match_score``
  (:func:`~repro.core.matching.min_common_ids` turns that into the
  minimum ``c`` worth scoring).  :class:`MatchIndex` holds a dense
  tower × station incidence matrix, so one product gives every
  (sample, station) pair's common-id count for a whole upload: the
  pool, the pruning and the tie-break all read it.

* **Verdicts are a pure function of the sequence.**  For a fixed
  fingerprint database, the full ``(station, score, common_ids)``
  verdict depends only on the RSS-ordered cell-id sequence, so repeat
  sequences (phones idling at the same stop, re-processed batches,
  repeated scans at a surveyed platform) can be answered from a memo.
  :class:`MatchCache` is a bounded LRU over
  :func:`canonical_key`-normalised sequences; it must be invalidated
  whenever the fingerprint database is rebuilt
  (:meth:`~repro.core.matching.SampleMatcher.rebuild` does this).

Telemetry: physical-work metrics live here — ``match_index_candidates``
(candidate pool per planned sample), ``match_prune_ratio`` (fraction of
the database outside the pools, run-to-date), ``match_cache_hits_total``
/ ``match_cache_misses_total`` / ``match_cache_evictions_total`` /
``match_cache_invalidations_total`` and the ``match_cache_entries``
gauge.  They are deliberately *not* ``matcher_``-prefixed: the golden
trace snapshots ``matcher_*`` as a deterministic function of the upload
stream, whereas memo hits depend on the memo's size and history.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Dict, Iterable, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, NullRegistry

if TYPE_CHECKING:                        # matching.py imports this module
    from repro.core.matching import MatchResult

__all__ = ["CachedMatch", "MatchCache", "MatchIndex", "canonical_key"]


def canonical_key(tower_ids: Sequence[int]) -> Tuple[int, ...]:
    """The canonical, hashable form of an RSS-ordered cell-id sequence.

    Samples arrive as lists, tuples or numpy rows; the memo key is the
    plain int tuple so equal sequences hash equally regardless of the
    container (or numpy scalar type) they arrived in.  The RSS *order*
    is preserved — it is part of what Smith-Waterman scores.
    """
    return tuple(int(t) for t in tower_ids)


class MatchIndex:
    """Dense tower × station incidence over a fingerprint DB.

    ``station_ids`` are sorted and ``towers`` are the sorted distinct
    cell ids; ``rank`` maps each of them to its row, and
    ``incidence[t, s]`` is 1.0 when station ``s``'s fingerprint contains
    tower ``t``.  :meth:`common_counts` multiplies a batch of samples'
    one-hot rows by it; :meth:`candidates` is the one-sample view.  The
    index is immutable once built; rebuild it when the database changes.
    """

    __slots__ = (
        "station_ids", "towers", "rank", "incidence", "_observing",
        "_h_candidates", "_g_prune_ratio", "_lookups", "_candidates_seen",
    )

    def __init__(
        self,
        fingerprints: Dict[int, Sequence[int]],
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not fingerprints:
            raise ValueError("match index needs a non-empty fingerprint database")
        self.station_ids = np.array(sorted(fingerprints), dtype=np.int64)
        towers = sorted({int(t) for seq in fingerprints.values() for t in seq})
        self.towers = np.array(towers, dtype=np.int64)
        self.rank = {tower: row for row, tower in enumerate(towers)}
        self.incidence = np.zeros((len(towers), len(self.station_ids)))
        for ordinal, sid in enumerate(self.station_ids.tolist()):
            rows = [self.rank[int(t)] for t in fingerprints[sid]]
            self.incidence[rows, ordinal] = 1.0
        reg = registry if registry is not None else NULL_REGISTRY
        self._observing = not isinstance(reg, NullRegistry)
        self._h_candidates = reg.histogram(
            "match_index_candidates",
            buckets=(0, 1, 2, 5, 10, 20, 50),
            help="candidate stations per planned sample",
        )
        self._g_prune_ratio = reg.gauge(
            "match_prune_ratio",
            help="fraction of (sample, station) pairs outside the candidate pools",
        )
        self._lookups = 0
        self._candidates_seen = 0

    def __len__(self) -> int:
        """Number of indexed stations."""
        return len(self.station_ids)

    @property
    def tower_count(self) -> int:
        """Number of distinct cell ids across all fingerprints."""
        return len(self.towers)

    def stations_for(self, tower_id: int) -> Tuple[int, ...]:
        """The stations whose fingerprint contains ``tower_id`` (sorted)."""
        row = self.rank.get(int(tower_id))
        if row is None:
            return ()
        return tuple(self.station_ids[self.incidence[row] > 0].tolist())

    def common_counts(self, ranks: np.ndarray) -> np.ndarray:
        """``(P, S)`` common-id counts for ``(P, n)`` padded rank rows.

        Each row holds the samples' ids as :attr:`rank` values, with a
        negative value for an id outside the database and for padding.
        It becomes a one-hot row over ``towers``; a repeated id sets its
        column once (so counts are distinct shared ids, as
        :func:`~repro.core.matching.common_id_count` defines them), and
        negative values set nothing.  Counts are small integers, exact
        in float64.
        """
        one_hot = np.zeros((len(ranks), len(self.towers)))
        hit = ranks >= 0
        one_hot[np.nonzero(hit)[0], ranks[hit]] = 1.0
        counts = one_hot @ self.incidence
        if self._observing:
            for pool in np.count_nonzero(counts, axis=1).tolist():
                self._observe(pool)
        return counts

    def candidates(self, tower_ids: Iterable[int]) -> Set[int]:
        """Stations sharing at least one cell id with the sample.

        Only these can score above zero; the differential oracle scans
        the whole database and must agree — any station left out here
        that could still win is a bug.
        """
        ranks = np.array(
            [[self.rank.get(t, -1) for t in map(int, tower_ids)]],
            dtype=np.int64,
        )
        counts = self.common_counts(ranks)[0]
        return set(self.station_ids[counts > 0].tolist())

    def _observe(self, pool: int) -> None:
        self._lookups += 1
        self._candidates_seen += pool
        self._h_candidates.observe(pool)
        self._g_prune_ratio.set(
            1.0 - self._candidates_seen / (self._lookups * len(self.station_ids))
        )


class CachedMatch(NamedTuple):
    """A memoized verdict plus the candidate-pool size that produced it.

    The pool size rides along so a cache hit can replay the exact
    ``matcher_*`` accounting (samples, candidates histogram, pairs) the
    uncached path would have recorded — those metrics are part of the
    golden trace and must stay a deterministic function of the upload
    stream, cache or no cache.
    """

    result: "MatchResult"
    candidates: int


class MatchCache:
    """A bounded LRU memo of full match verdicts.

    Keys are :func:`canonical_key` sequences; values are
    :class:`CachedMatch`.  ``maxsize=0`` disables the cache (every
    lookup misses, nothing is stored) so one code path serves both
    configurations.  Not thread-safe; each matcher owns its own.
    """

    __slots__ = (
        "maxsize", "_entries", "_observing",
        "_c_hits", "_c_misses", "_c_evictions", "_c_invalidations",
        "_g_entries",
    )

    def __init__(
        self,
        maxsize: int,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        if maxsize < 0:
            raise ValueError("cache maxsize cannot be negative")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[int, ...], CachedMatch]" = OrderedDict()
        reg = registry if registry is not None else NULL_REGISTRY
        self._observing = not isinstance(reg, NullRegistry)
        self._c_hits = reg.counter(
            "match_cache_hits_total", help="match verdicts served from the memo"
        )
        self._c_misses = reg.counter(
            "match_cache_misses_total", help="match memo lookups that missed"
        )
        self._c_evictions = reg.counter(
            "match_cache_evictions_total",
            help="memo entries evicted by the LRU bound",
        )
        self._c_invalidations = reg.counter(
            "match_cache_invalidations_total",
            help="full memo flushes (fingerprint DB rebuilds)",
        )
        self._g_entries = reg.gauge(
            "match_cache_entries", help="live entries in the match memo"
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: Tuple[int, ...]) -> Optional[CachedMatch]:
        """The memoized verdict for ``key``, refreshing its recency."""
        entry = self.peek(key)
        self.record_lookup(entry is not None)
        return entry

    def peek(self, key: Tuple[int, ...]) -> Optional[CachedMatch]:
        """:meth:`get` without the hit/miss accounting.

        Batch matching peeks while planning its scan, then replays
        serial-equivalent accounting per sample occurrence via
        :meth:`record_lookup` — a within-batch repeat must count as the
        hit it would have been had the samples arrived one by one.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def record_lookup(self, hit: bool) -> None:
        """Account one logical memo lookup (no-op when disabled)."""
        if not (self.maxsize and self._observing):
            return
        (self._c_hits if hit else self._c_misses).inc()

    def put(self, key: Tuple[int, ...], entry: CachedMatch) -> None:
        """Memoize ``entry``, evicting the least recently used on overflow."""
        if not self.maxsize:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            if self._observing:
                self._c_evictions.inc()
        if self._observing:
            self._g_entries.set(len(entries))

    def invalidate(self) -> None:
        """Drop every entry — required whenever the fingerprint DB changes."""
        self._entries.clear()
        if self._observing:
            self._c_invalidations.inc()
            self._g_entries.set(0)

    def keys(self) -> Tuple[Tuple[int, ...], ...]:
        """Current keys, least recently used first (test/debug helper)."""
        return tuple(self._entries.keys())
