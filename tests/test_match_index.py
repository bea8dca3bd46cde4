"""Candidate index and verdict memo: pruning, LRU behavior, invalidation.

Exactness of the pruned/memoized matcher is proven elsewhere (the
differential oracles, the property suite, the golden trace); this file
pins the *mechanics* — what the index returns, how the LRU rotates and
evicts, and which metrics move on hits/misses/invalidations without
disturbing the logical ``matcher_*`` accounting.
"""

import pytest

from repro.config import MatchingConfig, SystemConfig
from repro.core import BackendServer, SampleMatcher
from repro.core.match_index import (
    CachedMatch,
    MatchCache,
    MatchIndex,
    canonical_key,
)
from repro.core.matching import MatchResult
from repro.obs.metrics import MetricsRegistry
from repro.testkit import OracleMatcher

FINGERPRINTS = {
    1: (10, 11, 12, 13),
    2: (12, 13, 14),
    3: (20, 21, 22),
    4: (-5, -6, 30),            # negative ids are legal index keys
}


def _result(station=1, score=3.0, common=2):
    return MatchResult(station_id=station, score=score, common_ids=common)


class TestCanonicalKey:
    def test_container_and_scalar_type_insensitive(self):
        import numpy as np

        assert canonical_key([3, 1, 2]) == (3, 1, 2)
        assert canonical_key((3, 1, 2)) == canonical_key(
            np.array([3, 1, 2], dtype=np.int64)
        )

    def test_preserves_rss_order(self):
        assert canonical_key([2, 1]) != canonical_key([1, 2])


class TestMatchIndex:
    def test_candidates_are_exactly_overlapping_stations(self):
        index = MatchIndex(FINGERPRINTS)
        assert index.candidates([12]) == {1, 2}
        assert index.candidates([10, 20]) == {1, 3}
        assert index.candidates([-5]) == {4}
        assert index.candidates([99]) == set()
        assert index.candidates([]) == set()

    def test_stations_for_sorted_and_len(self):
        index = MatchIndex(FINGERPRINTS)
        assert index.stations_for(13) == (1, 2)
        assert index.stations_for(404) == ()
        assert len(index) == 4
        assert index.tower_count == len(
            {t for towers in FINGERPRINTS.values() for t in towers}
        )

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            MatchIndex({})

    def test_candidate_and_prune_metrics(self):
        registry = MetricsRegistry()
        index = MatchIndex(FINGERPRINTS, registry=registry)
        index.candidates([12])       # 2 of 4 stations → ratio 0.5
        index.candidates([99])       # 0 of 4 → cumulative ratio 0.75
        snapshot = registry.as_dict()
        assert snapshot["histograms"]["match_index_candidates"]["count"] == 2
        assert snapshot["gauges"]["match_prune_ratio"] == pytest.approx(0.75)


class TestMatchCacheLRU:
    def test_eviction_follows_recency_not_insertion(self):
        cache = MatchCache(2)
        entry = CachedMatch(_result(), candidates=2)
        cache.put((1,), entry)
        cache.put((2,), entry)
        assert cache.get((1,)) is entry      # refresh (1,): now (2,) is LRU
        cache.put((3,), entry)               # evicts (2,)
        assert cache.keys() == ((1,), (3,))
        assert cache.get((2,)) is None

    def test_put_refreshes_existing_key(self):
        cache = MatchCache(2)
        first = CachedMatch(_result(score=1.0), candidates=1)
        second = CachedMatch(_result(score=2.0), candidates=1)
        cache.put((1,), first)
        cache.put((2,), first)
        cache.put((1,), second)              # re-put refreshes, no growth
        assert len(cache) == 2
        assert cache.keys() == ((2,), (1,))
        assert cache.get((1,)) is second

    def test_zero_maxsize_disables_storage_and_miss_metric(self):
        registry = MetricsRegistry()
        cache = MatchCache(0, registry=registry)
        assert not cache.enabled
        cache.put((1,), CachedMatch(_result(), candidates=1))
        assert cache.get((1,)) is None
        assert len(cache) == 0
        counters = registry.as_dict()["counters"]
        assert counters["match_cache_misses_total"] == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            MatchCache(-1)

    def test_hit_miss_eviction_counters(self):
        registry = MetricsRegistry()
        cache = MatchCache(2, registry=registry)
        entry = CachedMatch(_result(), candidates=1)
        assert cache.get((1,)) is None       # miss
        cache.put((1,), entry)
        cache.put((2,), entry)
        assert cache.get((1,)) is entry      # hit
        cache.put((3,), entry)               # evicts (2,)
        snapshot = registry.as_dict()
        counters = snapshot["counters"]
        assert counters["match_cache_misses_total"] == 1
        assert counters["match_cache_hits_total"] == 1
        assert counters["match_cache_evictions_total"] == 1
        assert snapshot["gauges"]["match_cache_entries"] == 2

    def test_invalidate_clears_and_counts(self):
        registry = MetricsRegistry()
        cache = MatchCache(4, registry=registry)
        cache.put((1,), CachedMatch(_result(), candidates=1))
        cache.invalidate()
        assert len(cache) == 0
        snapshot = registry.as_dict()
        assert snapshot["counters"]["match_cache_invalidations_total"] == 1
        assert snapshot["gauges"]["match_cache_entries"] == 0


class TestMatcherCacheIntegration:
    SAMPLE = (10, 11, 12)

    def _matcher(self, registry=None, **overrides):
        config = MatchingConfig(**overrides) if overrides else MatchingConfig()
        return SampleMatcher(FINGERPRINTS, config, registry=registry)

    def test_repeat_match_hits_and_replays_logical_metrics(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        first = matcher.match(self.SAMPLE)
        second = matcher.match(self.SAMPLE)
        assert second == first
        counters = registry.as_dict()["counters"]
        assert counters["match_cache_hits_total"] == 1
        # Logical accounting is replayed on the hit: both samples count,
        # and both record the full candidate-pool pairs.
        assert counters["matcher_samples_total"] == 2
        assert counters["matcher_pairs_scored"] == 2 * len(
            matcher.candidate_stations(self.SAMPLE)
        )

    def test_match_many_deduplicates_within_batch(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        results = matcher.match_many([self.SAMPLE, (20, 21), self.SAMPLE])
        assert results[0] == results[2]
        counters = registry.as_dict()["counters"]
        # Two unique sequences computed, the repeat served from the memo;
        # the logical sample count still sees all three.
        assert counters["match_cache_misses_total"] == 2
        assert counters["matcher_samples_total"] == 3

    def test_cache_shared_between_match_and_match_many(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        matcher.match(self.SAMPLE)
        matcher.match_many([self.SAMPLE])
        counters = registry.as_dict()["counters"]
        assert counters["match_cache_hits_total"] == 1
        assert counters["match_cache_misses_total"] == 1

    def test_rebuild_invalidates_and_swaps_database(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        stale = matcher.match(self.SAMPLE)
        assert stale.station_id == 1
        # Re-surveyed database: station 9 now owns the sample's cells.
        matcher.rebuild({9: (10, 11, 12), 2: (14, 15, 16)})
        fresh = matcher.match(self.SAMPLE)
        assert fresh.station_id == 9
        counters = registry.as_dict()["counters"]
        assert counters["match_cache_invalidations_total"] == 1
        assert len(matcher.cache) == 1       # only the post-rebuild verdict

    def test_disabled_cache_and_full_scan_still_exact(self):
        plain = self._matcher(cache_size=0)
        tuned = self._matcher()
        full_scan = OracleMatcher(FINGERPRINTS)
        for sample in [self.SAMPLE, (99,), (), (-5, 30), (12, 13, 14)]:
            assert tuned.match(sample) == plain.match(sample)
            assert plain.match(sample) == full_scan.match(sample)
        assert not plain.cache.enabled

    def test_server_rebuild_fingerprints(self, small_city, database, config):
        server = BackendServer(
            small_city.network, small_city.route_network, database, config,
            registry=MetricsRegistry(),
        )
        sample = database.as_dict()[next(iter(database.as_dict()))]
        server.matcher.match(sample)
        assert len(server.matcher.cache) == 1
        server.rebuild_fingerprints(database)
        counters = server.registry.as_dict()["counters"]
        assert counters["match_cache_invalidations_total"] == 1
        assert len(server.matcher.cache) == 0
        assert server.registry.as_dict()["gauges"][
            "fingerprint_db_stops"
        ] == len(database)
