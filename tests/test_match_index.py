"""Candidate index and the memo-free matcher around it.

Exactness of the pruned matcher is proven elsewhere (the differential
oracles, the property suite, the golden trace); this file pins the
*mechanics* — what the index returns, that repeats are scored again
(the matcher keeps no verdict memo) and that every ``matcher_*``
counter counts each sample occurrence.  The class names date from when
a verdict memo sat in front of the matcher.
"""

import pytest

from repro.config import MatchingConfig
from repro.core import BackendServer, SampleMatcher
from repro.core.match_index import MatchIndex, canonical_key
from repro.obs.metrics import MetricsRegistry
from repro.testkit import OracleMatcher

FINGERPRINTS = {
    1: (10, 11, 12, 13),
    2: (12, 13, 14),
    3: (20, 21, 22),
    4: (-5, -6, 30),            # negative ids are legal index keys
}


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
        """The pools and the pruned share come from ``matcher_*`` alone:
        the index itself records nothing."""
        registry = MetricsRegistry()
        matcher = SampleMatcher(FINGERPRINTS, registry=registry)
        matcher.match_many([[12], [99]])    # pools of 2 and 0 of 4 stations
        snapshot = registry.as_dict()
        assert snapshot["histograms"]["matcher_candidates_per_sample"][
            "count"
        ] == 2
        counters = snapshot["counters"]
        pruned = 1.0 - counters["matcher_pairs_scored"] / (
            counters["matcher_samples_total"] * len(FINGERPRINTS)
        )
        assert pruned == pytest.approx(0.75)
        assert not any(name.startswith("match_") for name in (
            *snapshot["counters"], *snapshot["gauges"],
            *snapshot["histograms"],
        ))


class TestMatcherCacheIntegration:
    SAMPLE = (10, 11, 12)

    def _matcher(self, registry=None):
        return SampleMatcher(FINGERPRINTS, MatchingConfig(), registry=registry)

    @staticmethod
    def _matcher_counters(registry):
        snapshot = registry.as_dict()
        counters = {
            name: value for name, value in snapshot["counters"].items()
            if name.startswith("matcher_")
        }
        for name, family in snapshot["labeled"].items():
            if name.startswith("matcher_"):
                for labels, value in family["children"].items():
                    counters[(name, labels)] = value
        for name, histogram in snapshot["histograms"].items():
            if name.startswith("matcher_"):
                counters[name] = (histogram["count"], histogram["sum"],
                                  tuple(histogram["bucket_counts"]))
        return counters

    def test_same_upload_twice_doubles_every_matcher_counter(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        upload = [self.SAMPLE, (20, 21), (99,), self.SAMPLE, (12, 13, 14)]
        first = matcher.match_many(upload)
        once = self._matcher_counters(registry)
        second = matcher.match_many(upload)
        twice = self._matcher_counters(registry)
        assert second == first
        assert once and twice.keys() == once.keys()
        for name, value in once.items():
            if isinstance(value, tuple):
                count, total, buckets = value
                assert twice[name] == (
                    2 * count, 2 * total, tuple(2 * b for b in buckets)
                ), name
            else:
                assert twice[name] == 2 * value, name

    def test_repeat_match_hits_and_replays_logical_metrics(self):
        """A repeat sample is scored again and counted again in full."""
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        first = matcher.match(self.SAMPLE)
        second = matcher.match(self.SAMPLE)
        assert second == first
        counters = registry.as_dict()["counters"]
        assert counters["matcher_samples_total"] == 2
        assert counters["matcher_pairs_scored"] == 2 * len(
            matcher.candidate_stations(self.SAMPLE)
        )

    def test_match_many_counts_repeats_within_batch(self):
        registry = MetricsRegistry()
        matcher = self._matcher(registry=registry)
        results = matcher.match_many([self.SAMPLE, (20, 21), self.SAMPLE])
        assert results[0] == results[2]
        assert results == [matcher.match(s)
                           for s in (self.SAMPLE, (20, 21), self.SAMPLE)]
        counters = registry.as_dict()["counters"]
        # Every occurrence of the repeat is scored and counted.
        assert counters["matcher_samples_total"] == 6

    def test_cache_shared_between_match_and_match_many(self):
        """``match`` and ``match_many`` give one verdict and one count."""
        one, many = MetricsRegistry(), MetricsRegistry()
        assert self._matcher(registry=one).match(self.SAMPLE) == \
            self._matcher(registry=many).match_many([self.SAMPLE])[0]
        assert self._matcher_counters(one) == self._matcher_counters(many)

    def test_rebuild_invalidates_and_swaps_database(self):
        matcher = self._matcher(registry=MetricsRegistry())
        stale = matcher.match(self.SAMPLE)
        assert stale.station_id == 1
        # Re-surveyed database: station 9 now owns the sample's cells.
        matcher.rebuild({9: (10, 11, 12), 2: (14, 15, 16)})
        fresh = matcher.match(self.SAMPLE)
        assert fresh.station_id == 9
        assert matcher.candidate_stations(self.SAMPLE) == {9}

    def test_disabled_cache_and_full_scan_still_exact(self):
        matcher = self._matcher()
        full_scan = OracleMatcher(FINGERPRINTS)
        for sample in [self.SAMPLE, (99,), (), (-5, 30), (12, 13, 14)]:
            assert matcher.match(sample) == full_scan.match(sample)

    def test_server_rebuild_fingerprints(self, small_city, database, config):
        server = BackendServer(
            small_city.network, small_city.route_network, database, config,
            registry=MetricsRegistry(),
        )
        sample = database.as_dict()[next(iter(database.as_dict()))]
        before = server.matcher.match(sample)
        server.rebuild_fingerprints(database)
        assert server.matcher.match(sample) == before
        assert server.registry.as_dict()["gauges"][
            "fingerprint_db_stops"
        ] == len(database)
