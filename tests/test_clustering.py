"""Tests for per-bus-stop sample clustering (§III-C2)."""

import itertools
import math

import pytest

from repro.config import ClusteringConfig
from repro.core.clustering import (
    MatchedSample,
    cluster_trip_samples,
    link_affinity,
)
from repro.core.matching import MatchResult
from repro.phone.cellular import CellularSample


def ms(t, station, score=5.0):
    return MatchedSample(
        sample=CellularSample(time_s=t, tower_ids=(1, 2, 3)),
        match=MatchResult(station_id=station, score=score, common_ids=3),
    )


class TestLinkAffinity:
    def test_same_stop_close_in_time_is_strong(self):
        cfg = ClusteringConfig()
        affinity = link_affinity(ms(100.0, 7), ms(103.0, 7), cfg)
        assert affinity > 1.5

    def test_different_stops_lose_match_term(self):
        cfg = ClusteringConfig()
        same = link_affinity(ms(100.0, 7), ms(103.0, 7), cfg)
        diff = link_affinity(ms(100.0, 7), ms(103.0, 8), cfg)
        assert same - diff == pytest.approx(
            (cfg.max_similarity - 0.0) / cfg.max_similarity
        )

    def test_time_gap_decays_affinity(self):
        cfg = ClusteringConfig()
        near = link_affinity(ms(100.0, 7), ms(105.0, 7), cfg)
        far = link_affinity(ms(100.0, 7), ms(129.0, 7), cfg)
        assert far < near

    def test_similarity_gap_decays_affinity(self):
        cfg = ClusteringConfig()
        close = link_affinity(ms(100.0, 7, 5.0), ms(103.0, 7, 5.0), cfg)
        spread = link_affinity(ms(100.0, 7, 6.9), ms(103.0, 7, 1.0), cfg)
        assert spread < close


def _near_threshold_gaps(cfg):
    """Time gaps that put a pair's affinity on, or within ~1e-12 of, ε
    for every match term the score grid below can produce."""
    t0, s0 = cfg.max_interval_s, cfg.max_similarity
    gaps = []
    for score_gap in (None, 0.0, 1.5, 3.5, 7.0):
        match_term = 0.0 if score_gap is None else (s0 - score_gap) / s0
        edge = t0 * (1.0 - (cfg.threshold - match_term))
        if edge < 0:
            continue
        gaps += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                 edge - 3e-11, edge + 3e-11]
    return gaps


class TestAffinityAgreement:
    """The clustering scan carries its own inline copy of Eq. (1); it
    must join a two-sample trip exactly when :func:`link_affinity`
    clears ε."""

    @pytest.mark.parametrize("threshold", [0.6, 1.3])
    def test_pair_joins_iff_link_affinity_clears_epsilon(self, threshold):
        cfg = ClusteringConfig(threshold=threshold)
        t0 = cfg.max_interval_s
        base_gaps = [0.0, 1.0, 12.0, t0, math.nextafter(t0, 0.0),
                     math.nextafter(t0, math.inf), 45.0, 2 * t0, 61.0]
        gaps = base_gaps + _near_threshold_gaps(cfg)
        gaps += [-g for g in gaps]
        scores = (0.0, 2.0, 3.5, 5.5, 7.0)
        stations = ((7, 7), (7, 8), (None, 7), (7, None), (None, None))
        near_epsilon = 0
        for gap, (score_a, score_b), (station_a, station_b) in itertools.product(
            gaps, itertools.product(scores, repeat=2), stations
        ):
            a = ms(100.0, station_a, score_a)
            b = ms(100.0 + gap, station_b, score_b)
            affinity = link_affinity(a, b, cfg)
            near_epsilon += abs(affinity - threshold) < 1e-12
            clusters = cluster_trip_samples([a, b], cfg)
            joined = len(clusters) == 1
            assert joined == (affinity > threshold), (gap, score_a, score_b,
                                                      station_a, station_b)
        assert near_epsilon > 0


class TestClustering:
    def test_two_stop_bursts_give_two_clusters(self):
        samples = [ms(100.0, 7), ms(103.0, 7), ms(106.0, 7),
                   ms(220.0, 8), ms(224.0, 8)]
        clusters = cluster_trip_samples(samples)
        assert [len(c) for c in clusters] == [3, 2]

    def test_cluster_timing_is_arrival_departure(self):
        clusters = cluster_trip_samples([ms(100.0, 7), ms(109.0, 7)])
        assert clusters[0].arrival_s == 100.0
        assert clusters[0].depart_s == 109.0

    def test_out_of_order_input_sorted(self):
        clusters = cluster_trip_samples([ms(220.0, 8), ms(100.0, 7), ms(103.0, 7)])
        assert [len(c) for c in clusters] == [2, 1]

    def test_same_stop_after_long_gap_splits(self):
        # Two visits to one stop (loop route) must stay distinct.
        clusters = cluster_trip_samples([ms(100.0, 7), ms(800.0, 7)])
        assert len(clusters) == 2

    def test_noisy_mismatch_absorbed_as_minority_candidate(self):
        """§III-C2: a cluster may contain mismatched samples; the stray
        joins its time-adjacent burst and surfaces as a minority
        candidate rather than polluting the sequence."""
        samples = [ms(100.0, 7), ms(103.0, 7), ms(104.0, 99, score=2.1),
                   ms(106.0, 7)]
        clusters = cluster_trip_samples(samples)
        assert len(clusters) == 1
        candidates = {c.station_id: c for c in clusters[0].candidates()}
        assert candidates[7].probability == pytest.approx(0.75)
        assert candidates[99].probability == pytest.approx(0.25)

    def test_distant_stray_gets_own_cluster(self):
        """A stray outside the t0 window cannot join the burst."""
        samples = [ms(100.0, 7), ms(103.0, 7), ms(160.0, 99, score=2.1)]
        clusters = cluster_trip_samples(samples)
        assert [len(c) for c in clusters] == [2, 1]

    def test_threshold_sweep_shape(self):
        """Tiny ε over-merges adjacent stops; huge ε shatters bursts (Fig. 5)."""
        # Bursts 25 s apart: inside the t0 window, so only the threshold
        # decides whether neighbouring stops merge.
        samples = [ms(100.0 + 25 * k + d, k) for k in range(4) for d in (0.0, 3.0)]
        tight = cluster_trip_samples(samples, ClusteringConfig(threshold=1.9))
        loose = cluster_trip_samples(samples, ClusteringConfig(threshold=0.05))
        default = cluster_trip_samples(samples, ClusteringConfig())
        assert len(tight) == len(samples)
        assert len(loose) < len(default) <= len(tight)
        assert len(default) == 4

    def test_interleaved_bursts_keep_older_cluster_eligible(self):
        """Regression: a stale cluster must be skipped, not end the scan.

        depart_s is not monotone over the clusters list — an older
        cluster that absorbs a late sample departs after a newer one.
        Here cluster A (stop 1) reopens at t=25 after cluster B (stop 2)
        formed at t=20; by t=85 B is stale (gap 65 s > 2·t0) but A is
        not (gap 40 s).  The old early-exit ``break`` hit B first and
        wrongly split the t=85 sample into a third cluster.
        """
        samples = [
            ms(0.0, 1),
            ms(20.0, 2),    # opens B: time term 0.333 < ε vs A
            ms(25.0, 1),    # rejoins A -> A.depart (25) > B.depart (20)
            ms(45.0, 1),    # A.depart = 45
            ms(85.0, 1),    # B stale, A eligible: affinity 0.667 > 0.6
        ]
        clusters = cluster_trip_samples(samples)
        assert [len(c) for c in clusters] == [4, 1]
        assert [s.time_s for s in clusters[0].samples] == [0.0, 25.0, 45.0, 85.0]
        assert clusters[1].samples[0].time_s == 20.0

    def test_stale_cluster_never_absorbs(self):
        """Beyond the 2·t0 gap the time term alone sinks the affinity,
        so the staleness skip can never change which cluster wins."""
        cfg = ClusteringConfig(threshold=0.05)
        clusters = cluster_trip_samples([ms(0.0, 7), ms(70.0, 7)], cfg)
        assert [len(c) for c in clusters] == [1, 1]

    def test_empty_input(self):
        assert cluster_trip_samples([]) == []


class TestCandidates:
    def test_unanimous_cluster(self):
        clusters = cluster_trip_samples([ms(100.0, 7, 5.0), ms(102.0, 7, 6.0)])
        candidates = clusters[0].candidates()
        assert len(candidates) == 1
        assert candidates[0].station_id == 7
        assert candidates[0].probability == 1.0
        assert candidates[0].mean_similarity == pytest.approx(5.5)

    def test_split_cluster_probabilities(self):
        cfg = ClusteringConfig(threshold=0.0)  # force everything together
        clusters = cluster_trip_samples(
            [ms(100.0, 7, 5.0), ms(101.0, 7, 5.0), ms(102.0, 8, 4.0)], cfg
        )
        assert len(clusters) == 1
        candidates = {c.station_id: c for c in clusters[0].candidates()}
        assert candidates[7].probability == pytest.approx(2 / 3)
        assert candidates[8].probability == pytest.approx(1 / 3)

    def test_candidates_sorted_by_weight(self):
        cfg = ClusteringConfig(threshold=0.0)
        clusters = cluster_trip_samples(
            [ms(100.0, 7, 5.0), ms(101.0, 7, 5.0), ms(102.0, 8, 4.0)], cfg
        )
        weights = [c.weight for c in clusters[0].candidates()]
        assert weights == sorted(weights, reverse=True)
