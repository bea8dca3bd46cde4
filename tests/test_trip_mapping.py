"""Tests for route-constrained per-trip mapping (§III-C3)."""

import pytest

from repro.city.geometry import Point
from repro.city.road_network import RoadNetwork
from repro.city.routes import BusRoute, RouteNetwork
from repro.city.stops import StopRegistry, make_two_sided_station
from repro.config import TripMappingConfig
from repro.core.clustering import MatchedSample, SampleCluster
from repro.core.matching import MatchResult
from repro.core.trip_mapping import RouteConstraint, map_trip
from repro.phone.cellular import CellularSample
from repro.testkit.oracles import oracle_enumerate_sequences


@pytest.fixture()
def constraint():
    net = RoadNetwork()
    for i in range(6):
        net.add_node(i, Point(i * 400.0, 0.0))
    for i in range(5):
        net.add_road(i, i + 1)
    reg = StopRegistry()
    for i in range(6):
        reg.add_station(make_two_sided_station(i, f"St {i}", net.node_position(i), 0.0))
    route = BusRoute("L-0", "L", 0, list(range(6)), net, reg)
    return RouteConstraint(RouteNetwork([route]))


def cluster(t, *candidates):
    """Cluster at time t with candidate (station, count, score) entries."""
    samples = []
    for station, count, score in candidates:
        for k in range(count):
            samples.append(
                MatchedSample(
                    sample=CellularSample(time_s=t + 0.5 * k, tower_ids=(1,)),
                    match=MatchResult(station_id=station, score=score, common_ids=1),
                )
            )
    return SampleCluster(samples=samples)


class TestRouteConstraint:
    def test_downstream_weight(self, constraint):
        assert constraint.weight(0, 3) == 1.0

    def test_upstream_zero(self, constraint):
        assert constraint.weight(3, 0) == 0.0

    def test_same_stop_half(self, constraint):
        assert constraint.weight(2, 2) == 0.5

    def test_unknown_station_zero(self, constraint):
        assert constraint.weight(0, 999) == 0.0


class TestMapTrip:
    def test_clean_sequence(self, constraint):
        clusters = [cluster(100.0 * k, (k, 3, 5.0)) for k in range(4)]
        mapped = map_trip(clusters, constraint)
        assert mapped.station_sequence() == [0, 1, 2, 3]

    def test_route_constraint_overrides_noisy_candidate(self, constraint):
        # Middle cluster slightly prefers an upstream stop; the order
        # constraint must pick the downstream one anyway.
        clusters = [
            cluster(0.0, (1, 3, 5.0)),
            cluster(100.0, (0, 2, 5.2), (2, 2, 4.8)),
            cluster(200.0, (3, 3, 5.0)),
        ]
        mapped = map_trip(clusters, constraint)
        assert mapped.station_sequence() == [1, 2, 3]

    def test_inconsistent_cluster_dropped(self, constraint):
        # A cluster whose only candidate is upstream of its neighbours
        # contributes zero weight and is dropped from the trajectory.
        clusters = [
            cluster(0.0, (2, 3, 5.0)),
            cluster(100.0, (0, 1, 2.5)),
            cluster(200.0, (4, 3, 5.0)),
        ]
        mapped = map_trip(clusters, constraint)
        assert mapped.station_sequence() == [2, 4]

    def test_empty_input(self, constraint):
        assert map_trip([], constraint) is None

    def test_all_candidates_rejected(self, constraint):
        empty = SampleCluster(samples=[
            MatchedSample(
                sample=CellularSample(time_s=0.0, tower_ids=(1,)),
                match=MatchResult(station_id=None, score=0.0, common_ids=0),
            )
        ])
        assert map_trip([empty], constraint) is None

    def test_mapped_timing_comes_from_cluster(self, constraint):
        clusters = [cluster(0.0, (0, 2, 5.0)), cluster(90.0, (1, 2, 5.0))]
        mapped = map_trip(clusters, constraint)
        assert mapped.stops[0].arrival_s == 0.0
        assert mapped.stops[0].depart_s == 0.5
        assert mapped.stops[1].arrival_s == 90.0

    def test_duplicate_stop_clusters_survive(self, constraint):
        # Two clusters of the same stop (split burst): R(x, x) = 0.5 keeps
        # the second one rather than zeroing it.
        clusters = [
            cluster(0.0, (1, 2, 5.0)),
            cluster(20.0, (1, 2, 5.0)),
            cluster(120.0, (2, 2, 5.0)),
        ]
        mapped = map_trip(clusters, constraint)
        assert mapped.station_sequence() == [1, 1, 2]

    def test_score_reported(self, constraint):
        clusters = [cluster(100.0 * k, (k, 2, 5.0)) for k in range(3)]
        mapped = map_trip(clusters, constraint)
        assert mapped.score == pytest.approx(15.0)   # 5 + 5*1 + 5*1


class TestDpEqualsEnumeration:
    def test_dp_matches_bruteforce_on_noisy_instances(self, constraint, rng):
        for trial in range(20):
            clusters = []
            t = 0.0
            position = 0
            for _ in range(int(rng.integers(2, 5))):
                candidates = []
                n_candidates = int(rng.integers(1, 4))
                stations = rng.choice(6, size=n_candidates, replace=False)
                for st in stations:
                    candidates.append(
                        (int(st), int(rng.integers(1, 4)), float(rng.uniform(2.5, 6.5)))
                    )
                clusters.append(cluster(t, *candidates))
                t += 100.0
            _, brute_score, best_combos = oracle_enumerate_sequences(
                clusters, constraint
            )
            mapped = map_trip(clusters, constraint, min_weight=-1.0)
            assert mapped.score == pytest.approx(brute_score)
            # Nothing is dropped at min_weight < 0, so the DP's sequence
            # must be one of the optimal ties.
            assert mapped.station_sequence() in [
                [c.station_id for c in combo] for combo in best_combos
            ]
