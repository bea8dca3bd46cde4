"""Tests for the backend server pipeline."""

import itertools

import numpy as np
import pytest

from repro.city import build_city
from repro.city.geometry import Point
from repro.city.road_network import RoadNetwork
from repro.city.routes import BusRoute, RouteNetwork
from repro.city.stops import StopRegistry, make_two_sided_station
from repro.core import BackendServer, ServerStats
from repro.obs import MetricsRegistry, Tracer
from repro.phone import CellularSampler, record_participant_trips
from repro.phone.cellular import CellularSample
from repro.phone.trip_recorder import TripUpload
from repro.sim.bus import simulate_bus_trip
from repro.testkit.oracles import oracle_route_between
from repro.util.units import parse_hhmm


@pytest.fixture()
def server(small_city, database, config):
    return BackendServer(
        small_city.network, small_city.route_network, database, config
    )


@pytest.fixture()
def uploads(small_city, traffic, sampler, config):
    route = small_city.route_network.route("179-0")
    trace = simulate_bus_trip(
        route, parse_hhmm("08:10"), traffic, itertools.count(),
        rng=np.random.default_rng(12),
    )
    ups = record_participant_trips(
        trace, small_city.registry, sampler, config, rng=np.random.default_rng(13)
    )
    return trace, ups


class TestReceiveTrip:
    def test_maps_a_real_trip(self, server, uploads):
        trace, ups = uploads
        longest = max(ups, key=lambda u: len(u.samples))
        report = server.receive_trip(longest)
        assert report.mapped is not None
        assert len(report.mapped.stops) >= 2

    def test_mapped_stations_on_route(self, small_city, server, uploads):
        trace, ups = uploads
        route = small_city.route_network.route("179-0")
        served = set(route.station_sequence)
        longest = max(ups, key=lambda u: len(u.samples))
        report = server.receive_trip(longest)
        on_route = [s for s in report.mapped.station_sequence() if s in served]
        assert len(on_route) >= 0.9 * len(report.mapped.stops)

    def test_station_sequence_follows_route_order(self, small_city, server, uploads):
        trace, ups = uploads
        route = small_city.route_network.route("179-0")
        order = {rs.station_id: rs.order for rs in route.stops}
        longest = max(ups, key=lambda u: len(u.samples))
        seq = server.receive_trip(longest).mapped.station_sequence()
        orders = [order[s] for s in seq if s in order]
        assert orders == sorted(orders)

    def test_produces_speed_estimates(self, server, uploads):
        trace, ups = uploads
        longest = max(ups, key=lambda u: len(u.samples))
        report = server.receive_trip(longest)
        assert report.estimates
        for segment_id, speed_kmh, t in report.estimates:
            assert 2.0 <= speed_kmh <= 120.0
            assert server.network.has_segment(segment_id)

    def test_estimates_near_ground_truth(self, server, uploads, traffic):
        trace, ups = uploads
        errors = []
        for upload in ups:
            report = server.receive_trip(upload)
            for segment_id, speed_kmh, t in report.estimates:
                true_kmh = 3.6 * traffic.car_speed_ms(segment_id, t)
                errors.append(speed_kmh - true_kmh)
        assert errors
        assert abs(np.mean(errors)) < 5.0
        assert np.mean(np.abs(errors)) < 8.0

    def test_stats_accumulate(self, server, uploads):
        trace, ups = uploads
        server.receive_trips(ups)
        stats = server.stats
        assert stats.trips_received == len(ups)
        assert stats.trips_mapped >= 0.7 * len(ups)
        assert stats.samples_received == sum(len(u.samples) for u in ups)
        assert stats.segments_updated > 0

    def test_garbage_samples_discarded(self, server):
        upload = TripUpload(
            "junk",
            tuple(
                CellularSample(time_s=100.0 + k, tower_ids=(90000 + k,))
                for k in range(5)
            ),
        )
        report = server.receive_trip(upload)
        assert report.discarded_samples == 5
        assert report.mapped is None

    def test_single_cluster_trip_produces_no_estimates(self, server, small_city, sampler, rng):
        station = small_city.registry.stations[0]
        samples = tuple(
            sampler.sample(station.stops[0].position, 100.0 + k, rng)
            for k in range(3)
        )
        report = server.receive_trip(TripUpload("short", samples))
        assert report.estimates == []


class TestLegTable:
    """The memoized leg table against the per-route scan it replaced."""

    def test_every_station_pair_matches_the_oracle(self, database, config):
        city = build_city()
        network, routes = city.network, city.route_network
        server = BackendServer(network, routes, database, config)
        same = unreachable = multi = 0
        for x, y in itertools.product(routes.station_ids, repeat=2):
            leg = server.leg_route(x, y)
            route_id, segments = oracle_route_between(routes, x, y)
            assert leg.route_id == route_id
            assert [s for s, _, _ in leg.segments] == segments
            for segment_id, length_m, free_speed_ms in leg.segments:
                segment = network.segment(segment_id)
                assert length_m == segment.length_m
                assert free_speed_ms == segment.free_speed_ms
            assert leg.total_length == sum(
                network.segment(s).length_m for s in segments
            )
            assert server.leg_route(x, y) is leg
            same += x == y
            unreachable += route_id is None
            multi += sum(
                1 for r in routes.routes
                if r.serves(x) and r.serves(y)
                and r.station_order(x) < r.station_order(y)
            ) > 1
        assert same and unreachable > same and multi

    def test_total_length_sums_left_to_right(self, database, config):
        # Irregular spacing, so the order of the sum shows in the bits.
        net = RoadNetwork()
        xs = [0.0, 130.7, 377.9, 791.3, 1000.1]
        reg = StopRegistry()
        for i, x in enumerate(xs):
            net.add_node(i, Point(x, 0.0))
            reg.add_station(
                make_two_sided_station(i, f"St {i}", Point(x, 0.0), 0.0)
            )
        for i in range(len(xs) - 1):
            net.add_road(i, i + 1)
        routes = RouteNetwork(
            [BusRoute("A-0", "A", 0, list(range(len(xs))), net, reg)]
        )
        server = BackendServer(net, routes, database, config)
        lengths = [net.segment((i, i + 1)).length_m for i in range(len(xs) - 1)]
        assert sum(lengths) != sum(reversed(lengths))
        leg = server.leg_route(0, len(xs) - 1)
        assert leg.total_length == sum(lengths)
        assert [length for _, length, _ in leg.segments] == lengths

    def test_table_fills_lazily(self, small_city, database, config):
        server = BackendServer(
            small_city.network, small_city.route_network, database, config
        )
        assert server._leg_routes == {}


class TestDuplicateUploads:
    def test_duplicate_counted_in_aggregate_stats(self, server, uploads):
        trace, ups = uploads
        upload = max(ups, key=lambda u: len(u.samples))
        server.receive_trip(upload)
        before_discarded = server.stats.samples_discarded
        report = server.receive_trip(upload)
        # Per-trip report and aggregate stats must agree on the drop.
        assert report.discarded_samples == len(upload.samples)
        assert server.stats.trips_duplicate == 1
        assert server.stats.samples_duplicate == len(upload.samples)
        assert (
            server.stats.samples_discarded
            == before_discarded + len(upload.samples)
        )
        # The duplicate never re-enters the pipeline.
        assert server.stats.trips_received == 1
        assert report.mapped is None

    def test_reports_and_stats_stay_consistent(self, server, uploads):
        trace, ups = uploads
        reports = server.receive_trips(list(ups) + list(ups[:3]))
        assert (
            sum(r.discarded_samples for r in reports)
            == server.stats.samples_discarded
        )


class TestServerStats:
    def test_as_dict_mirrors_attributes(self):
        stats = ServerStats()
        stats.trips_received += 2
        stats.samples_received += 11
        snapshot = stats.as_dict()
        assert snapshot["trips_received"] == 2
        assert snapshot["samples_received"] == 11
        assert snapshot["trips_mapped"] == 0
        assert set(snapshot) == {
            "trips_received", "trips_duplicate", "trips_mapped",
            "samples_received", "samples_discarded", "samples_duplicate",
            "clusters_formed", "legs_estimated", "legs_rejected",
            "segments_updated",
        }

    def test_reset_zeroes_all_counters(self):
        stats = ServerStats()
        stats.trips_received += 5
        stats.legs_estimated += 3
        stats.reset()
        assert all(value == 0 for value in stats.as_dict().values())

    def test_keyword_construction_and_equality(self):
        assert ServerStats(trips_received=4) == ServerStats(trips_received=4)
        assert ServerStats(trips_received=4) != ServerStats()
        with pytest.raises(TypeError):
            ServerStats(bogus_field=1)

    def test_backed_by_registry_counters(self):
        registry = MetricsRegistry()
        stats = ServerStats(registry=registry)
        stats.trips_mapped += 7
        assert registry.counter("server_trips_mapped").value == 7
        assert registry.as_dict()["counters"]["server_trips_mapped"] == 7

    def test_rollback_to_lower_value(self):
        """Setting a field below its current value re-bases the counter
        (a test resetting one field) instead of corrupting it."""
        stats = ServerStats()
        stats.trips_received = 9
        stats.trips_received = 3
        assert stats.trips_received == 3
        stats.trips_received += 1
        assert stats.trips_received == 4

    def test_rollback_to_zero(self):
        stats = ServerStats(samples_received=12)
        stats.samples_received = 0
        assert stats.samples_received == 0

    def test_negative_value_rejected(self):
        """Regression: the rollback path used to accept a negative
        target, leaving a corrupt (negative-increment) counter behind."""
        stats = ServerStats(trips_received=5)
        with pytest.raises(ValueError, match="trips_received"):
            stats.trips_received = -1
        with pytest.raises(ValueError):
            stats.trips_received -= 6     # 5 - 6 -> -1
        assert stats.trips_received == 5  # untouched by the failed writes

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            ServerStats().no_such_counter


class TestServerObservability:
    def test_stages_traced_per_trip(self, small_city, database, config, uploads):
        tracer = Tracer()
        registry = MetricsRegistry()
        server = BackendServer(
            small_city.network, small_city.route_network, database, config,
            registry=registry, tracer=tracer,
        )
        trace, ups = uploads
        server.receive_trips(ups)
        stages = tracer.stage_stats()
        for stage in ("receive_trip", "matching", "clustering", "trip_mapping"):
            assert stages[stage]["count"] == len(ups)
            assert stages[stage]["total_s"] >= 0.0
        assert stages["leg_estimation"]["count"] == server.stats.trips_mapped
        counters = registry.as_dict()["counters"]
        assert counters["matcher_samples_total"] == server.stats.samples_received
        assert counters["clustering_clusters_total"] == server.stats.clusters_formed
        assert counters["map_updates_total"] == server.stats.segments_updated

    def test_default_server_has_no_tracing_overhead_state(self, server, uploads):
        trace, ups = uploads
        server.receive_trips(ups)
        assert server.tracer.stage_stats() == {}
        # Stats still count with the default (untraced) server.
        assert server.stats.trips_received == len(ups)


class TestMapIntegration:
    def test_traffic_map_fills_up(self, server, uploads):
        trace, ups = uploads
        server.receive_trips(ups)
        snap = server.traffic_map.snapshot(at_s=trace.end_s + 300.0)
        assert snap.coverage > 0.0

    def test_publish_cycle(self, server, uploads):
        trace, ups = uploads
        server.receive_trips(ups)
        server.publish(at_s=trace.end_s + 300.0)
        assert server.traffic_map.publish_times == [trace.end_s + 300.0]


class TestLiveTelemetry:
    @pytest.fixture()
    def observed(self, small_city, database, config, uploads):
        registry = MetricsRegistry()
        server = BackendServer(
            small_city.network, small_city.route_network, database, config,
            registry=registry,
        )
        trace, ups = uploads
        server.receive_trips(ups)
        return server, registry, trace, ups

    def test_trips_labeled_by_route(self, observed):
        server, registry, _, _ = observed
        children = registry.as_dict()["labeled"]["trips_uploaded_total"][
            "children"
        ]
        assert sum(children.values()) == server.stats.trips_mapped
        assert 'route="179-0"' in children

    def test_segment_updates_labeled_by_route(self, observed):
        server, registry, _, _ = observed
        children = registry.as_dict()["labeled"]["segments_updated_total"][
            "children"
        ]
        assert sum(children.values()) == server.stats.segments_updated

    def test_matcher_verdict_labels(self, observed):
        server, registry, _, _ = observed
        doc = registry.as_dict()
        verdicts = doc["labeled"]["matcher_verdicts_total"]["children"]
        accepted = verdicts.get('verdict="accepted"', 0)
        rejected = verdicts.get('verdict="rejected"', 0)
        assert accepted + rejected == server.stats.samples_received

    def test_fingerprint_db_gauge(self, observed, database):
        _, registry, _, _ = observed
        gauge = registry.as_dict()["gauges"]["fingerprint_db_stops"]
        assert gauge == len(database)

    def test_windows_track_the_ingest_stream(self, observed):
        server, _, _, ups = observed
        # Uploads are recorded at their own end times; the trailing
        # window at the last arrival sees at least the freshest one.
        totals = server.windows.totals(max(u.end_s for u in ups))
        assert totals["trips_received"] >= 1
        assert totals["samples_accepted"] > 0
        assert any(key.startswith("route_trips") for key in totals)

    def test_publish_exports_window_gauges_and_ratio(self, observed):
        server, registry, trace, _ = observed
        server.publish(at_s=trace.end_s + 60.0)
        gauges = registry.as_dict()["gauges"]
        assert gauges["window_trips_received"] >= 0
        assert gauges["match_accept_ratio"] == pytest.approx(
            server.match_accept_ratio()
        )
        assert 0.0 <= gauges["match_accept_ratio"] <= 1.0

    def test_freshness_report_covers_served_routes(self, observed):
        server, _, trace, _ = observed
        server.publish(at_s=trace.end_s + 60.0)
        server.publish(at_s=trace.end_s + 960.0)
        report = server.freshness.report()
        ridden = report["routes"]["179-0"]
        assert ridden["covered_segments"] > 0
        assert ridden["oldest_covered_s"] is not None
        # 199-0 never saw a trip of its own (segments it shares with
        # 179-0 may still be covered): it ages from the first publish
        # epoch, 60 -> 960 = 900 s stale.
        empty = report["routes"]["199-0"]
        assert empty["covered_segments"] <= ridden["covered_segments"]
        assert empty["freshness_s"] == pytest.approx(900.0)

    def test_alert_samples_without_recording_registry(
        self, small_city, database, config, uploads
    ):
        server = BackendServer(
            small_city.network, small_city.route_network, database, config
        )
        trace, ups = uploads
        server.receive_trips(ups)
        server.publish(at_s=trace.end_s + 60.0)
        samples = server.alert_samples(trace.end_s + 60.0)
        names = {name for name, _, _ in samples}
        assert "map_route_freshness_s" in names
        assert "match_accept_ratio" in names
        assert "server_trips_received" in names

    def test_reset_metrics_zeroes_the_whole_registry(self, observed):
        server, registry, trace, _ = observed
        server.publish(at_s=trace.end_s + 60.0)
        server.reset_metrics()
        doc = registry.as_dict()
        assert all(v == 0 for v in doc["counters"].values())
        for hist in doc["histograms"].values():
            assert hist["count"] == 0
            assert not any(hist["bucket_counts"])
        for family in doc["labeled"].values():
            for child in family["children"].values():
                if family["type"] == "histogram":
                    assert child["count"] == 0
                else:
                    assert child == 0
        live_gauges = {k for k, v in doc["gauges"].items() if v}
        assert live_gauges == {"fingerprint_db_stops"}
        assert server.windows.totals(trace.end_s) == {
            key: 0.0 for key in server.windows.totals(trace.end_s)
        }

    def test_stats_reset_on_shared_registry_keeps_other_metrics(self):
        registry = MetricsRegistry()
        other = registry.counter("other")
        other.inc(5)
        stats = ServerStats(registry=registry)
        stats.trips_received += 3
        stats.reset()
        assert stats.trips_received == 0
        assert other.value == 5
