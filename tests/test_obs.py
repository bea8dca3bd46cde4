"""Tests for the observability layer: metrics, tracing, structured logging."""

import io
import json
import logging
import math
import time

import pytest

from repro.obs import (
    JsonFormatter,
    KeyValueFormatter,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TRACER,
    Tracer,
    configure,
    get_logger,
    log_event,
)
from repro.obs.metrics import Counter, Gauge, Histogram, NullRegistry
from repro.obs.tracing import StageTiming


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            hist.observe(value)
        # le semantics: 1.0 lands in the first bucket.
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(111.5)

    def test_cumulative_ends_at_count(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.0, 1.5, 99.0):
            hist.observe(value)
        pairs = hist.cumulative()
        assert pairs[-1] == (math.inf, 3)
        cumulative = [count for _, count in pairs]
        assert cumulative == sorted(cumulative)

    def test_rejects_nan_and_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0,)).observe(float("nan"))

    def test_observe_many_equals_observing_in_turn(self):
        values = [0.1, 7, 1.0, 0.7, 3, 100.25, 0.2, 7, 1e-17, 5.0]
        one, many = Histogram("h", buckets=(1.0, 5.0, 10.0)), \
            Histogram("h", buckets=(1.0, 5.0, 10.0))
        one.observe(0.3)
        many.observe(0.3)
        for value in values:
            one.observe(value)
        many.observe_many(iter(values))
        assert many.bucket_counts == one.bucket_counts
        assert many.count == one.count
        assert many.sum.hex() == one.sum.hex()     # summed in order
        many.observe_many([])
        assert many.count == one.count

    def test_observe_many_rejects_nan_and_records_nothing(self):
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe_many([0.5, float("nan"), 2.0])
        assert (hist.count, hist.sum, hist.bucket_counts) == (0, 0.0, [0, 0])
        NULL_REGISTRY.histogram("h").observe_many([1.0, 2.0])
        assert NULL_REGISTRY.histogram("h").count == 0


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_as_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = json.loads(json.dumps(registry.as_dict()))
        assert doc["counters"]["c"] == 2
        assert doc["gauges"]["g"] == 1.5
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["histograms"]["h"]["bucket_counts"] == [1, 0]

    def test_prometheus_render(self):
        registry = MetricsRegistry()
        registry.counter("trips", help="trips seen").inc(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE trips counter" in text
        assert "trips 3" in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0

    def test_null_registry_swallows(self):
        assert isinstance(NULL_REGISTRY, NullRegistry)
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.histogram("y").observe(1.0)
        NULL_REGISTRY.gauge("z").set(5)
        NULL_REGISTRY.labeled_counter("lc", ("route",)).labels("1").inc()
        assert NULL_REGISTRY.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "labeled": {}
        }


class TestMergeDict:
    """merge_dict folds a worker registry's snapshot into a parent."""

    @staticmethod
    def _worker_registry():
        worker = MetricsRegistry()
        worker.counter("c").inc(3)
        worker.gauge("g").set(7.5)
        worker.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
        worker.histogram("h").observe(2.0)
        fam = worker.labeled_counter("routes_total", ("route",))
        fam.labels("179-0").inc(2)
        fam.labels("199-0").inc(1)
        worker.labeled_histogram(
            "route_lat", ("route",), buckets=(1.0,)
        ).labels("179-0").observe(0.2)
        return worker

    def test_merge_into_empty_registry(self):
        parent = MetricsRegistry()
        parent.merge_dict(self._worker_registry().as_dict())
        assert parent.as_dict() == self._worker_registry().as_dict()

    def test_counters_and_histograms_add_gauges_adopt(self):
        parent = self._worker_registry()
        parent.merge_dict(self._worker_registry().as_dict())
        doc = parent.as_dict()
        assert doc["counters"]["c"] == 6
        assert doc["gauges"]["g"] == 7.5            # last writer wins
        assert doc["histograms"]["h"]["count"] == 4
        assert doc["histograms"]["h"]["sum"] == pytest.approx(5.0)
        assert doc["histograms"]["h"]["bucket_counts"] == [2, 2, 0]
        children = doc["labeled"]["routes_total"]["children"]
        assert children['route="179-0"'] == 4
        assert children['route="199-0"'] == 2
        hist_child = doc["labeled"]["route_lat"]["children"]['route="179-0"']
        assert hist_child["count"] == 2

    def test_repeated_shard_merges_accumulate(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        for shard in range(3):
            worker.reset()
            worker.counter("c").inc(shard + 1)
            parent.merge_dict(worker.as_dict())
        assert parent.counter("c").value == 6

    def test_histogram_ladder_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0, 3.0))
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        with pytest.raises(ValueError):
            parent.merge_dict(worker.as_dict())

    def test_null_registry_merge_is_inert(self):
        NULL_REGISTRY.merge_dict(self._worker_registry().as_dict())
        assert NULL_REGISTRY.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "labeled": {}
        }
        # The shared null histogram singleton must stay untouched.
        assert NULL_REGISTRY.histogram("h").count == 0


class TestMergeDictEdgeCases:
    """merge_dict on degenerate and adversarial snapshots."""

    def test_empty_snapshot_is_a_no_op(self):
        parent = self._populated()
        before = parent.as_dict()
        parent.merge_dict({})
        assert parent.as_dict() == before

    def test_empty_sections_are_a_no_op(self):
        parent = self._populated()
        before = parent.as_dict()
        parent.merge_dict(
            {"counters": {}, "gauges": {}, "histograms": {}, "labeled": {}}
        )
        assert parent.as_dict() == before

    @staticmethod
    def _populated():
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        return registry

    def test_histogram_snapshot_without_bucket_counts_rejected(self):
        parent = MetricsRegistry()
        with pytest.raises(ValueError, match="bucket_counts"):
            parent.merge_dict(
                {"histograms": {"h": {"count": 1, "sum": 0.5, "bounds": [1.0]}}}
            )

    def test_labeled_histogram_ladder_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.labeled_histogram(
            "lat", ("stage",), buckets=(1.0, 2.0)
        ).labels("matching").observe(0.3)
        worker = MetricsRegistry()
        worker.labeled_histogram(
            "lat", ("stage",), buckets=(5.0,)
        ).labels("matching").observe(0.3)
        with pytest.raises(ValueError):
            parent.merge_dict(worker.as_dict())

    def test_labeled_family_unknown_type_rejected(self):
        parent = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown type"):
            parent.merge_dict(
                {"labeled": {"fam": {"type": "summary", "labels": ["x"],
                                     "overflow_total": 0, "children": {}}}}
            )

    def test_overflow_children_merge_and_totals_add(self):
        from repro.obs.labels import OVERFLOW_LABEL_VALUE

        def overflowing_worker():
            worker = MetricsRegistry()
            fam = worker.labeled_counter("rt", ("route",), max_children=2)
            fam.labels("a").inc(1)
            fam.labels("b").inc(2)
            fam.labels("c").inc(5)          # beyond the cap -> _overflow child
            fam.labels("d").inc(7)          # shares the same _overflow child
            return worker

        snapshot = overflowing_worker().as_dict()
        overflow_key = f'route="{OVERFLOW_LABEL_VALUE}"'
        assert snapshot["labeled"]["rt"]["overflow_total"] == 2
        assert snapshot["labeled"]["rt"]["children"][overflow_key] == 12

        parent = MetricsRegistry()
        parent.merge_dict(snapshot)
        parent.merge_dict(overflowing_worker().as_dict())
        family = parent.as_dict()["labeled"]["rt"]
        # Counts add child-for-child (the _overflow child included) and the
        # overflow totals accumulate across merges.
        assert family["children"]['route="a"'] == 2
        assert family["children"]['route="b"'] == 4
        assert family["children"][overflow_key] == 24
        assert family["overflow_total"] == 4


class TestParsePrometheusIngestFamilies:
    """parse_prometheus_text round-trips the ingest_* telemetry families."""

    @staticmethod
    def _ingest_registry():
        from repro.obs.metrics import parse_prometheus_text  # noqa: F401

        registry = MetricsRegistry()
        registry.counter("ingest_batches_total").inc(2)
        registry.counter("ingest_shards_total").inc(6)
        registry.counter("ingest_trips_total").inc(40)
        registry.gauge("ingest_workers").set(4)
        registry.histogram(
            "ingest_shard_trips", buckets=(1, 2, 4, 8)
        ).observe(3)
        registry.histogram("ingest_batch_seconds").observe(0.25)
        fam = registry.labeled_histogram("ingest_stage_seconds", ("stage",))
        for stage, seconds in (
            ("matching", 0.12), ("clustering", 0.03), ("trip_mapping", 0.02)
        ):
            fam.labels(stage).observe(seconds)
        return registry

    def test_families_parse_back_with_types_and_values(self):
        from repro.obs.metrics import parse_prometheus_text

        families = parse_prometheus_text(
            self._ingest_registry().render_prometheus()
        )
        assert families["ingest_batches_total"]["type"] == "counter"
        assert families["ingest_workers"]["type"] == "gauge"
        assert families["ingest_shard_trips"]["type"] == "histogram"
        assert families["ingest_stage_seconds"]["type"] == "histogram"

        def sample(family, suffix, **labels):
            for name, sample_labels, value in families[family]["samples"]:
                if name.endswith(suffix) and all(
                    sample_labels.get(k) == v for k, v in labels.items()
                ):
                    return value
            raise AssertionError(f"no {family}{suffix} sample with {labels}")

        assert sample("ingest_batches_total", "ingest_batches_total") == 2
        assert sample("ingest_trips_total", "ingest_trips_total") == 40
        assert sample("ingest_workers", "ingest_workers") == 4
        assert sample("ingest_shard_trips", "_count") == 1
        assert sample("ingest_shard_trips", "_sum") == 3
        assert sample("ingest_stage_seconds", "_count", stage="matching") == 1
        assert sample(
            "ingest_stage_seconds", "_sum", stage="clustering"
        ) == pytest.approx(0.03)

    def test_per_stage_buckets_grouped_under_family(self):
        from repro.obs.metrics import parse_prometheus_text

        families = parse_prometheus_text(
            self._ingest_registry().render_prometheus()
        )
        stages = {
            labels["stage"]
            for name, labels, _ in families["ingest_stage_seconds"]["samples"]
            if name.endswith("_bucket")
        }
        assert stages == {"matching", "clustering", "trip_mapping"}
        # Every bucket series carries a le= boundary label.
        assert all(
            "le" in labels
            for name, labels, _ in families["ingest_stage_seconds"]["samples"]
            if name.endswith("_bucket")
        )


class TestParsePrometheusFleetFamilies:
    """parse_prometheus_text round-trips the high-cardinality fleet
    families — ``headway_seconds{route,stop}`` and
    ``od_flow_trips{origin,dest}`` — including the shared ``_overflow``
    child a capped family degrades into."""

    @staticmethod
    def _fleet_registry():
        from repro.obs.labels import OVERFLOW_LABEL_VALUE  # noqa: F401

        registry = MetricsRegistry()
        headway = registry.labeled_gauge(
            "headway_seconds", ("route", "stop"), max_children=4
        )
        for stop in range(4):
            headway.labels("179-0", str(stop)).set(600.0 + stop)
        # Beyond the cap: both land in the shared _overflow child.
        headway.labels("199-1", "9").set(120.0)
        headway.labels("199-1", "10").set(130.0)
        od = registry.labeled_counter(
            "od_flow_trips", ("origin", "dest"), max_children=3
        )
        od.labels("1", "2").inc(5)
        od.labels("1", "3").inc(2)
        od.labels("2", "3").inc(1)
        od.labels("7", "8").inc(4)         # overflow
        registry.labeled_gauge("bunching_rate", ("route",)).labels(
            "179-0"
        ).set(0.25)
        return registry

    def test_labeled_children_round_trip(self):
        from repro.obs.metrics import parse_prometheus_text

        families = parse_prometheus_text(
            self._fleet_registry().render_prometheus()
        )
        assert families["headway_seconds"]["type"] == "gauge"
        assert families["od_flow_trips"]["type"] == "counter"
        assert families["bunching_rate"]["type"] == "gauge"

        headways = {
            (labels["route"], labels["stop"]): value
            for _, labels, value in families["headway_seconds"]["samples"]
        }
        assert headways[("179-0", "0")] == 600.0
        assert headways[("179-0", "3")] == 603.0
        flows = {
            (labels["origin"], labels["dest"]): value
            for _, labels, value in families["od_flow_trips"]["samples"]
        }
        assert flows[("1", "2")] == 5
        assert flows[("2", "3")] == 1
        assert families["bunching_rate"]["samples"] == [
            ("bunching_rate", {"route": "179-0"}, 0.25)
        ]

    def test_overflow_child_survives_the_round_trip(self):
        from repro.obs.labels import OVERFLOW_LABEL_VALUE
        from repro.obs.metrics import parse_prometheus_text

        families = parse_prometheus_text(
            self._fleet_registry().render_prometheus()
        )
        overflow_key = (OVERFLOW_LABEL_VALUE, OVERFLOW_LABEL_VALUE)
        headways = {
            (labels["route"], labels["stop"]): value
            for _, labels, value in families["headway_seconds"]["samples"]
        }
        # Gauge overflow keeps the latest write beyond the cap.
        assert headways[overflow_key] == 130.0
        flows = {
            (labels["origin"], labels["dest"]): value
            for _, labels, value in families["od_flow_trips"]["samples"]
        }
        # Counter overflow accumulates every capped increment.
        assert flows[overflow_key] == 4
        # The capped identities themselves are NOT exported as children.
        assert ("199-1", "9") not in headways
        assert ("7", "8") not in flows


class TestTracer:
    def test_nested_spans_aggregate_by_name(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        stats = tracer.stage_stats()
        assert stats["outer"]["count"] == 1
        assert stats["inner"]["count"] == 2
        assert stats["outer"]["total_s"] >= stats["inner"]["total_s"]

    def test_depth_and_current_span(self):
        tracer = Tracer()
        assert tracer.depth == 0
        with tracer.span("a"):
            assert tracer.depth == 1
            assert tracer.current_span == "a"
            with tracer.span("b"):
                assert tracer.depth == 2
                assert tracer.current_span == "b"
        assert tracer.depth == 0
        assert tracer.current_span is None

    def test_durations_measured(self):
        tracer = Tracer()
        with tracer.span("sleep"):
            time.sleep(0.01)
        timing = tracer.timing("sleep")
        assert timing.count == 1
        assert timing.total_s >= 0.008
        assert timing.min_s <= timing.max_s

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.depth == 0
        assert tracer.stage_stats()["boom"]["count"] == 1

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.stage_stats() == {}

    def test_reset_with_open_span_is_an_error(self):
        tracer = Tracer()
        span = tracer.span("a")
        span.__enter__()
        with pytest.raises(RuntimeError):
            tracer.reset()

    def test_null_tracer_is_free_and_silent(self):
        with NULL_TRACER.span("anything"):
            pass
        assert NULL_TRACER.stage_stats() == {}
        assert NULL_TRACER.depth == 0
        assert not NULL_TRACER.enabled


class TestStageTiming:
    def test_record_tracks_extremes(self):
        timing = StageTiming()
        timing.record(1.0)
        timing.record(3.0)
        assert timing.count == 2
        assert timing.mean_s == pytest.approx(2.0)
        assert timing.min_s == 1.0
        assert timing.max_s == 3.0
        assert timing.as_dict()["total_s"] == pytest.approx(4.0)

    def test_empty_as_dict(self):
        assert StageTiming().as_dict()["min_s"] == 0.0


class TestStructuredLogging:
    def test_key_value_formatter(self):
        stream = io.StringIO()
        configure(level="debug", stream=stream)
        log = get_logger("test.kv")
        log_event(log, "trip_done", trips=3, rate=0.51234567, note="two words")
        line = stream.getvalue().strip()
        assert "event=trip_done" in line
        assert "trips=3" in line
        assert "rate=0.512346" in line
        assert 'note="two words"' in line
        assert "logger=repro.test.kv" in line

    def test_json_formatter(self):
        stream = io.StringIO()
        configure(level="info", json=True, stream=stream)
        log = get_logger("test.json")
        log_event(log, "published", segments=17)
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "published"
        assert payload["segments"] == 17
        assert payload["level"] == "info"

    def test_level_filtering(self):
        stream = io.StringIO()
        configure(level="warning", stream=stream)
        log_event(get_logger("test.lvl"), "quiet", level=logging.INFO)
        assert stream.getvalue() == ""

    def test_reconfigure_replaces_handler(self):
        a, b = io.StringIO(), io.StringIO()
        configure(level="info", stream=a)
        configure(level="info", stream=b)
        log_event(get_logger("test.re"), "once")
        assert a.getvalue() == ""
        assert b.getvalue().count("event=once") == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure(level="noisy")

    def test_get_logger_namespaces(self):
        assert get_logger("core.server").name == "repro.core.server"
        assert get_logger("repro.core.server").name == "repro.core.server"
        assert get_logger().name == "repro"

    def teardown_method(self):
        # Leave the shared namespace logger quiet for other tests.
        configure(level="warning", stream=io.StringIO())
