"""Tests for the span-tracing subsystem (obs/tracing.py).

Covers the tracer edge cases — the NULL_TRACER zero-allocation path,
nested-span parent linkage, deterministic head sampling, exemplar
eviction order — plus the Chrome trace-event export/validator/
summarizer, the CLI's sampling policy, and an end-to-end traced ingest.
"""

import json

import pytest

from repro.obs.tracing import (
    Exemplar,
    ExemplarStore,
    NULL_TRACER,
    SamplingPolicy,
    SpanRecord,
    Tracer,
    chrome_trace_document,
    format_trace_summary,
    summarize_chrome_trace,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def batch(small_city, traffic, sampler, config):
    """Uploads from two bus routes (same recipe as test_ingest)."""
    import itertools as it

    import numpy as np

    from repro.phone import record_participant_trips
    from repro.sim.bus import simulate_bus_trip
    from repro.util.units import parse_hhmm

    rider_ids = it.count()
    uploads = []
    for k, route_id in enumerate(("179-0", "199-0")):
        route = small_city.route_network.route(route_id)
        trace = simulate_bus_trip(
            route, parse_hhmm("08:10") + 120.0 * k, traffic, rider_ids,
            rng=np.random.default_rng(21 + k),
        )
        uploads.extend(record_participant_trips(
            trace, small_city.registry, sampler, config,
            rng=np.random.default_rng(31 + k),
        ))
    assert len(uploads) >= 4
    return uploads


def make_record(name="matching", span_id="a.1", parent_id=None, start=0.0,
                dur=0.01, pid=1, **attrs):
    return SpanRecord(
        name=name, trace_id="t", span_id=span_id, parent_id=parent_id,
        start_s=start, duration_s=dur, pid=pid, attrs=attrs,
    )


class FakeClock:
    """Stands in for the tracer's ``time`` module: spans last exactly
    as long as the test advances ``now``."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def time(self):
        return 0.0


@pytest.fixture
def clock(monkeypatch):
    from repro.obs import tracing

    fake = FakeClock()
    monkeypatch.setattr(tracing, "time", fake)
    return fake


class TestNullTracer:
    def test_span_is_one_shared_object(self):
        # The null fast path allocates nothing per call: every span()
        # returns the same no-op context manager.
        a = NULL_TRACER.span("matching")
        b = NULL_TRACER.span("clustering", key="trip-1")
        assert a is b

    def test_records_nothing(self):
        with NULL_TRACER.span("matching", key="k"):
            pass
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.stage_stats() == {}
        assert NULL_TRACER.exemplar_summaries() == []
        assert NULL_TRACER.wall_s == 0.0
        assert NULL_TRACER.chrome_trace()["traceEvents"] == []
        assert not NULL_TRACER.enabled


class TestAggregateBackCompat:
    """The original aggregate-only API must behave identically."""

    def test_stage_stats_shape_without_policy(self):
        tracer = Tracer()
        with tracer.span("matching"):
            with tracer.span("clustering"):
                pass
        stats = tracer.stage_stats()
        assert set(stats) == {"matching", "clustering"}
        assert stats["matching"]["count"] == 1
        assert not tracer.retaining
        assert tracer.records() == []

    def test_unbalanced_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("a")
        inner = tracer.span("b")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="unbalanced span exit"):
            outer.__exit__(None, None, None)

    def test_reset_with_open_span_raises(self):
        tracer = Tracer()
        with tracer.span("a"):
            with pytest.raises(RuntimeError, match="still open"):
                tracer.reset()

    def test_wall_is_top_level_time_only(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer_total = tracer.timing("outer").total_s
        assert tracer.wall_s == pytest.approx(outer_total)


class TestParentLinkage:
    def test_nested_spans_link_to_parents(self):
        tracer = Tracer(SamplingPolicy())
        with tracer.span("ingest"):
            with tracer.span("receive_trip", key="trip-1"):
                with tracer.span("matching"):
                    pass
        records = {r.name: r for r in tracer.records()}
        assert set(records) == {"ingest", "receive_trip", "matching"}
        assert records["ingest"].parent_id is None
        assert records["receive_trip"].parent_id == records["ingest"].span_id
        assert records["matching"].parent_id == records["receive_trip"].span_id
        assert len({r.trace_id for r in records.values()}) == 1
        assert len({r.span_id for r in records.values()}) == 3


class TestSampling:
    def test_decision_is_deterministic_per_key(self):
        policy = SamplingPolicy(head_rate=0.5, seed=7)
        one, two = Tracer(policy), Tracer(policy)
        keys = [f"trip-{i}" for i in range(200)]
        assert [one._sample(k) for k in keys] == [two._sample(k) for k in keys]
        kept = sum(one._sample(k) for k in keys)
        assert 60 <= kept <= 140        # unbiased-ish at rate 0.5

    def test_seed_changes_decisions(self):
        keys = [f"trip-{i}" for i in range(200)]
        a = Tracer(SamplingPolicy(head_rate=0.5, seed=1))
        b = Tracer(SamplingPolicy(head_rate=0.5, seed=2))
        assert [a._sample(k) for k in keys] != [b._sample(k) for k in keys]

    def test_rate_zero_drops_keyed_subtree_but_keeps_keyless(self):
        tracer = Tracer(SamplingPolicy(head_rate=0.0, slow_exemplars=0))
        with tracer.span("ingest"):
            with tracer.span("receive_trip", key="trip-1"):
                with tracer.span("matching"):
                    pass
        names = {r.name for r in tracer.records()}
        assert names == {"ingest"}
        # Aggregates still see everything: sampling gates records only.
        assert tracer.timing("matching").count == 1

    def test_rate_one_keeps_everything(self):
        tracer = Tracer(SamplingPolicy(head_rate=1.0))
        with tracer.span("receive_trip", key="trip-1"):
            with tracer.span("matching"):
                pass
        assert {r.name for r in tracer.records()} == \
            {"receive_trip", "matching"}

    def test_scope_buffer_cap_counts_drops(self):
        tracer = Tracer(SamplingPolicy(max_spans_per_trace=2))
        with tracer.span("receive_trip", key="trip-1"):
            for _ in range(5):
                with tracer.span("matching"):
                    pass
        assert tracer.records_dropped == 3
        names = [r.name for r in tracer.records()]
        assert names.count("matching") == 2

    def test_global_record_cap_evicts_oldest(self):
        tracer = Tracer(SamplingPolicy(max_records=3, slow_exemplars=0))
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.records_dropped == 2
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]


class TestExemplars:
    def test_store_keeps_slowest_n_in_order(self):
        store = ExemplarStore(capacity=3)
        for i, dur in enumerate([0.03, 0.01, 0.05, 0.02, 0.04]):
            store.offer(Exemplar(root=make_record(
                span_id=f"a.{i}", dur=dur, key=f"t{i}")))
        durations = [e.duration_s for e in store.items()]
        assert durations == [0.05, 0.04, 0.03]

    def test_faster_newcomer_is_rejected(self):
        store = ExemplarStore(capacity=1)
        assert store.offer(Exemplar(root=make_record(span_id="a.1", dur=0.5)))
        assert not store.offer(
            Exemplar(root=make_record(span_id="a.2", dur=0.1))
        )
        assert [e.duration_s for e in store.items()] == [0.5]

    def test_zero_capacity_keeps_nothing(self):
        store = ExemplarStore(capacity=0)
        assert not store.offer(Exemplar(root=make_record()))
        assert store.items() == []

    def test_exemplars_survive_head_sampling(self, clock):
        # Tail retention is unconditional: rate 0 still keeps slow trips.
        tracer = Tracer(SamplingPolicy(head_rate=0.0, slow_exemplars=2))
        for i, dur in enumerate([0.01, 0.05, 0.02]):
            with tracer.span("receive_trip", key=f"trip-{i}"):
                clock.now += dur
        summaries = tracer.exemplar_summaries()
        assert [s["key"] for s in summaries] == ["trip-1", "trip-2"]
        # And their records appear in the export even though head
        # sampling rejected them.
        keys = {r.attrs.get("key") for r in tracer.records()}
        assert keys == {"trip-1", "trip-2"}

    def test_summary_breaks_down_child_stages(self):
        tracer = Tracer(SamplingPolicy(slow_exemplars=1))
        with tracer.span("receive_trip", key="trip-9"):
            with tracer.span("matching"):
                pass
            with tracer.span("clustering"):
                pass
        (summary,) = tracer.exemplar_summaries()
        assert summary["key"] == "trip-9"
        assert set(summary["stages"]) == {"matching", "clustering"}


class TestChromeExport:
    def records(self):
        return [
            make_record(name="ingest", span_id="a.1", start=1.0, dur=0.1),
            make_record(name="matching", span_id="a.2", parent_id="a.1",
                        start=1.01, dur=0.02, samples=128),
            make_record(name="receive_trip", span_id="a.3", parent_id="a.1",
                        start=1.05, dur=0.03, key="trip-1"),
        ]

    def test_document_is_valid_and_normalized(self):
        doc = chrome_trace_document(self.records())
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0      # epoch-normalized
        assert all(e["dur"] >= 0 for e in xs)
        by_name = {e["name"]: e for e in xs}
        assert by_name["matching"]["cat"] == "compute"
        assert by_name["receive_trip"]["cat"] == "trip"
        assert by_name["ingest"]["cat"] == "pipeline"
        assert by_name["matching"]["args"]["samples"] == 128
        assert by_name["matching"]["args"]["parent_id"] == "a.1"
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in metas] == [(1, "repro")]

    def test_round_trips_through_json(self):
        doc = json.loads(json.dumps(chrome_trace_document(self.records())))
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_ts = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 5, "dur": 1},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 2, "dur": 1},
        ]}
        assert any("backwards" in p for p in validate_chrome_trace(bad_ts))
        bad_dur = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1},
        ]}
        assert any("bad dur" in p for p in validate_chrome_trace(bad_dur))
        # The exporter writes only X and M events; begin/end pairs are
        # reported, not interpreted.
        for ph in ("B", "E"):
            event = {"name": "a", "ph": ph, "pid": 1, "tid": 1, "ts": 0}
            assert validate_chrome_trace({"traceEvents": [event]}) == [
                f"event 0: unsupported ph {ph!r}"
            ]

    def test_summary_self_time_and_split(self):
        doc = chrome_trace_document(self.records())
        summary = summarize_chrome_trace(doc)
        # ingest (0.1s) minus its children (0.02 + 0.03) = 0.05 self.
        assert summary["by_name_s"]["ingest"]["self_s"] == \
            pytest.approx(0.05, abs=1e-9)
        categories = summary["categories_s"]
        assert set(categories) == {"pipeline", "compute", "trip"}
        assert categories["pipeline"] == pytest.approx(0.05, abs=1e-9)
        assert categories["compute"] == pytest.approx(0.02, abs=1e-9)
        assert categories["trip"] == pytest.approx(0.03, abs=1e-9)
        # The ingest root covers the whole trace wall.
        assert summary["wall_s"] == pytest.approx(0.1, abs=1e-9)
        assert summary["coverage"] == pytest.approx(1.0)
        assert summary["slowest"] == [
            {"name": "receive_trip", "key": "trip-1",
             "duration_s": pytest.approx(0.03, abs=1e-9)},
        ]
        text = format_trace_summary(summary)
        assert "coverage by top-level spans: 100.0%" in text
        assert "self-time by category: pipeline 0.050s (50%)" in text
        assert "receive_trip key=trip-1: 30.0 ms" in text

    def test_coverage_counts_top_level_spans_only(self):
        # Two 10 ms roots 40 ms apart: the gap between them is unnamed.
        doc = chrome_trace_document([
            make_record(name="ingest", span_id="a.1", start=0.0, dur=0.01),
            make_record(name="matching", span_id="a.2", parent_id="a.1",
                        start=0.0, dur=0.01),
            make_record(name="publish", span_id="a.3", start=0.04, dur=0.01),
        ])
        assert summarize_chrome_trace(doc)["coverage"] == pytest.approx(0.4)

    def test_empty_trace_summarizes(self):
        summary = summarize_chrome_trace(chrome_trace_document([]))
        assert summary["events"] == 0
        assert summary["wall_s"] == 0.0
        format_trace_summary(summary)    # must not raise


class TestServerIntegration:
    def test_traced_ingest_is_valid_and_results_match(
        self, small_city, database, config, batch
    ):
        from repro.core import BackendServer
        from repro.obs import MetricsRegistry

        def server_with(tracer=None):
            return BackendServer(
                small_city.network, small_city.route_network, database,
                config, registry=MetricsRegistry(), tracer=tracer,
            )

        plain = server_with()
        expected = plain.receive_trips(batch)
        tracer = Tracer(SamplingPolicy())
        traced = server_with(tracer=tracer)
        reports = traced.receive_trips(batch)

        assert [r.trip_key for r in reports] == \
            [r.trip_key for r in expected]
        assert traced.stats.as_dict() == plain.stats.as_dict()
        doc = tracer.chrome_trace()
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"receive_trip", "matching", "clustering"} <= names
        # One process, one trace: the document names its process once.
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [e["name"] for e in metas] == ["process_name"]
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {metas[0]["pid"]}


class TestTraceCli:
    def make_trace_file(self, tmp_path):
        tracer = Tracer(SamplingPolicy())
        with tracer.span("ingest"):
            with tracer.span("receive_trip", key="trip-1"):
                with tracer.span("matching"):
                    pass
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(tracer.chrome_trace()))
        return path

    def test_trace_summary_and_validate(self, tmp_path, capsys):
        from repro.cli import main

        path = self.make_trace_file(tmp_path)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "coverage by top-level spans" in out
        assert "receive_trip key=trip-1" in out
        assert main(["trace", "--validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_trace_rejects_bad_documents(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["trace", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "E", "pid": 1, "tid": 1, "ts": 0},
        ]}))
        assert main(["trace", str(bad)]) == 1
        assert "schema problem" in capsys.readouterr().err

    def test_trace_out_policy_keeps_its_defaults(self):
        from repro.cli import _trace_policy, build_parser

        parser = build_parser()
        assert _trace_policy(parser.parse_args(["simulate"])) is None
        args = parser.parse_args(["simulate", "--trace-out", "t.json"])
        assert _trace_policy(args) == SamplingPolicy(
            head_rate=1.0, slow_exemplars=8, seed=0,
            max_spans_per_trace=4096, max_records=200_000,
        )
        args = parser.parse_args([
            "campaign", "--trace-out", "t.json",
            "--trace-sample", "0.25", "--trace-exemplars", "3",
        ])
        assert _trace_policy(args) == SamplingPolicy(
            head_rate=0.25, slow_exemplars=3,
        )

    def test_stats_wall_share_and_hint(self, tmp_path, capsys):
        from repro.cli import main

        document = {
            "command": "campaign",
            "stats": {},
            "wall_s": 2.0,
            "stages": {
                "matching": {"count": 10, "total_s": 0.5,
                             "mean_s": 0.05, "min_s": 0.01, "max_s": 0.2},
            },
            "metrics": {},
            "exemplars": [
                {"name": "receive_trip", "key": "trip-1",
                 "duration_s": 0.2, "stages": {"matching": 0.15}},
            ],
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(document))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "% of wall" in out
        assert "25.0%" in out               # 0.5 / 2.0
        assert "Slow-trip exemplars" in out
        assert "hint:" in out               # 200 ms > default 50 ms bar

    def test_stats_hint_respects_threshold(self, tmp_path, capsys):
        from repro.cli import main

        document = {
            "command": "campaign", "stats": {}, "wall_s": 1.0,
            "stages": {"matching": {"count": 1, "total_s": 0.1,
                                    "mean_s": 0.1, "min_s": 0.1,
                                    "max_s": 0.1}},
            "metrics": {},
            "exemplars": [{"name": "receive_trip", "key": "t",
                           "duration_s": 0.03, "stages": {}}],
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(document))
        assert main(["stats", str(path)]) == 0
        assert "hint:" not in capsys.readouterr().out   # 30 ms < 50 ms
        assert main(["stats", str(path), "--slow-trip-ms", "10"]) == 0
        assert "hint:" in capsys.readouterr().out


class TestHttpTraceEndpoint:
    def test_trace_endpoint_serves_document(self):
        import urllib.request

        from repro.obs import MetricsHTTPServer, MetricsRegistry

        tracer = Tracer(SamplingPolicy())
        with tracer.span("ingest"):
            pass
        with MetricsHTTPServer(
            MetricsRegistry(), trace_fn=tracer.chrome_trace
        ) as exporter:
            with urllib.request.urlopen(f"{exporter.url}/trace") as resp:
                doc = json.load(resp)
        assert validate_chrome_trace(doc) == []
        assert any(e["name"] == "ingest" for e in doc["traceEvents"])

    def test_trace_endpoint_unwired_reports_error(self):
        import urllib.request

        from repro.obs import MetricsHTTPServer, MetricsRegistry

        with MetricsHTTPServer(MetricsRegistry()) as exporter:
            with urllib.request.urlopen(f"{exporter.url}/trace") as resp:
                doc = json.load(resp)
        assert "error" in doc


class TestSpanCategories:
    def test_traced_campaign_with_store_has_no_uncategorized_span(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every span a campaign opens (store I/O and day bounds
        included) exports under a named category, never ``other``."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "campaign", "--sparse-days", "1", "--intensive-days", "0",
            "--start", "07:30", "--end", "07:45",
            "--store", str(tmp_path / "store"), "--snapshot-every", "5",
            "--trace-out", "t.json",
        ]) == 0
        capsys.readouterr()
        events = [
            e for e in json.loads((tmp_path / "t.json").read_text())[
                "traceEvents"
            ] if e["ph"] == "X"
        ]
        names = {e["name"] for e in events}
        assert {"campaign_day", "publish", "store_wal_append",
                "store_snapshot"} <= names
        assert [e["name"] for e in events if e["cat"] == "other"] == []
