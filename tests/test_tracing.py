"""Tests for the span-tracing subsystem (obs/tracing.py).

Covers the tracer edge cases — the NULL_TRACER zero-allocation path,
nested-span parent linkage, the record budget, slow-trip exemplar
order — plus the Chrome trace-event export/validator/summarizer, the
CLI's retention switch, and an end-to-end traced ingest.
"""

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    NULL_TRACER,
    RECORD_BUDGET,
    SLOW_EXEMPLARS,
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
        tracer = Tracer(retain=True)
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
    """What a retaining tracer keeps: every span (head rate 1 is the
    only rate), under one record budget."""

    def test_rate_one_keeps_everything(self):
        tracer = Tracer(retain=True)
        with tracer.span("ingest"):
            with tracer.span("receive_trip", key="trip-1"):
                for _ in range(5):
                    with tracer.span("matching"):
                        pass
        assert [r.name for r in tracer.records()] == \
            ["ingest", "receive_trip"] + ["matching"] * 5
        assert tracer.records_dropped == 0
        # Aggregates see the same spans.
        assert tracer.timing("matching").count == 5

    def test_global_record_cap_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tracing, "RECORD_BUDGET", 3)
        tracer = Tracer(retain=True)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.records_dropped == 2
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]


class TestExemplars:
    @staticmethod
    def run_trips(tracer, clock, durations):
        """One keyed trip per duration under one ``ingest`` root, each
        with two timed children and a grandchild."""
        with tracer.span("ingest"):
            for i, dur in enumerate(durations):
                with tracer.span("receive_trip", key=f"trip-{i}"):
                    with tracer.span("matching"):
                        with tracer.span("leg_estimation"):
                            clock.now += dur / 4
                        clock.now += dur / 4
                    with tracer.span("clustering"):
                        clock.now += dur / 2

    def test_store_keeps_slowest_n_in_order(self, clock):
        # Under the budget the buffer yields the slowest-N keyed
        # subtrees, slowest first, each with all of its descendants.
        durations = [0.01 * (i % 7 + 1) + 0.001 * i for i in range(20)]
        tracer = Tracer(retain=True)
        self.run_trips(tracer, clock, durations)
        assert tracer.records_dropped == 0
        exemplars = tracer.exemplars()
        slowest = sorted(range(20), key=lambda i: -durations[i])
        assert [e.key for e in exemplars] == \
            [f"trip-{i}" for i in slowest[:SLOW_EXEMPLARS]]
        assert [e.duration_s for e in exemplars] == pytest.approx(
            [durations[i] for i in slowest[:SLOW_EXEMPLARS]]
        )
        for exemplar in exemplars:
            # Finish order: the grandchild closes before its parent.
            assert [c.name for c in exemplar.children] == \
                ["leg_estimation", "matching", "clustering"]
            ids = {exemplar.root.span_id} | {
                c.span_id for c in exemplar.children
            }
            assert all(c.parent_id in ids for c in exemplar.children)
        assert [s["key"] for s in tracer.exemplar_summaries()] == \
            [e.key for e in exemplars]

    def test_faster_newcomer_is_rejected(self, clock):
        # A trip no slower than N earlier ones is no exemplar; ties go
        # to the earlier trip.  Binary fractions keep the ties exact.
        durations = [2 ** -4] * SLOW_EXEMPLARS + [2 ** -4, 2 ** -6]
        tracer = Tracer(retain=True)
        self.run_trips(tracer, clock, durations)
        assert [e.key for e in tracer.exemplars()] == \
            [f"trip-{i}" for i in range(SLOW_EXEMPLARS)]

    def test_zero_capacity_keeps_nothing(self, clock):
        # The aggregate-only tracer retains no records, so no exemplars.
        tracer = Tracer()
        self.run_trips(tracer, clock, [0.05, 0.01])
        assert tracer.exemplars() == []
        assert tracer.exemplar_summaries() == []
        assert tracer.timing("receive_trip").count == 2

    def test_summary_breaks_down_child_stages(self):
        tracer = Tracer(retain=True)
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
        tracer = Tracer(retain=True)
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
        tracer = Tracer(retain=True)
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

    def test_trace_out_policy_keeps_its_defaults(self, capsys):
        from repro.cli import _observability_for, build_parser

        # --trace-out alone turns retention on; the budget and the
        # exemplar count are fixed.
        parser = build_parser()
        assert parser.parse_args(["simulate"]).trace_out is None
        args = parser.parse_args(["campaign", "--trace-out", "t.json"])
        _, tracer = _observability_for(False, retain=bool(args.trace_out))
        assert tracer.retaining
        assert (RECORD_BUDGET, SLOW_EXEMPLARS) == (200_000, 8)
        for flag in ("--trace-sample", "--trace-exemplars"):
            with pytest.raises(SystemExit):
                parser.parse_args(["campaign", "--trace-out", "t.json",
                                   flag, "1"])
        capsys.readouterr()

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

        tracer = Tracer(retain=True)
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
