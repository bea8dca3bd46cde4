"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


class TestBuildCity:
    def test_writes_feed(self, tmp_path, capsys):
        out = str(tmp_path / "feed")
        assert main(["build-city", "--out", out, "--seed", "3"]) == 0
        assert os.path.exists(os.path.join(out, "stops.txt"))
        assert "stations" in capsys.readouterr().out


class TestPower:
    def test_prints_table(self, capsys):
        assert main(["power"]) == 0
        output = capsys.readouterr().out
        assert "GPS" in output
        assert "Cellular+Mic(Goertzel)" in output


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignCommand:
    def test_rejects_zero_phases(self, capsys):
        code = main(["campaign", "--sparse-days", "0", "--intensive-days", "0"])
        assert code == 2

    @pytest.mark.parametrize("name", ["state.db", "notadir.txt"])
    def test_store_on_existing_file_exits_2(self, tmp_path, capsys, name):
        """A store is a directory: a regular file at the path (an old
        sqlite file, say) is a usage error, not a traceback, and is
        left as it was."""
        path = tmp_path / name
        path.write_bytes(b"not a store")
        code = main(["campaign", "--sparse-days", "1", "--intensive-days", "0",
                     "--store", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and err.count("\n") == 1
        assert "not a directory" in err
        assert path.read_bytes() == b"not a store"

    @pytest.mark.slow
    def test_runs_two_phase_campaign(self, capsys):
        code = main([
            "campaign", "--sparse-days", "1", "--intensive-days", "1",
            "--start", "08:00", "--end", "08:40", "--seed", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "sparse" in output
        assert "intensive" in output
        assert "mean uploads/day" in output


@pytest.mark.slow
class TestEndToEndWorkflow:
    """The full deployment workflow through the CLI (uses the real city)."""

    def test_survey_simulate_process(self, tmp_path, capsys):
        db_path = str(tmp_path / "db.json")
        trips_path = str(tmp_path / "trips.jsonl")
        map_path = str(tmp_path / "map.geojson")
        metrics_path = str(tmp_path / "metrics.json")

        assert main(["survey", "--out", db_path, "--seed", "3",
                     "--samples-per-stop", "3"]) == 0
        assert os.path.exists(db_path)

        assert main([
            "simulate", "--seed", "3", "--start", "08:00", "--end", "08:40",
            "--routes", "179-0", "--headway", "1200",
            "--out", map_path, "--trips-out", trips_path,
            "--metrics-out", metrics_path,
        ]) == 0
        with open(map_path) as handle:
            geojson = json.load(handle)
        assert geojson["type"] == "FeatureCollection"
        assert geojson["features"]

        # The metrics document carries stage timings and all counters.
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        for stage in ("matching", "clustering", "trip_mapping",
                      "leg_estimation", "receive_trip", "publish"):
            assert metrics["stages"][stage]["count"] > 0
            assert metrics["stages"][stage]["total_s"] >= 0.0
        assert metrics["stats"]["trips_received"] > 0
        assert "samples_duplicate" in metrics["stats"]
        assert metrics["metrics"]["counters"]["server_trips_received"] == \
            metrics["stats"]["trips_received"]

        assert main(["process", "--db", db_path, "--trips", trips_path,
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "mapped" in output

        # The stats report renders the metrics document.
        assert main(["stats", metrics_path]) == 0
        report = capsys.readouterr().out
        assert "Server pipeline counters" in report
        assert "Per-stage span timings" in report
        assert "matching" in report


class TestStatsCommand:
    def _document(self):
        return {
            "command": "simulate",
            "stats": {"trips_received": 12, "trips_mapped": 10},
            "stages": {
                "matching": {"count": 12, "total_s": 0.5, "mean_s": 0.0417,
                             "min_s": 0.01, "max_s": 0.2},
            },
            "metrics": {
                "counters": {"server_trips_received": 12,
                             "phone_uploads_total": 12},
                "gauges": {},
                "histograms": {
                    "matcher_candidates_per_sample": {
                        "count": 100, "sum": 420.0,
                        "bounds": [1, 5], "bucket_counts": [10, 80, 10],
                    }
                },
            },
        }

    def test_renders_all_sections(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._document()))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trips_received" in out
        assert "matching" in out
        assert "phone_uploads_total" in out
        assert "matcher_candidates_per_sample" in out

    def test_empty_document_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["stats", str(path)]) == 2

    def test_missing_file_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "does-not-exist.json"
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert "stats: cannot read" in captured.err
        assert str(path) in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_json_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"metrics": {"counters": ')
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert "stats:" in captured.err
        assert "not valid JSON" in captured.err
        assert "Traceback" not in captured.err


class TestLoggingFlags:
    def test_log_level_flag_configures_namespace_logger(self, capsys):
        import logging

        assert main(["--log-level", "debug", "power"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        # Restore the default so later tests stay quiet.
        assert main(["--log-level", "warning", "power"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_log_json_flag_accepted(self):
        assert main(["--log-json", "power"]) == 0

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "shouty", "power"])


class TestAlertsCommand:
    def _rules(self, tmp_path, rules):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": rules}))
        return str(path)

    def _freshness_doc(self, tmp_path, values):
        doc = {
            "metrics": {
                "counters": {}, "gauges": {}, "histograms": {},
                "labeled": {
                    "map_route_freshness_s": {
                        "type": "gauge", "labels": ["route"],
                        "overflow_total": 0,
                        "children": {
                            f'route="{route}"': value
                            for route, value in values.items()
                        },
                    },
                },
            },
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_lint_ok(self, tmp_path, capsys):
        path = self._rules(tmp_path, [{"name": "a", "expr": "m < 1"}])
        assert main(["alerts", path]) == 0
        assert "1 rule(s) OK" in capsys.readouterr().out

    def test_lint_failure_exits_2(self, tmp_path, capsys):
        path = self._rules(tmp_path, [{"name": "a", "expr": "m <"}])
        assert main(["alerts", path]) == 2
        assert "a" in capsys.readouterr().err

    def test_firing_rule_exits_1(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "fresh", "expr": "map_route_freshness_s{route=*} < 900",
             "severity": "page", "for": 2},
        ])
        metrics = self._freshness_doc(
            tmp_path, {"179-0": 1200.0, "179-1": 10.0}
        )
        assert main(["alerts", rules, "--metrics", metrics]) == 1
        out = capsys.readouterr().out
        assert "route=179-0" in out
        assert "route=179-1" not in out

    def test_healthy_rules_exit_0(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "fresh", "expr": "map_route_freshness_s{route=*} < 900"},
        ])
        metrics = self._freshness_doc(tmp_path, {"179-0": 10.0})
        assert main(["alerts", rules, "--metrics", metrics]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_evaluates_prom_documents(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "fresh", "expr": "map_route_freshness_s{route=*} < 900"},
        ])
        prom = tmp_path / "m.prom"
        prom.write_text(
            "# TYPE map_route_freshness_s gauge\n"
            'map_route_freshness_s{route="199-0"} 4000\n'
        )
        assert main(["alerts", rules, "--metrics", str(prom)]) == 1
        assert "route=199-0" in capsys.readouterr().out


class TestStatsMatchMemoLine:
    """``repro stats`` on documents from before and after the matcher
    lost its verdict memo: no memo line either way."""

    def _document(self, counters):
        return {"metrics": {"counters": counters, "gauges": {},
                            "histograms": {}}}

    def test_pre_change_document_with_memo_counters_renders(
        self, tmp_path, capsys
    ):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._document({
            "server_trips_received": 12,
            "matcher_samples_total": 100,
            "match_cache_hits_total": 30,
            "match_cache_misses_total": 70,
            "match_cache_evictions_total": 4,
        })))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "match memo" not in out
        assert "trips_received" in out
        assert "match_cache_hits_total" in out     # an extra counter row

    def test_absent_counters_render_no_line(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._document({
            "server_trips_received": 12,
        })))
        assert main(["stats", str(path)]) == 0
        assert "match memo" not in capsys.readouterr().out


class TestAlertsNoDataState:
    """Rules whose metric family is absent report no-data, not health."""

    def _rules(self, tmp_path, rules):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": rules}))
        return str(path)

    def _doc(self, tmp_path, children):
        doc = {
            "metrics": {
                "counters": {}, "gauges": {}, "histograms": {},
                "labeled": {
                    "map_route_freshness_s": {
                        "type": "gauge", "labels": ["route"],
                        "overflow_total": 0, "children": children,
                    },
                },
            },
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_no_data_rule_distinct_from_healthy(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "fresh", "expr": "map_route_freshness_s{route=*} < 900"},
            {"name": "no_ghosts", "expr": "ghost_vehicles{route=*} < 1"},
        ])
        metrics = self._doc(tmp_path, {'route="179-0"': 10.0})
        assert main(["alerts", rules, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "1 rule(s) healthy, 1 no-data" in out
        assert ("[no-data] no_ghosts: metric 'ghost_vehicles' absent "
                "from the document") in out

    def test_all_rules_no_data_none_healthy(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "no_ghosts", "expr": "ghost_vehicles{route=*} < 1"},
        ])
        metrics = self._doc(tmp_path, {'route="179-0"': 10.0})
        assert main(["alerts", rules, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "0 rule(s) healthy, 1 no-data" in out
        assert "[no-data] no_ghosts" in out

    def test_no_data_listed_alongside_firing(self, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "fresh", "expr": "map_route_freshness_s{route=*} < 900",
             "severity": "page", "for": 1},
            {"name": "no_ghosts", "expr": "ghost_vehicles{route=*} < 1"},
        ])
        metrics = self._doc(tmp_path, {'route="179-0"': 4000.0})
        assert main(["alerts", rules, "--metrics", metrics]) == 1
        out = capsys.readouterr().out
        assert "1 alert(s) firing" in out
        assert "[no-data] no_ghosts" in out
        assert "route=179-0" in out


class TestAnalyticsCommand:
    def _snapshot(self, tmp_path):
        doc = {
            "command": "simulate",
            "metrics": {
                "counters": {"fleet_od_trips_total": 10},
                "gauges": {}, "histograms": {},
                "labeled": {
                    "headway_seconds": {
                        "type": "gauge", "labels": ["route", "stop"],
                        "overflow_total": 0,
                        "children": {
                            'route="179-0",stop="1"': 600.0,
                            'route="179-0",stop="2"': 480.0,
                            'route="_overflow",stop="_overflow"': 90.0,
                        },
                    },
                    "bunching_rate": {
                        "type": "gauge", "labels": ["route"],
                        "overflow_total": 0,
                        "children": {'route="179-0"': 0.5},
                    },
                    "ghost_vehicles": {
                        "type": "gauge", "labels": ["route"],
                        "overflow_total": 0,
                        "children": {'route="179-0"': 0.0,
                                     'route="199-1"': 2.0},
                    },
                    "od_flow_trips": {
                        "type": "counter", "labels": ["origin", "dest"],
                        "overflow_total": 3,
                        "children": {
                            'origin="1",dest="2"': 7.0,
                            'origin="_overflow",dest="_overflow"': 3.0,
                        },
                    },
                },
            },
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_snapshot_report(self, tmp_path, capsys):
        assert main(["analytics", "--metrics",
                     self._snapshot(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet health" in out
        assert "179-0" in out
        assert "ghost routes: 199-1" in out
        assert "Top O-D flows" in out
        # The _overflow cardinality-cap children never become rows.
        assert "_overflow" not in out

    def test_snapshot_mean_is_mean_of_latest_gaps(self, tmp_path, capsys):
        assert main(["analytics", "--metrics",
                     self._snapshot(tmp_path)]) == 0
        out = capsys.readouterr().out
        # (600 + 480) / 2 = 540 s = 9.0 min for route 179-0.
        assert "9.0" in out

    def test_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.json"
        assert main(["analytics", "--metrics", self._snapshot(tmp_path),
                     "--json-out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["ghost_routes"] == ["199-1"]
        assert report["od"]["total_trips"] == 10
        assert report["od"]["overflow_trips"] == 3
        assert report["od"]["top_flows"][0] == {
            "origin": "1", "dest": "2", "trips": 7,
        }

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "does-not-exist.json"
        assert main(["analytics", "--metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "analytics: cannot read" in err
        assert "Traceback" not in err

    def test_document_without_fleet_families_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "metrics": {"counters": {"server_trips_received": 4},
                        "gauges": {}, "histograms": {}, "labeled": {}},
        }))
        assert main(["analytics", "--metrics", str(path)]) == 2
        assert "no fleet-health families" in capsys.readouterr().err

    def test_live_campaign(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.json"
        assert main([
            "analytics", "--start", "07:30", "--end", "07:50",
            "--seed", "3", "--top-flows", "3",
            "--json-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Fleet health" in out
        assert "source: campaign 07:30-07:50 seed=3" in out
        report = json.loads(out_path.read_text())
        assert report["routes"]
        assert report["od"]["total_trips"] > 0
        assert len(report["od"]["top_flows"]) <= 3


class TestStatsPromInput:
    def test_renders_prom_document(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        prom.write_text(
            "# TYPE server_trips_received counter\n"
            "server_trips_received 12\n"
            "# TYPE fingerprint_db_stops gauge\n"
            "fingerprint_db_stops 40\n"
            "# HELP trips_uploaded_total uploads per route\n"
            "# TYPE trips_uploaded_total counter\n"
            'trips_uploaded_total{route="179-0"} 7\n'
            "# TYPE match_latency histogram\n"
            'match_latency_bucket{le="+Inf"} 3\n'
            "match_latency_sum 1.5\n"
            "match_latency_count 3\n"
        )
        assert main(["stats", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "server_trips_received" in out
        assert "Gauges" in out and "fingerprint_db_stops" in out
        assert "Labeled families" in out
        assert 'trips_uploaded_total{route="179-0"}' in out
        assert "match_latency" in out

    def test_malformed_prom_exits_2(self, tmp_path, capsys):
        prom = tmp_path / "bad.prom"
        prom.write_text("this is not prometheus\n")
        assert main(["stats", str(prom)]) == 2
        captured = capsys.readouterr()
        assert "not valid Prometheus text" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.slow
class TestServeMetricsAndCampaignMetrics:
    def test_simulate_serves_metrics_and_evaluates_rules(self, capsys):
        rules = os.path.join(
            os.path.dirname(__file__), "..", "examples", "alert_rules.json"
        )
        code = main([
            "simulate", "--seed", "3", "--start", "08:00", "--end", "08:30",
            "--routes", "179-0", "--headway", "1200",
            "--serve-metrics", "0", "--alert-rules", rules,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving metrics on http://127.0.0.1:" in out
        # Only one route ran, so other routes' freshness SLOs must fire.
        assert "alerts:" in out
        assert "route_map_fresh" in out

    def test_campaign_metrics_out_prom(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text

        prom_path = str(tmp_path / "campaign.prom")
        code = main([
            "campaign", "--sparse-days", "1", "--intensive-days", "0",
            "--start", "08:00", "--end", "08:30", "--seed", "3",
            "--metrics-out", prom_path,
        ])
        assert code == 0
        with open(prom_path) as handle:
            parsed = parse_prometheus_text(handle.read())
        assert "campaign_days_by_phase_total" in parsed
        ((_, labels, value),) = parsed["campaign_days_by_phase_total"]["samples"]
        assert labels == {"phase": "sparse"}
        assert value == 1


class TestConformanceCommand:
    def test_differential_only_run(self, capsys):
        code = main(["conformance", "--scenarios", "3", "--no-golden"])
        assert code == 0
        output = capsys.readouterr().out
        assert "3 scenarios x 3 estimators" in output
        assert "all conformant" in output
        assert "golden:" not in output

    def test_serial_golden_check_against_committed_fixture(
        self, tmp_path, capsys
    ):
        report_path = str(tmp_path / "report.json")
        code = main([
            "conformance", "--scenarios", "2",
            "--report-out", report_path,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "golden: checked" in output
        assert "byte-identical" in output
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["ok"] is True
        assert report["golden_diff"] == []

    def test_mismatched_fixture_fails_and_writes_diff(self, tmp_path, capsys):
        from repro.testkit import load_trace, write_trace
        from repro.testkit.golden import default_trace_path

        doctored = load_trace(default_trace_path())
        doctored["stats"]["trips_received"] += 1
        fixture = tmp_path / "doctored.json"
        write_trace(doctored, fixture)
        diff_path = str(tmp_path / "golden_diff.txt")
        code = main([
            "conformance", "--scenarios", "1",
            "--fixture", str(fixture), "--diff-out", diff_path,
        ])
        assert code == 1
        assert "diffs" in capsys.readouterr().out
        with open(diff_path) as handle:
            diff = handle.read()
        assert "stats.trips_received" in diff

    def test_record_writes_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "recorded.json"
        code = main([
            "conformance", "--scenarios", "1",
            "--record", "--fixture", str(fixture),
        ])
        assert code == 0
        assert "golden: recorded" in capsys.readouterr().out
        assert fixture.exists()
        # What --record writes is exactly what --check accepts.
        code = main([
            "conformance", "--scenarios", "1",
            "--check", "--fixture", str(fixture),
        ])
        assert code == 0
