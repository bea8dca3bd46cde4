"""Command-line interface: operate the system without writing code.

Subcommands mirror a real deployment's workflow::

    repro build-city  --out feed/           # publish the GTFS-like feed
    repro survey      --out db.json         # war-drive the fingerprint DB
    repro simulate    --start 07:30 --end 10:00 --out map.geojson
    repro process     --db db.json --trips trips.jsonl   # offline reprocessing
    repro power                              # Table III on stdout
    repro stats       metrics.json           # render a --metrics-out document
    repro alerts      rules.json --metrics m.json   # lint + evaluate SLO rules
    repro analytics   --end 09:00            # fleet-health report (headways,
                                             # ghost buses, O-D flows)
    repro conformance --scenarios 25         # oracles + golden-trace referee

Every command is deterministic given ``--seed``.

Observability: the global ``--log-level``/``--log-json`` flags configure
structured logging for any command; ``simulate``/``process``/``campaign``
accept ``--metrics-out FILE`` to dump pipeline counters, histograms and
per-stage span timings (JSON, or Prometheus text when FILE ends in
``.prom``); ``repro stats`` renders either format back.  ``repro
simulate --serve-metrics PORT`` runs an embedded HTTP exporter
(``/metrics``, ``/healthz``, ``/stats``, ``/freshness``, ``/fleet``,
``/trace``) next to the campaign, and ``--alert-rules FILE`` evaluates
declarative SLO rules on every publish tick.

Tracing: ``simulate``/``campaign`` accept ``--trace-out FILE`` to retain
causal span records (the slowest trips become the slow-trip exemplars
of ``--metrics-out``) and export them as Chrome trace-event JSON — load
the file in Perfetto or ``chrome://tracing``, or run ``repro trace
FILE`` for a terminal self-time breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Participatory bus-probe urban traffic monitoring "
                    "(ICDCS'15 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error", "critical"],
        help="structured-log verbosity (default: warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON Lines instead of key=value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-city", help="generate the synthetic city feed")
    build.add_argument("--out", required=True, help="output GTFS directory")
    build.add_argument("--seed", type=int, default=7)

    survey = sub.add_parser("survey", help="survey the bus-stop fingerprint DB")
    survey.add_argument("--out", required=True, help="output database JSON path")
    survey.add_argument("--seed", type=int, default=7)
    survey.add_argument("--samples-per-stop", type=int, default=5)

    simulate = sub.add_parser("simulate", help="run a sensing campaign")
    simulate.add_argument("--start", default="07:30")
    simulate.add_argument("--end", default="10:00")
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--headway", type=float, default=None,
                          help="dispatch headway in seconds")
    simulate.add_argument("--routes", nargs="*", default=None,
                          help="route ids (default: all)")
    simulate.add_argument("--out", default=None,
                          help="write the final map snapshot as GeoJSON")
    simulate.add_argument("--trips-out", default=None,
                          help="also dump raw uploads as JSON Lines")
    simulate.add_argument("--metrics-out", default=None,
                          help="dump pipeline metrics + per-stage timings "
                               "(JSON, or Prometheus text for *.prom)")
    simulate.add_argument("--serve-metrics", type=int, default=None,
                          metavar="PORT",
                          help="serve /metrics, /healthz, /stats and "
                               "/freshness over HTTP while the campaign "
                               "runs (0 picks an ephemeral port)")
    simulate.add_argument("--serve-hold", type=float, default=0.0,
                          metavar="SECONDS",
                          help="keep the exporter up this long after the "
                               "run so it can be scraped (default: 0)")
    simulate.add_argument("--alert-rules", default=None, metavar="FILE",
                          help="evaluate this JSON SLO rule file on every "
                               "publish tick")
    _add_trace_flags(simulate)

    process = sub.add_parser("process", help="re-run the backend on stored trips")
    process.add_argument("--db", required=True, help="fingerprint database JSON")
    process.add_argument("--trips", required=True, help="uploads JSON Lines file")
    process.add_argument("--seed", type=int, default=7,
                         help="seed of the city the trips came from")
    process.add_argument("--metrics-out", default=None,
                         help="dump pipeline metrics + per-stage timings "
                              "(JSON, or Prometheus text for *.prom)")

    campaign = sub.add_parser(
        "campaign", help="run a multi-day sparse+intensive campaign"
    )
    campaign.add_argument("--sparse-days", type=int, default=2)
    campaign.add_argument("--intensive-days", type=int, default=2)
    campaign.add_argument("--sparse-rate", type=float, default=0.03)
    campaign.add_argument("--intensive-rate", type=float, default=0.25)
    campaign.add_argument("--start", default="07:30")
    campaign.add_argument("--end", default="09:30")
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--metrics-out", default=None,
                          help="dump pipeline metrics + per-stage timings "
                               "(JSON, or Prometheus text for *.prom)")
    campaign.add_argument("--headway", type=float, default=None,
                          metavar="SECONDS",
                          help="dispatch headway override (default: config)")
    campaign.add_argument("--store", default=None, metavar="DIR",
                          help="durable state store: journal every upload "
                               "to a write-ahead ledger and snapshot the "
                               "backend, so a killed campaign can be "
                               "resumed (an append-log directory, created "
                               "if missing)")
    campaign.add_argument("--resume", action="store_true",
                          help="recover state from --store (snapshot + WAL "
                               "replay) and continue the campaign where a "
                               "previous process stopped")
    campaign.add_argument("--snapshot-every", type=int, default=None,
                          metavar="N",
                          help="snapshot cadence in WAL records, checked at "
                               "day boundaries (default: config; 0 disables "
                               "automatic snapshots)")
    campaign.add_argument("--fsync", default=None,
                          choices=["always", "batch", "never"],
                          help="store fsync policy (default: config "
                               "'batch')")
    campaign.add_argument("--golden-out", default=None, metavar="FILE",
                          help="write the canonical golden trace of the "
                               "final backend state (crash-recovery tests "
                               "diff this byte-for-byte)")
    campaign.add_argument("--alert-rules", default=None, metavar="FILE",
                          help="evaluate this JSON SLO rule file on every "
                               "publish tick")
    _add_trace_flags(campaign)

    sub.add_parser("power", help="print the Table III power model")

    stats = sub.add_parser(
        "stats", help="render a --metrics-out document as a report"
    )
    stats.add_argument("metrics",
                       help="metrics document written by --metrics-out "
                            "(JSON, or Prometheus text for *.prom)")
    stats.add_argument("--slow-trip-ms", type=float, default=50.0,
                       metavar="MS",
                       help="print a tracing hint when a slow-trip exemplar "
                            "exceeds this duration (default: 50)")

    alerts = sub.add_parser(
        "alerts", help="lint an SLO rule file; evaluate it against metrics"
    )
    alerts.add_argument("rules", help="JSON alert-rule file")
    alerts.add_argument("--metrics", default=None,
                        help="evaluate the rules against this --metrics-out "
                             "document (JSON or *.prom); exit 1 if any fire")
    alerts.add_argument("--slow-trip-ms", type=float, default=50.0,
                        metavar="MS",
                        help="print a tracing hint when a slow-trip exemplar "
                             "in the metrics document exceeds this duration "
                             "(default: 50)")

    trace = sub.add_parser(
        "trace",
        help="summarize / validate a --trace-out Chrome trace-event file",
    )
    trace.add_argument("trace", help="trace JSON written by --trace-out "
                                     "(or fetched from /trace)")
    trace.add_argument("--summary", action="store_true",
                       help="print the self-time breakdown (the default "
                            "output; kept explicit for scripts)")
    trace.add_argument("--validate", action="store_true",
                       help="only check the trace-event schema; exit 1 on "
                            "problems, print nothing else")
    trace.add_argument("--top", type=int, default=5,
                       help="slowest keyed spans shown (default: 5)")

    analytics = sub.add_parser(
        "analytics",
        help="fleet-health report: headways/bunching/EWT, ghost buses, "
             "O-D flows",
    )
    analytics.add_argument("--metrics", default=None, metavar="FILE",
                           help="render from a saved --metrics-out document "
                                "(JSON or *.prom) instead of running a "
                                "campaign")
    analytics.add_argument("--start", default="07:30")
    analytics.add_argument("--end", default="09:30")
    analytics.add_argument("--seed", type=int, default=7)
    analytics.add_argument("--headway", type=float, default=None,
                           help="dispatch headway in seconds")
    analytics.add_argument("--routes", nargs="*", default=None,
                           help="route ids (default: all)")
    analytics.add_argument("--top-flows", type=int, default=10,
                           help="O-D pairs shown in the flow table "
                                "(default: 10)")
    analytics.add_argument("--json-out", default=None, metavar="FILE",
                           help="also write the fleet-health report as JSON")

    conformance = sub.add_parser(
        "conformance",
        help="differentially test core/ vs the spec-literal oracles and "
             "check (or re-record) the golden end-to-end trace",
    )
    conformance.add_argument("--scenarios", type=int, default=25,
                             help="randomized scenarios per estimator "
                                  "(default: 25)")
    conformance.add_argument("--seed", type=int, default=0,
                             help="base seed for scenario generation")
    conformance.add_argument("--record", action="store_true",
                             help="re-record the golden fixture instead of "
                                  "checking against it")
    conformance.add_argument("--check", action="store_true",
                             help="check the golden trace (the default; "
                                  "kept explicit for scripts)")
    conformance.add_argument("--no-golden", action="store_true",
                             help="differential scenarios only, skip the "
                                  "golden end-to-end runs")
    conformance.add_argument("--fixture", default=None,
                             help="golden trace path (default: the committed "
                                  "tests/golden/campaign_small.json)")
    conformance.add_argument("--diff-out", default=None, metavar="FILE",
                             help="write golden-trace diff lines here on "
                                  "mismatch (CI artifact)")
    conformance.add_argument("--report-out", default=None, metavar="FILE",
                             help="write the full conformance report as JSON")
    return parser


def _ingest_config(args: argparse.Namespace):
    """A SystemConfig honouring the durable-store flags."""
    from dataclasses import replace

    from repro.config import SystemConfig

    config = SystemConfig()
    ingest = config.ingest
    if getattr(args, "snapshot_every", None) is not None:
        ingest = replace(ingest, store_snapshot_every=args.snapshot_every)
    if getattr(args, "fsync", None) is not None:
        ingest = replace(ingest, store_fsync=args.fsync)
    if ingest is not config.ingest:
        config = replace(config, ingest=ingest)
    return config


def _add_trace_flags(command: argparse.ArgumentParser) -> None:
    """The span-retention flag shared by ``simulate`` and ``campaign``."""
    command.add_argument("--trace-out", default=None, metavar="FILE",
                         help="retain span records and write them as Chrome "
                              "trace-event JSON (load in Perfetto / "
                              "chrome://tracing, or `repro trace FILE`)")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.obs import configure as configure_logging

    configure_logging(level=args.log_level, json=args.log_json)
    handler = {
        "build-city": _cmd_build_city,
        "survey": _cmd_survey,
        "simulate": _cmd_simulate,
        "process": _cmd_process,
        "campaign": _cmd_campaign,
        "power": _cmd_power,
        "stats": _cmd_stats,
        "alerts": _cmd_alerts,
        "analytics": _cmd_analytics,
        "conformance": _cmd_conformance,
        "trace": _cmd_trace,
    }[args.command]
    return handler(args)


def _observability_for(tracing: bool, retain: bool = False):
    """A (registry, tracer) pair: the tracer records when asked to.

    With ``retain`` (``--trace-out``) the tracer also keeps span records
    for Chrome trace-event export; with plain ``tracing=True`` it
    aggregates per-stage timings only; otherwise the no-op
    :data:`NULL_TRACER` keeps the hot path free.
    """
    from repro.obs import MetricsRegistry, NULL_TRACER, Tracer

    if retain or tracing:
        return MetricsRegistry(), Tracer(retain=retain)
    return MetricsRegistry(), NULL_TRACER


def _write_trace(path: str, tracer) -> None:
    """Dump the retained spans as a Chrome trace-event JSON file."""
    document = tracer.chrome_trace()
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out)
    events = len(document.get("traceEvents", []))
    dropped = getattr(tracer, "records_dropped", 0)
    dropped_note = (
        f" ({dropped} dropped past the record budget)" if dropped else ""
    )
    print(f"wrote {events} trace events -> {path}{dropped_note}")
    print(f"  view: load {path} in Perfetto (ui.perfetto.dev) or "
          f"chrome://tracing; summarize: repro trace {path}")


def _alert_engine_for(path: Optional[str], registry, server):
    """Load a rule file and attach an engine to the server (or exit)."""
    if not path:
        return None
    from repro.obs import AlertEngine, load_rules

    try:
        rules = load_rules(path)
    except (OSError, ValueError) as exc:
        print(f"alert rules: {exc}", file=sys.stderr)
        raise SystemExit(2)
    engine = AlertEngine(rules, registry=registry)
    server.attach_alerts(engine)
    return engine


def _print_alert_status(engine) -> None:
    """One line per standing alert after a run (or an all-clear)."""
    if engine is None:
        return
    active = engine.active
    if not active:
        print("alerts: none active at end of run")
        return
    print(f"alerts: {len(active)} active at end of run")
    for event in active:
        labels = ",".join(f"{k}={v}" for k, v in event.labels)
        where = f"{{{labels}}}" if labels else ""
        print(f"  [{event.severity}] {event.rule}{where} "
              f"value={event.value:g} threshold={event.threshold:g}")


def _write_metrics(path: str, command: str, server, registry, tracer) -> None:
    """Dump the pipeline's metrics document (JSON or Prometheus text)."""
    if path.endswith(".prom"):
        with open(path, "w", encoding="utf-8") as out:
            out.write(registry.render_prometheus())
    else:
        document = {
            "command": command,
            "stats": server.stats.as_dict(),
            "stages": tracer.stage_stats(),
            # Denominator for the stats "% of wall" column: wall seconds
            # under the tracer's top-level spans.  0.0 when untraced.
            "wall_s": getattr(tracer, "wall_s", 0.0),
            "metrics": registry.as_dict(),
        }
        exemplars = tracer.exemplar_summaries()
        if exemplars:
            document["exemplars"] = exemplars
        with open(path, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=2)
    print(f"wrote pipeline metrics -> {path}")


def _cmd_build_city(args: argparse.Namespace) -> int:
    from repro.city import CitySpec, build_city
    from repro.city.gtfs import export_city

    city = build_city(CitySpec(seed=args.seed))
    export_city(city, args.out)
    print(f"wrote GTFS feed to {args.out}: "
          f"{len(city.registry.stations)} stations, "
          f"{len(city.route_network.routes)} directed routes, "
          f"{100 * city.route_coverage_ratio():.0f}% road coverage")
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.sim.world import World
    from repro.wire import save_database

    world = World(seed=args.seed, survey_samples_per_stop=args.samples_per_stop)
    save_database(world.database, args.out)
    print(f"surveyed {len(world.database)} stop fingerprints -> {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.world import World
    from repro.util.units import parse_hhmm
    from repro.wire import dump_trips, snapshot_to_geojson

    registry, tracer = _observability_for(
        bool(args.metrics_out) or args.serve_metrics is not None,
        retain=bool(args.trace_out),
    )
    world = World(seed=args.seed, config=_ingest_config(args),
                  registry=registry, tracer=tracer)
    server = world.server
    engine = _alert_engine_for(args.alert_rules, registry, server)

    exporter = None
    if args.serve_metrics is not None:
        from repro.obs import MetricsHTTPServer

        exporter = MetricsHTTPServer(
            registry,
            port=args.serve_metrics,
            stats_fn=lambda: {
                "command": "simulate",
                "stats": server.stats.as_dict(),
                "stages": tracer.stage_stats(),
            },
            freshness_fn=server.freshness.report,
            health_fn=lambda: {"trips_received": server.stats.trips_received},
            fleet_fn=(
                server.analytics.report
                if server.analytics is not None else None
            ),
            trace_fn=(
                tracer.chrome_trace
                if getattr(tracer, "retaining", False) else None
            ),
        )
        port = exporter.start()
        print(f"serving metrics on http://127.0.0.1:{port}/metrics")
    try:
        result = world.run(
            parse_hhmm(args.start),
            parse_hhmm(args.end),
            route_ids=args.routes,
            headway_s=args.headway,
            with_official_feed=False,
        )
        stats = world.server.stats
        snapshot = server.traffic_map.published_snapshot(parse_hhmm(args.end))
        print(f"campaign {args.start}-{args.end}: {len(result.traces)} "
              f"bus trips, {stats.trips_received} uploads, "
              f"{stats.trips_mapped} mapped")
        print(f"map: {100 * snapshot.coverage:.0f}% coverage, "
              f"mean {snapshot.mean_speed_kmh():.1f} km/h")
        _print_alert_status(engine)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                json.dump(snapshot_to_geojson(snapshot, world.city.network), out)
            print(f"wrote map snapshot -> {args.out}")
        if args.trips_out:
            with open(args.trips_out, "w", encoding="utf-8") as out:
                dump_trips(result.uploads, out)
            print(f"wrote {len(result.uploads)} uploads -> {args.trips_out}")
        if args.metrics_out:
            _write_metrics(args.metrics_out, "simulate", server, registry, tracer)
        if args.trace_out:
            _write_trace(args.trace_out, tracer)
        if exporter is not None and args.serve_hold > 0:
            import time

            print(f"holding exporter open for {args.serve_hold:g}s "
                  f"(ctrl-c to stop early)")
            try:
                time.sleep(args.serve_hold)
            except KeyboardInterrupt:
                pass
    finally:
        if exporter is not None:
            exporter.stop()
    return 0


def _cmd_process(args: argparse.Namespace) -> int:
    from repro.core import BackendServer
    from repro.sim.world import World
    from repro.wire import load_database, load_trips

    database = load_database(args.db)
    with open(args.trips, encoding="utf-8") as handle:
        uploads = load_trips(handle)
    registry, tracer = _observability_for(args.metrics_out)
    world = World(seed=args.seed)
    server = BackendServer(
        world.city.network, world.city.route_network, database, world.config,
        registry=registry, tracer=tracer,
    )
    server.receive_trips(uploads)
    stats = server.stats
    # Duplicate uploads never count into samples_received, so report their
    # samples separately instead of printing discarded > received.
    discarded = stats.samples_discarded - stats.samples_duplicate
    dup_note = (
        f", {stats.trips_duplicate} duplicate trips dropped"
        if stats.trips_duplicate else ""
    )
    print(f"processed {stats.trips_received} trips: {stats.trips_mapped} mapped, "
          f"{discarded}/{stats.samples_received} samples discarded, "
          f"{stats.segments_updated} segment updates{dup_note}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, "process", server, registry, tracer)
    return 0


def _load_metrics_document(path: str) -> dict:
    """Read a ``--metrics-out`` file; ``.prom`` is parsed back to JSON shape."""
    if path.endswith(".prom"):
        from repro.obs import parse_prometheus_text

        with open(path, encoding="utf-8") as handle:
            families = parse_prometheus_text(handle.read())
        return _document_from_families(families)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _render_pairs(labels: dict) -> str:
    from repro.obs import escape_label_value

    return ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )


def _document_from_families(families: dict) -> dict:
    """Re-shape parsed Prometheus families into a --metrics-out document."""
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    labeled: dict = {}
    for name, family in sorted(families.items()):
        kind = family.get("type") or "gauge"
        samples = family.get("samples", [])
        if kind == "histogram":
            flat = {"count": 0, "sum": 0.0}
            children: dict = {}
            labelnames = sorted(
                {k for _, ls, _ in samples for k in ls if k != "le"}
            )
            for sample_name, labels, value in samples:
                base = {k: v for k, v in labels.items() if k != "le"}
                target = (
                    children.setdefault(
                        _render_pairs(base), {"count": 0, "sum": 0.0}
                    )
                    if base else flat
                )
                if sample_name.endswith("_count"):
                    target["count"] = int(value)
                elif sample_name.endswith("_sum"):
                    target["sum"] = value
            if labelnames:
                labeled[name] = {"type": "histogram", "labels": labelnames,
                                 "overflow_total": 0, "children": children}
            else:
                histograms[name] = flat
        else:
            flat_target = counters if kind == "counter" else gauges
            children = {}
            for _, labels, value in samples:
                if labels:
                    children[_render_pairs(labels)] = value
                else:
                    flat_target[name] = value
            if children:
                labelnames = sorted({k for _, ls, _ in samples for k in ls})
                labeled[name] = {"type": kind, "labels": labelnames,
                                 "overflow_total": 0, "children": children}
    return {
        "command": "prometheus",
        "metrics": {"counters": counters, "gauges": gauges,
                    "histograms": histograms, "labeled": labeled},
    }


def _slow_trip_hint(document: dict, threshold_ms: float) -> Optional[str]:
    """A one-line tracing pointer when slow-trip exemplars breach the bar.

    Exemplars land in the metrics document only for runs that retained
    spans, so the hint surfaces latency outliers in the operator
    surfaces (``stats`` / ``alerts``) without anyone asking for them.
    """
    exemplars = document.get("exemplars") or []
    slow = [
        e for e in exemplars
        if 1e3 * e.get("duration_s", 0.0) >= threshold_ms
    ]
    if not slow:
        return None
    worst = max(e.get("duration_s", 0.0) for e in slow)
    return (f"hint: {len(slow)} slow-trip exemplar(s) over {threshold_ms:g} ms "
            f"(worst {1e3 * worst:.1f} ms) — re-run with --trace-out "
            f"trace.json and inspect with `repro trace --summary trace.json`")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.eval.reporting import render_table

    # A missing or unparseable metrics file is an operator mistake, not a
    # crash: report what went wrong on stderr and exit 2, no traceback.
    try:
        document = _load_metrics_document(args.metrics)
    except OSError as exc:
        print(f"stats: cannot read {args.metrics}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"stats: {args.metrics} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"stats: {args.metrics} is not valid Prometheus text: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(document, dict):
        print(f"stats: {args.metrics} is not a metrics document "
              f"(expected a JSON object, got {type(document).__name__})",
              file=sys.stderr)
        return 2

    sections: List[str] = []
    stats = document.get("stats", {})
    if stats:
        sections.append(render_table(
            ["counter", "value"],
            [[name, value] for name, value in stats.items()],
            title=f"Server pipeline counters ({document.get('command', '?')})",
        ))

    stages = document.get("stages", {})
    if stages:
        # Wall seconds under the tracer's top-level spans; nested stages
        # are counted inside their parents too, so shares can sum past
        # 100%.
        wall_s = document.get("wall_s", 0.0)
        rows = []
        for name, timing in sorted(
            stages.items(), key=lambda kv: -kv[1].get("total_s", 0.0)
        ):
            total_s = timing.get("total_s", 0.0)
            share = (
                f"{100 * total_s / wall_s:.1f}%" if wall_s > 0 else "-"
            )
            rows.append([
                name,
                timing.get("count", 0),
                f"{1e3 * total_s:.1f}",
                share,
                f"{1e3 * timing.get('mean_s', 0.0):.3f}",
                f"{1e3 * timing.get('max_s', 0.0):.3f}",
            ])
        title = "Per-stage span timings"
        if wall_s > 0:
            title += f" (wall {wall_s:.3f} s)"
        sections.append(render_table(
            ["stage", "count", "total (ms)", "% of wall", "mean (ms)",
             "max (ms)"],
            rows,
            title=title,
        ))

    exemplars = document.get("exemplars") or []
    if exemplars:
        rows = []
        for exemplar in exemplars:
            stage_parts = ", ".join(
                f"{stage} {1e3 * seconds:.1f}ms"
                for stage, seconds in list(
                    exemplar.get("stages", {}).items()
                )[:3]
            )
            rows.append([
                exemplar.get("key") or exemplar.get("name", "?"),
                f"{1e3 * exemplar.get('duration_s', 0.0):.1f}",
                stage_parts or "-",
            ])
        sections.append(render_table(
            ["trip", "total (ms)", "hottest stages"],
            rows,
            title="Slow-trip exemplars (tail retention)",
        ))
    hint = _slow_trip_hint(document, args.slow_trip_ms)
    if hint:
        sections.append(hint)

    metrics = document.get("metrics", {})
    extra_counters = {
        name: value
        for name, value in metrics.get("counters", {}).items()
        if name.replace("server_", "") not in stats
    }
    if extra_counters:
        sections.append(render_table(
            ["metric", "value"],
            [[name, value] for name, value in extra_counters.items()],
            title="Other counters",
        ))
    gauges = metrics.get("gauges", {})
    if gauges:
        sections.append(render_table(
            ["gauge", "value"],
            [[name, value] for name, value in sorted(gauges.items())],
            title="Gauges",
        ))
    histograms = metrics.get("histograms", {})
    if histograms:
        rows = []
        for name, data in histograms.items():
            count = data.get("count", 0)
            mean = data.get("sum", 0.0) / count if count else 0.0
            rows.append([name, count, f"{mean:.2f}"])
        sections.append(render_table(
            ["histogram", "observations", "mean"],
            rows,
            title="Histograms",
        ))
    labeled = metrics.get("labeled", {})
    if labeled:
        rows = []
        for name, family in sorted(labeled.items()):
            for rendered, value in sorted(family.get("children", {}).items()):
                if family.get("type") == "histogram":
                    count = value.get("count", 0)
                    mean = value.get("sum", 0.0) / count if count else 0.0
                    shown = f"{count} obs, mean {mean:.2f}"
                else:
                    shown = value
                rows.append([f"{name}{{{rendered}}}", shown])
            overflow = family.get("overflow_total", 0)
            if overflow:
                rows.append([f"{name} (beyond cardinality cap)", overflow])
        sections.append(render_table(
            ["labeled series", "value"],
            rows,
            title="Labeled families",
        ))

    if not sections:
        print("metrics document is empty", file=sys.stderr)
        return 2
    print("\n\n".join(sections))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.sim.campaign import Campaign, CampaignPhase
    from repro.sim.world import World

    # A golden trace without live metrics would compare empty dicts, so
    # --golden-out forces the real registry just like --metrics-out.
    registry, tracer = _observability_for(
        bool(args.metrics_out or args.golden_out), retain=bool(args.trace_out)
    )
    config = _ingest_config(args)
    store = None
    if args.store:
        from repro.store import open_store

        try:
            store = open_store(args.store, fsync=config.ingest.store_fsync)
        except (OSError, ValueError) as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        store.bind_observability(registry=registry, tracer=tracer)
    elif args.resume:
        print("--resume requires --store DIR", file=sys.stderr)
        return 2
    world = World(seed=args.seed, config=config,
                  registry=registry, tracer=tracer, store=store)
    engine = _alert_engine_for(args.alert_rules, registry, world.server)
    campaign = Campaign(world, start=args.start, end=args.end,
                        headway_s=args.headway)
    phases = []
    if args.sparse_days > 0:
        phases.append(
            CampaignPhase("sparse", args.sparse_days, args.sparse_rate)
        )
    if args.intensive_days > 0:
        phases.append(
            CampaignPhase("intensive", args.intensive_days, args.intensive_rate)
        )
    if not phases:
        print("nothing to run: both phases have zero days", file=sys.stderr)
        return 2
    try:
        result = campaign.run(phases, resume=args.resume)
    except ValueError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    print(f"{'day':<5} {'phase':<10} {'bus trips':>9} {'uploads':>8} "
          f"{'mapped':>7} {'coverage':>9}")
    for day in result.days:
        print(f"{day.day_index:<5} {day.phase:<10} {day.bus_trips:>9} "
              f"{day.uploads:>8} {day.trips_mapped:>7} "
              f"{100 * day.map_coverage:>8.0f}%")
    for phase in {p.name for p in phases}:
        print(f"mean uploads/day in {phase}: "
              f"{result.uploads_per_day(phase):.0f}")
    _print_alert_status(engine)
    if args.golden_out:
        from pathlib import Path

        from repro.testkit.golden import render_trace, trace_from_server

        trace_path = Path(args.golden_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            render_trace(trace_from_server(world.server)), encoding="utf-8"
        )
        print(f"wrote golden trace -> {args.golden_out}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, "campaign", world.server, registry,
                       tracer)
    if args.trace_out:
        _write_trace(args.trace_out, tracer)
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.obs import AlertEngine, lint_rules, load_rules, \
        samples_from_document

    problems = lint_rules(args.rules)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2
    rules = load_rules(args.rules)
    print(f"{args.rules}: {len(rules)} rule(s) OK")
    if not args.metrics:
        return 0

    document = _load_metrics_document(args.metrics)
    samples = samples_from_document(document)
    # A rule whose metric family never appears in the document is in a
    # third state: not healthy (nothing satisfied the SLO), not firing
    # (missing data is not evidence of ill health either) — report it
    # as no-data instead of silently counting it among the healthy.
    sample_names = {name for name, _, _ in samples}
    no_data = [rule for rule in rules if rule.metric not in sample_names]
    engine = AlertEngine(rules)
    # A static document is one persistent world state: repeat the pass
    # until every rule's `for` debounce could have elapsed.
    for tick in range(max(rule.for_count for rule in rules)):
        engine.evaluate(samples, now=float(tick))
    hint = _slow_trip_hint(document, args.slow_trip_ms)
    active = engine.active
    if not active:
        checked = len(rules) - len(no_data)
        print(f"{args.metrics}: {checked} rule(s) healthy, "
              f"{len(no_data)} no-data ({len(samples)} samples)"
              if no_data else
              f"{args.metrics}: all {len(rules)} rule(s) healthy "
              f"({len(samples)} samples)")
        for rule in no_data:
            print(f"  [no-data] {rule.name}: metric {rule.metric!r} "
                  f"absent from the document")
        if hint:
            print(hint)
        return 0
    print(f"{args.metrics}: {len(active)} alert(s) firing")
    for rule in no_data:
        print(f"  [no-data] {rule.name}: metric {rule.metric!r} "
              f"absent from the document")
    for event in active:
        labels = ",".join(f"{k}={v}" for k, v in event.labels)
        where = f"{{{labels}}}" if labels else ""
        print(f"  [{event.severity}] {event.rule}{where} "
              f"value={event.value:g} threshold={event.threshold:g}")
    if hint:
        print(hint)
    return 1


def _print_fleet_report(report: dict, source: str) -> None:
    """Render a fleet-health document as operator tables."""
    from repro.eval.reporting import render_table

    rows = []
    for route_id, row in sorted(report.get("routes", {}).items()):
        events = row.get("bus_events")
        headways = row.get("headways")
        mean = row.get("mean_headway_s")
        rows.append([
            route_id,
            events if events is not None else "-",
            headways if headways is not None else "-",
            f"{mean / 60:.1f}" if mean is not None else "-",
            f"{100 * row.get('bunching_rate', 0.0):.1f}%",
            f"{row.get('excess_wait_s', 0.0) / 60:.2f}",
            int(row.get("ghost_vehicles", 0)),
            f"{row.get('last_seen_age_s', 0.0) / 60:.1f}",
        ])
    title = "Fleet health"
    scheduled = report.get("scheduled_headway_s")
    if scheduled:
        title += f" (scheduled headway {scheduled / 60:g} min)"
    print(render_table(
        ["route", "bus events", "headways", "mean hdwy (min)",
         "bunching", "EWT (min)", "ghosts", "last seen (min)"],
        rows, title=title,
    ))
    ghost_routes = report.get("ghost_routes", [])
    print(f"ghost routes: "
          f"{', '.join(ghost_routes) if ghost_routes else 'none'}")

    od = report.get("od", {})
    flow_rows = [
        [flow["origin"], flow["dest"], flow["trips"]]
        for flow in od.get("top_flows", [])
    ]
    if flow_rows:
        print()
        print(render_table(
            ["origin stop", "dest stop", "trips"],
            flow_rows,
            title=f"Top O-D flows ({od.get('total_trips', 0)} trips over "
                  f"{od.get('distinct_pairs', 0)} pairs, "
                  f"{od.get('overflow_trips', 0)} beyond the pair cap)",
        ))
    print(f"source: {source}")


def _fleet_report_from_document(document: dict, top_k: int) -> dict:
    """Reconstruct a fleet-health report from a --metrics-out document.

    A saved snapshot only holds the exported label families, so the
    per-route rows carry the live gauges (bunching/EWT/ghosts) and the
    count of stops with an observed headway; the cumulative event
    totals only exist in a live campaign.
    """
    from repro.obs import samples_from_document

    routes: dict = {}
    flows: List[dict] = []
    od_total = od_overflow = od_counter = 0.0

    def row(route_id: str) -> dict:
        return routes.setdefault(route_id, {})

    for name, labels, value in samples_from_document(document):
        route_id = labels.get("route")
        if route_id == "_overflow":
            continue    # per-route families past the cardinality cap
        if name == "headway_seconds" and route_id is not None:
            entry = row(route_id)
            entry["headways"] = entry.get("headways", 0) + 1
            entry["_gap_sum"] = entry.get("_gap_sum", 0.0) + value
        elif name == "bunching_rate" and route_id is not None:
            row(route_id)["bunching_rate"] = value
        elif name == "excess_wait_seconds" and route_id is not None:
            row(route_id)["excess_wait_s"] = value
        elif name == "ghost_vehicles" and route_id is not None:
            row(route_id)["ghost_vehicles"] = value
        elif name == "ghost_last_seen_seconds" and route_id is not None:
            row(route_id)["last_seen_age_s"] = value
        elif name == "od_flow_trips":
            origin = labels.get("origin")
            dest = labels.get("dest")
            if origin in (None, "_overflow") or dest in (None, "_overflow"):
                od_overflow += value    # the shared `_overflow` child
            else:
                flows.append(
                    {"origin": origin, "dest": dest, "trips": int(value)}
                )
            od_total += value
        elif name == "fleet_od_trips_total":
            # Unlabeled running total; the family children normally sum
            # to the same number, so take whichever saw more (a snapshot
            # may omit either one).
            od_counter = value
    od_total = max(od_total, od_counter)

    for entry in routes.values():
        gap_sum = entry.pop("_gap_sum", None)
        if gap_sum is not None and entry.get("headways"):
            # Mean of each stop's *latest* gap, not the campaign mean.
            entry["mean_headway_s"] = gap_sum / entry["headways"]
    flows.sort(key=lambda f: (-f["trips"], f["origin"], f["dest"]))
    return {
        "routes": routes,
        "ghost_routes": sorted(
            route_id for route_id, entry in routes.items()
            if entry.get("ghost_vehicles", 0) >= 1
        ),
        "od": {
            "total_trips": int(od_total),
            "distinct_pairs": len(flows),
            "overflow_trips": int(od_overflow),
            "top_flows": flows[:top_k],
        },
    }


def _cmd_analytics(args: argparse.Namespace) -> int:
    if args.metrics:
        try:
            document = _load_metrics_document(args.metrics)
        except OSError as exc:
            print(f"analytics: cannot read {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        except (json.JSONDecodeError, ValueError) as exc:
            print(f"analytics: {args.metrics}: {exc}", file=sys.stderr)
            return 2
        report = _fleet_report_from_document(document, args.top_flows)
        if not report["routes"] and not report["od"]["total_trips"]:
            print(f"analytics: no fleet-health families in {args.metrics} "
                  f"(was the campaign run with analytics enabled and "
                  f"--metrics-out?)", file=sys.stderr)
            return 2
        source = args.metrics
    else:
        from repro.sim.world import World
        from repro.util.units import parse_hhmm

        world = World(seed=args.seed)
        if world.server.analytics is None:
            print("analytics: the fleet-health stage is disabled in this "
                  "configuration", file=sys.stderr)
            return 2
        end_s = parse_hhmm(args.end)
        result = world.run(
            parse_hhmm(args.start), end_s,
            route_ids=args.routes,
            headway_s=args.headway,
            with_official_feed=False,
        )
        report = world.server.analytics.report(end_s, top_k=args.top_flows)
        source = (f"campaign {args.start}-{args.end} seed={args.seed} "
                  f"({len(result.traces)} bus trips, "
                  f"{world.server.stats.trips_received} uploads)")
    _print_fleet_report(report, source)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2)
        print(f"wrote fleet-health report -> {args.json_out}")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testkit.conformance import run_conformance

    report = run_conformance(
        scenarios=args.scenarios,
        seed=args.seed,
        record=args.record,
        check=not args.no_golden,
        fixture=args.fixture,
    )
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as out:
            json.dump(report.as_dict(), out, indent=2)
        print(f"wrote conformance report -> {args.report_out}")
    if args.diff_out:
        diff_lines = report.golden_diff
        with open(args.diff_out, "w", encoding="utf-8") as out:
            out.write("\n".join(diff_lines) + ("\n" if diff_lines else ""))
        if diff_lines:
            print(f"wrote golden-trace diff -> {args.diff_out}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_trace_summary,
        summarize_chrome_trace,
        validate_chrome_trace,
    )

    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"trace: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"trace: {args.trace} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2

    problems = validate_chrome_trace(document)
    if problems:
        print(f"{args.trace}: {len(problems)} schema problem(s)",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        if len(problems) > 20:
            print(f"  ... and {len(problems) - 20} more", file=sys.stderr)
        return 1
    if args.validate:
        events = len(document.get("traceEvents", []))
        print(f"{args.trace}: OK ({events} events)")
        return 0
    summary = summarize_chrome_trace(document, top=args.top)
    print(format_trace_summary(summary))
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.phone.power import PowerModel, TABLE_III_SETTINGS

    model = PowerModel()
    table = model.table_iii(rng=0, sessions=5)
    print(f"{'sensor setting':<26} {'HTC (mW)':>10} {'Nexus (mW)':>11}")
    for label, _ in TABLE_III_SETTINGS:
        htc, _ = table[label]["htc"]
        nexus, _ = table[label]["nexus"]
        print(f"{label:<26} {htc:>10.0f} {nexus:>11.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
