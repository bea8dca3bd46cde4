"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so per-process
memos are paid inside the run's own ``setup_s`` and never make a later
run look faster.  It prints one JSON object on its last stdout line.

    python3 yardstick/child.py --workload ingest_durable --seed 7 \
        --budget 8 --traced 0 --t0 <time.monotonic() at spawn>

``--generate`` instead writes the ingest stream for ``--seed`` to the
cache and prints nothing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stream  # noqa: E402
from layers import LayerTracer  # noqa: E402

#: ``sim_rush`` campaign windows, one per child of a run: together the
#: first two hours of the 07:00-10:00 yardstick, all 16 routes.  The
#: full window takes ~50 s here; split, each part pays its own
#: ``World(seed)`` in a fresh interpreter, and a run covers three times
#: the uploads one repeated part would, which evens out how much work a
#: seed's uploads carry.
SIM_WINDOWS = (("07:00", "07:40"), ("07:40", "08:20"), ("08:20", "09:00"))
#: Replay passes per ingest child, at least; more while the budget lasts.
MIN_PASSES = 2
WORK_DIR = ROOT / ".yardstick_work"


def sim_rush(args, tracer):
    """``World(seed)`` then ``World.run`` over one of :data:`SIM_WINDOWS`."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.world import World
    from repro.util.units import parse_hhmm

    world = World(seed=args.seed, registry=MetricsRegistry() if tracer else None)
    server = world.server
    receive = server.receive_trip
    latencies, seen = [], set()
    calls = 0

    def timed_receive(upload, now_s=None, **kwargs):
        nonlocal calls
        t0 = time.perf_counter()
        report = receive(upload, now_s, **kwargs)
        elapsed = time.perf_counter() - t0
        calls += 1
        if upload.trip_key not in seen:
            seen.add(upload.trip_key)
            latencies.append(elapsed)
        return report

    server.receive_trip = timed_receive
    setup_s = time.monotonic() - args.t0
    attributed0 = tracer.attributed_s() if tracer else 0.0
    t0 = time.perf_counter()
    start, end = SIM_WINDOWS[args.part]
    result = world.run(parse_hhmm(start), parse_hhmm(end), with_official_feed=False)
    wall = time.perf_counter() - t0
    attributed = (tracer.attributed_s() - attributed0) if tracer else 0.0
    delivered = len(result.uploads)
    failures = [] if tracer else checks.sim_rush_failures(result, calls)
    out = {
        "setup_s": setup_s,
        "timed_s": [wall],
        "uploads": [delivered],
        "latencies_s": latencies,
        "attempted": delivered,
        "failed": delivered if failures else 0,
        "failures": failures,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, server.registry, wall, attributed, 0.0)
    return out


def _replay(server, events, first, latencies):
    """Feed the stream to ``server``; returns (wall seconds, ops raised).

    ``maybe_snapshot`` runs at every publish tick and at the end, the
    quiescent points of a serial server; the store's cadence decides
    whether it writes (a no-op without a store).
    """
    failed = 0
    t_start = time.perf_counter()
    for (kind, at, upload), is_first in zip(events, first):
        try:
            if kind == "publish":
                server.publish(at)
                server.maybe_snapshot()
            else:
                t0 = time.perf_counter()
                server.receive_trip(upload, now_s=at)
                if is_first:
                    latencies.append(time.perf_counter() - t0)
        except Exception:
            if not failed:
                traceback.print_exc()
            failed += 1
    server.maybe_snapshot()
    return time.perf_counter() - t_start, failed


def ingest_durable(args, tracer):
    """Replay the recorded stream into fresh journaling servers, each
    followed by recovery into another fresh server."""
    from repro.city.builder import build_city
    from repro.config import SystemConfig
    from repro.core.server import BackendServer
    from repro.obs.metrics import MetricsRegistry
    from repro.store import open_store

    events, database, resent, expected = stream.load(stream.stream_path(args.seed))
    seen = set()
    first = []
    for kind, _, upload in events:
        first.append(kind == "trip" and upload.trip_key not in seen)
        if kind == "trip":
            seen.add(upload.trip_key)
    trips = sum(1 for kind, _, _ in events if kind == "trip")
    city = build_city()
    config = SystemConfig()

    def new_server(path):
        """A server journaling to the append-log store at ``path``."""
        store = open_store(path)
        registry = MetricsRegistry() if tracer else None
        if registry is not None:
            store.bind_observability(registry=registry)
        return BackendServer(
            city.network, city.route_network, database, config,
            registry=registry, store=store,
        )

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))

    out = {
        "timed_s": [], "uploads": [], "latencies_s": [],
        "attempted": 0, "failed": 0, "failures": [],
    }
    try:
        path = str(work / "s0")
        server = new_server(path)
        out["setup_s"] = time.monotonic() - args.t0
        passes = 0
        while True:
            attributed0 = tracer.attributed_s() if tracer else 0.0
            wall, raised = _replay(server, events, first, out["latencies_s"])
            attributed = (tracer.attributed_s() - attributed0) if tracer else 0.0
            out["timed_s"].append(wall)
            out["uploads"].append(trips)
            failures = [] if tracer else checks.replay_failures(server, expected, resent)
            server.store.close()
            t0 = time.perf_counter()
            recovered = new_server(path)
            recovered.recover()
            recover_s = time.perf_counter() - t0
            recovered.store.close()
            if not tracer:
                failures += checks.recovery_failures(server, recovered)
            shutil.rmtree(path)
            out["attempted"] += trips
            out["failed"] += trips if failures else raised
            out["failures"] += failures
            passes += 1
            if tracer:
                out["layers"] = layer_metrics(
                    tracer, server.registry, wall, attributed, recover_s
                )
                break
            if passes >= MIN_PASSES and sum(out["timed_s"]) >= args.budget:
                break
            path = str(work / f"s{passes}")
            server = new_server(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def layer_metrics(tracer, registry, wall, attributed, recover_s):
    """The per-layer metrics of one traced child."""
    busy, own, n = tracer.busy, tracer.self_time, tracer.counts

    def counter(name):
        return registry.counter(name).value

    def ratio(a, b):
        return a / b if b else 0.0

    hits = counter("match_cache_hits_total")
    misses = counter("match_cache_misses_total")
    return {
        "survey.scans": n["survey.scans"],
        "survey.busy_s": busy["survey"],
        "radio.scans": n["radio.scans"],
        "radio.busy_s": busy["radio"],
        "radio.us_per_scan": 1e6 * ratio(busy["radio"], n["radio.scans"]),
        "bus.trips": n["bus.trips"],
        "bus.busy_s": busy["bus"],
        "phone.rides": n["phone.rides"],
        "phone.uploads": n["phone.uploads"],
        "phone.self_s": own["phone"],
        "uplink.busy_s": busy["uplink"],
        "uplink.lost": n["uplink.lost"],
        "match.samples": n["match.samples"],
        "match.busy_s": busy["match"],
        "match.accept_ratio": ratio(n["match.accepted"], n["match.samples"]),
        "match.memo_hit_ratio": ratio(hits, hits + misses),
        "match.memo_evictions": counter("match_cache_evictions_total"),
        "cluster.clusters": n["cluster.clusters"],
        "cluster.busy_s": busy["cluster"],
        "trip_map.mapped_ratio": ratio(n["trip_map.mapped"], n["trip_map.calls"]),
        "trip_map.busy_s": busy["trip_map"],
        "apply.trips": n["apply.trips"],
        "apply.duplicates": n["apply.duplicates"],
        "apply.self_s": own["apply"],
        "publish.ticks": n["publish.ticks"],
        "publish.busy_s": busy["publish"],
        "store.appends": n["store.appends"],
        "store.append_s": busy["store.append"],
        "store.wal_bytes": counter("store_wal_bytes_total"),
        "store.snapshot_s": busy["store.snapshot"],
        "store.snapshot_bytes": counter("store_snapshot_bytes_total"),
        "store.load_s": busy["store.load"],
        "store.replayed": n["store.replayed"],
        "store.replay_s": busy["store.replay"],
        "store.recover_s": recover_s,
        "timed_wall_s": wall,
        "unattributed_s": wall - attributed,
        "attributed_ratio": ratio(attributed, wall),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_rush", "ingest_durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, choices=range(len(SIM_WINDOWS)),
                        default=0, help="sim_rush: which campaign window")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="ingest: keep replaying until this many timed seconds")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--generate", action="store_true",
                        help="write the ingest stream for --seed and exit")
    args = parser.parse_args(argv)
    if args.generate:
        stream.generate(args.seed, stream.stream_path(args.seed))
        return 0
    if args.t0 is None:
        args.t0 = time.monotonic()
    tracer = LayerTracer().install() if args.traced else None
    try:
        if args.workload == "sim_rush":
            out = sim_rush(args, tracer)
        else:
            out = ingest_durable(args, tracer)
    finally:
        if tracer:
            tracer.remove()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
