"""Fleet-analytics overhead: receive_trip throughput, stage on vs off.

The fleet-health stage (headways / ghosts / O-D flows) rides the hot
ingest loop: every mapped trip is folded into its trackers right after
leg estimation.  This bench generates one morning's uploads once, then
replays them into fresh backends with the stage enabled and disabled,
both on the null registry so only the analytics bookkeeping itself is
under the clock.  Target: under 5% overhead.

Run directly (``PYTHONPATH=src python benchmarks/bench_analytics.py``,
``--quick`` for the CI smoke) or through pytest.  A direct run writes
``benchmarks/reports/BENCH_analytics.{json,txt}`` (``--out`` moves both:
the table goes next to the JSON); the pytest run writes to a temporary
directory, so it never replaces the committed report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from repro.config import AnalyticsConfig, SystemConfig
from repro.core.server import BackendServer
from repro.sim.world import World
from repro.util.units import parse_hhmm

from conftest import REPORT_DIR

REPEATS = 5
OVERHEAD_TARGET = 0.05


def _config(enabled: bool) -> SystemConfig:
    return dataclasses.replace(
        SystemConfig(), analytics=AnalyticsConfig(enabled=enabled)
    )


def _fresh_server(world: World, enabled: bool) -> BackendServer:
    return BackendServer(
        world.city.network,
        world.city.route_network,
        world.database,
        _config(enabled),
    )


def _best_time(world: World, uploads, enabled: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        server = _fresh_server(world, enabled)
        start = time.perf_counter()
        server.receive_trips(uploads)
        best = min(best, time.perf_counter() - start)
    return best


def run(quick: bool = False, out: Optional[str] = None) -> dict:
    start, end = ("07:30", "08:15") if quick else ("07:00", "10:00")
    world = World(seed=7)
    result = world.run(parse_hhmm(start), parse_hhmm(end),
                       with_official_feed=False)
    uploads = result.uploads

    off_s = _best_time(world, uploads, enabled=False)
    on_s = _best_time(world, uploads, enabled=True)
    overhead = on_s / off_s - 1.0

    # Sanity: the enabled run actually produced fleet telemetry.
    probe = _fresh_server(world, enabled=True)
    probe.receive_trips(uploads)
    assert probe.analytics is not None
    fleet_events = len(probe.analytics.headways)
    od_trips = probe.analytics.od_flows.total_trips
    assert fleet_events > 0, "analytics-on run saw no bus events"

    document = {
        "campaign": f"{start}-{end}",
        "uploads": len(uploads),
        "repeats": REPEATS,
        "analytics_off_s": off_s,
        "analytics_on_s": on_s,
        "overhead": overhead,
        "overhead_target": OVERHEAD_TARGET,
        "fleet_bus_events": fleet_events,
        "fleet_od_trips": od_trips,
    }
    rows = [
        f"uploads replayed           {len(uploads)}",
        f"analytics off (baseline)   {off_s * 1e3:8.1f} ms   "
        f"{len(uploads) / off_s:8.0f} trips/s",
        f"analytics on               {on_s * 1e3:8.1f} ms   "
        f"{len(uploads) / on_s:8.0f} trips/s",
        f"overhead                   {100 * overhead:+8.1f} %   "
        f"(target < {100 * OVERHEAD_TARGET:.0f}%)",
        f"fleet products             {fleet_events} bus events, "
        f"{od_trips} O-D trips",
    ]
    table = "\n".join(rows)
    print(table)
    out = out or os.path.join(REPORT_DIR, "BENCH_analytics.json")
    with open(os.path.splitext(out)[0] + ".txt", "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    print(f"wrote {out}")
    if overhead > OVERHEAD_TARGET:
        print(f"WARNING: overhead {100 * overhead:.1f}% exceeds the "
              f"{100 * OVERHEAD_TARGET:.0f}% target", file=sys.stderr)
    return document


def test_analytics_overhead(tmp_path):
    # The quick campaign must not overwrite the committed full-campaign
    # report, so its JSON and table go to a temporary directory.
    out = tmp_path / "BENCH_analytics.json"
    run(quick=True, out=str(out))
    assert out.exists() and (tmp_path / "BENCH_analytics.txt").exists()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small campaign (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="JSON output path, the table is written next "
                             "to it (default: "
                             "benchmarks/reports/BENCH_analytics.json)")
    args = parser.parse_args(argv)
    run(quick=args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
