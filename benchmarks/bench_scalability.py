"""Scalability (§I, §V) — matching cost as the database grows.

The paper highlights "system scalability to support wider monitoring
field" as a design consideration: the backend must keep up as the
fingerprint database grows to cover more of the city.  This bench
ingests a small paper-scale workload (most trips must map) and measures
per-sample matching cost as the database grows from 50 to all stops,
within one run on one host: the incidence plan keeps candidates local,
so the cost should grow far slower than the database.

Each size's cost is the best of ``REPEATS`` timings of ``LOOPS``
passes, taken in turn across the sizes, so a slow spell on a shared
host does not land on one size alone.

Ingest throughput is not measured here: the repo benchmark
(``yardstick/run.py``) carries it as ``trips_per_s`` on ``sim_rush``
and ``ingest_durable``, before and after, on one host.

Run directly (``PYTHONPATH=src python benchmarks/bench_scalability.py``)
to refresh ``benchmarks/reports/scalability.txt``; the pytest run writes
its table to a temporary directory.
"""

import itertools
import timeit

import numpy as np

from conftest import BENCH_SEED, REPORT_DIR, report
from repro.core import BackendServer, FingerprintDatabase, SampleMatcher
from repro.eval.reporting import render_table
from repro.phone import record_participant_trips
from repro.sim.bus import simulate_bus_trip
from repro.util.units import parse_hhmm

DB_SIZES = (50, 100, 172)
REPEATS = 5
LOOPS = 5


def build_workload(world, n_trips=8):
    rng = np.random.default_rng(BENCH_SEED + 15)
    counter = itertools.count()
    uploads = []
    for k in range(n_trips):
        route = world.city.route_network.routes[k % 4]
        trace = simulate_bus_trip(
            route,
            parse_hhmm("08:00") + 600.0 * k,
            world.traffic,
            counter,
            rng=rng,
            bus_config=world.config.bus,
            rider_config=world.config.riders,
        )
        uploads.extend(
            record_participant_trips(
                trace, world.city.registry, world.sampler, world.config, rng=rng
            )
        )
    return uploads


def ingest_all(world, uploads):
    server = BackendServer(
        world.city.network, world.city.route_network, world.database, world.config
    )
    for upload in uploads:
        server.receive_trip(upload)
    return server


def build_matcher(world, db_size):
    station_ids = world.database.station_ids[:db_size]
    database = FingerprintDatabase()
    for station_id in station_ids:
        database.set_fingerprint(station_id, world.database.fingerprint(station_id))
    return SampleMatcher(database.as_dict(), world.config.matching)


def matcher_costs_us(world, probes):
    """Per-sample matching cost at each of ``DB_SIZES``, best of ``REPEATS``."""
    matchers = {size: build_matcher(world, size) for size in DB_SIZES}
    best = dict.fromkeys(DB_SIZES, float("inf"))
    for _ in range(REPEATS):
        for size, matcher in matchers.items():
            seconds = timeit.timeit(lambda: matcher.match_many(probes), number=LOOPS)
            best[size] = min(best[size], seconds)
    return {size: 1e6 * best[size] / (LOOPS * len(probes)) for size in DB_SIZES}


def run(world, report_dir=REPORT_DIR):
    uploads = build_workload(world)
    n_samples = sum(len(u.samples) for u in uploads)
    server = ingest_all(world, uploads)

    probes = [
        s.tower_ids for upload in uploads[:20] for s in upload.samples
    ][:300]
    per_sample = matcher_costs_us(world, probes)

    rows = [
        ["uploads ingested", len(uploads)],
        ["samples ingested", n_samples],
        ["trips mapped", server.stats.trips_mapped],
    ]
    for size in DB_SIZES:
        rows.append([f"matching cost @ {size}-stop DB (us/sample)",
                     round(per_sample[size], 1)])
    report(
        "scalability",
        render_table(
            ["metric", "value"],
            rows,
            title="Backend scalability — matching cost and DB growth",
        ),
        report_dir,
    )
    return uploads, server, per_sample


def test_scalability(paper_world, tmp_path):
    uploads, server, per_sample = run(paper_world, str(tmp_path))

    assert server.stats.trips_mapped > 0.7 * len(uploads)
    # Sub-linear matching growth: 3.4x the stops costs well under 3.4x.
    growth = per_sample[DB_SIZES[-1]] / per_sample[DB_SIZES[0]]
    assert growth < 2.5


if __name__ == "__main__":
    from repro.city import build_city
    from repro.sim.world import World

    run(World(city=build_city(), seed=BENCH_SEED))
