"""Scalability (§I, §V) — matching cost as the database grows.

The paper highlights "system scalability to support wider monitoring
field" as a design consideration: the backend must keep up as the
fingerprint database grows to cover more of the city.  This bench
ingests a small paper-scale workload (most trips must map) and measures
per-sample matching cost as the database grows from 50 to all stops,
within one run on one host: the incidence plan keeps candidates local,
so the cost should grow far slower than the database.

Ingest throughput is not measured here: the repo benchmark
(``yardstick/run.py``) carries it as ``trips_per_s`` on ``sim_rush``
and ``ingest_durable``, before and after, on one host.
"""

import itertools

import numpy as np

from conftest import BENCH_SEED, report
from repro.core import BackendServer, FingerprintDatabase, SampleMatcher
from repro.eval.reporting import render_table
from repro.phone import record_participant_trips
from repro.sim.bus import simulate_bus_trip
from repro.util.units import parse_hhmm

DB_SIZES = (50, 100, 172)


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


def matcher_cost_us(world, db_size, probes):
    station_ids = world.database.station_ids[:db_size]
    database = FingerprintDatabase()
    for station_id in station_ids:
        database.set_fingerprint(station_id, world.database.fingerprint(station_id))
    matcher = SampleMatcher(database.as_dict(), world.config.matching)

    import timeit

    loops = 5
    seconds = timeit.timeit(lambda: matcher.match_many(probes), number=loops)
    return 1e6 * seconds / (loops * len(probes))


def test_scalability(paper_world):
    uploads = build_workload(paper_world)
    n_samples = sum(len(u.samples) for u in uploads)
    server = ingest_all(paper_world, uploads)

    probes = [
        s.tower_ids for upload in uploads[:20] for s in upload.samples
    ][:300]
    per_sample = {size: matcher_cost_us(paper_world, size, probes) for size in DB_SIZES}

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
    )

    assert server.stats.trips_mapped > 0.7 * len(uploads)
    # Sub-linear matching growth: 3.4x the stops costs well under 3.4x.
    growth = per_sample[DB_SIZES[-1]] / per_sample[DB_SIZES[0]]
    assert growth < 2.5
