"""Shared benchmark fixtures: the paper-scale world and a full service day.

The heavy campaign (all 16 directed routes, 07:00–20:00) is simulated
once per benchmark session and shared by the Fig. 9/10/11 benches.
Every bench renders its paper-vs-measured rows with :func:`report`,
which both prints them and archives them under ``benchmarks/reports/``.
Benches whose rows hold wall-clock timings archive to a temporary
directory under pytest and to ``benchmarks/reports/`` only when run
directly, so a test run leaves the committed reports as they are.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.city import build_city
from repro.obs import MetricsRegistry, Tracer
from repro.sim.world import World
from repro.util.units import parse_hhmm

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: Worlds whose observability state gets dumped at session end, so
#: BENCH_*.json entries can carry per-stage breakdowns.
_TRACED_WORLDS = []

#: Seed for everything in the benchmark session.
BENCH_SEED = 7

DAY_START = parse_hhmm("07:00")
DAY_END = parse_hhmm("20:00")


def report(name: str, text: str, report_dir: str = REPORT_DIR) -> None:
    """Print a bench's table and archive it under ``report_dir``
    (default ``benchmarks/reports/``)."""
    print()
    print(f"===== {name} =====")
    print(text)
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, f"{name}.txt"), "w", encoding="utf-8") as out:
        out.write(text + "\n")


@pytest.fixture(scope="session")
def paper_city():
    return build_city()


@pytest.fixture(scope="session")
def paper_world(paper_city):
    world = World(
        city=paper_city, seed=BENCH_SEED,
        registry=MetricsRegistry(), tracer=Tracer(),
    )
    _TRACED_WORLDS.append(world)
    return world


def pytest_sessionfinish(session, exitstatus):
    """Dump per-stage pipeline timings from every traced bench world."""
    if not _TRACED_WORLDS:
        return
    document = {
        "worlds": [
            {
                "seed": world.seed,
                "stages": world.tracer.stage_stats(),
                "stats": world.server.stats.as_dict(),
                "metrics": world.registry.as_dict(),
            }
            for world in _TRACED_WORLDS
        ]
    }
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "stage_timings.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2)


@pytest.fixture(scope="session")
def day_result(paper_world):
    """One full service day over every route (the Fig. 9/10/11 campaign)."""
    return paper_world.run(DAY_START, DAY_END)


@pytest.fixture()
def bench_rng():
    return np.random.default_rng(BENCH_SEED)
