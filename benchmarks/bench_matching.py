"""Ingest-path matching throughput, diffed against the oracle.

One campaign's uploads are generated once, then their cellular samples
are re-matched upload by upload (``match_many``, exactly as ingest
calls it) by the one production matcher: incidence plan, pruning,
match-pattern table.  It runs ``PASSES`` passes, each with a fresh
matcher as a new server builds it; the report keeps the first pass
(which builds the process's pattern table on its first batch) and the
best, the table's build time on its own, and how many ``_sw_kernel``
calls a pass makes (pairs the table cannot answer).
Before any number is published, every
verdict (station, score bits, common ids) and the logical candidate-pool
accounting (``matcher_pairs_scored``) are compared exactly against
:class:`repro.testkit.OracleMatcher`'s whole-database scan — the bench
exits nonzero rather than report a speed bought with a wrong verdict.

Results land in ``benchmarks/reports/BENCH_matching.json`` plus a
human-readable table in ``BENCH_matching.txt`` beside it; ``--out``
moves both (the table takes the JSON path's stem).  ``--quick`` shrinks
the campaign for a smoke run, which should write elsewhere: the
committed report is a default run.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_matching.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import matching                           # noqa: E402
from repro.core.match_index import canonical_key          # noqa: E402
from repro.core.matching import SampleMatcher             # noqa: E402
from repro.obs.metrics import MetricsRegistry             # noqa: E402
from repro.sim.world import World                         # noqa: E402
from repro.testkit import OracleMatcher                   # noqa: E402
from repro.util.units import parse_hhmm                   # noqa: E402

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

PASSES = 3
#: Timed builds of the pattern table, outside the passes.
BUILDS = 3


def _oracle(world: World, batches) -> Tuple[Dict, float]:
    """Oracle (verdict, pool) per unique sequence, and its seconds."""
    oracle = OracleMatcher(world.database.as_dict(), world.config.matching)
    start = time.perf_counter()
    expected = {}
    for batch in batches:
        for sample in batch:
            key = canonical_key(sample)
            if key not in expected:
                expected[key] = oracle.match_with_pool(key)
    return expected, time.perf_counter() - start


def _check(batches, results, registry, expected) -> None:
    """Exact verdicts and pool accounting, or an AssertionError."""
    wrong = 0
    pairs = 0
    for batch, got in zip(batches, results):
        for sample, result in zip(batch, got):
            want, pool = expected[canonical_key(sample)]
            pairs += pool
            if (result.station_id, result.score.hex(), result.common_ids) != (
                want.station_id, want.score.hex(), want.common_ids
            ):
                wrong += 1
    counted = registry.counter("matcher_pairs_scored").value
    if wrong or counted != pairs:
        raise AssertionError(
            f"the matcher diverged from the oracle: {wrong} verdicts differ, "
            f"matcher_pairs_scored {counted} != oracle pools {pairs}"
        )


def _bench(world: World, batches, expected) -> Tuple[List[float], List[int]]:
    """PASSES sweeps, each with a fresh matcher, checked each time; the
    first builds the pattern table.  Returns each pass's seconds and
    ``_sw_kernel`` calls."""
    pass_seconds: List[float] = []
    kernel_calls: List[int] = []
    kernel = matching._sw_kernel
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return kernel(*args)

    matching._PATTERN_TABLES.clear()
    matching._sw_kernel = counting
    try:
        for _ in range(PASSES):
            registry = MetricsRegistry()
            matcher = SampleMatcher(world.database.as_dict(),
                                    world.config.matching, registry=registry)
            calls[0] = 0
            start = time.perf_counter()
            results = [matcher.match_many(batch) for batch in batches]
            pass_seconds.append(time.perf_counter() - start)
            kernel_calls.append(calls[0])
            _check(batches, results, registry, expected)
    finally:
        matching._sw_kernel = kernel
    return pass_seconds, kernel_calls


def _table_build_seconds(world: World) -> float:
    """Best of BUILDS timed builds of the pattern table."""
    config = world.config.matching
    seconds = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        matching._build_pattern_table(
            config.match_score, config.mismatch_penalty, config.gap_penalty
        )
        seconds.append(time.perf_counter() - start)
    return min(seconds)


def run(quick: bool = False, out: Optional[str] = None) -> Dict:
    world = World(seed=7)
    start, end = ("07:30", "08:15") if quick else ("07:00", "10:00")
    result = world.run(parse_hhmm(start), parse_hhmm(end),
                       with_official_feed=False)
    batches = [[s.tower_ids for s in u.samples] for u in result.uploads]
    samples = sum(len(b) for b in batches)
    expected, oracle_s = _oracle(world, batches)

    pass_seconds, kernel_calls = _bench(world, batches, expected)
    build_s = _table_build_seconds(world)
    best = min(pass_seconds)
    row = {
        "pass_seconds": [round(s, 6) for s in pass_seconds],
        "first_s": round(pass_seconds[0], 6),
        "best_s": round(best, 6),
        "samples_per_s": round(samples / best, 1),
        "us_per_sample": round(1e6 * best / samples, 2),
        "table_build_ms": round(1e3 * build_s, 2),
        "kernel_calls_per_pass": kernel_calls,
    }

    document = {
        "bench": "matching",
        "quick": quick,
        "campaign": {
            "seed": 7,
            "window": f"{start}-{end}",
            "uploads": len(batches),
            "samples": samples,
            "unique_sequences": len(expected),
            "stops": len(world.database),
        },
        "passes": PASSES,
        "parity": "verdicts (score bits) and matcher_pairs_scored == "
                  "OracleMatcher full scan, exact, on every pass",
        "oracle_s": round(oracle_s, 3),
        "host_cpu_cores": os.cpu_count() or 1,
        "result": row,
    }

    out = out or os.path.join(REPORT_DIR, "BENCH_matching.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    lines = [
        f"uploads {len(batches)}  samples {samples}  "
        f"unique sequences {len(expected)}  stops {len(world.database)}  "
        f"host cores {document['host_cpu_cores']}",
        f"{'first (ms)':>10} {'best (ms)':>10} "
        f"{'samples/s':>10} {'us/sample':>10}",
        f"{1e3 * row['first_s']:>10.1f} {1e3 * row['best_s']:>10.1f} "
        f"{row['samples_per_s']:>10.0f} {row['us_per_sample']:>10.1f}",
    ]
    lines.append(f"pattern table build {row['table_build_ms']:.1f} ms "
                 f"(best of {BUILDS}; the first pass includes one)")
    lines.append("kernel calls per pass "
                 + " ".join(str(c) for c in kernel_calls))
    lines.append(f"parity  every pass == oracle full scan "
                 f"({oracle_s:.1f} s for the unique sequences)")
    table = "\n".join(lines)
    print(f"===== matching ({'quick' if quick else 'default'} campaign) =====")
    print(table)
    text = os.path.splitext(out)[0] + ".txt"
    with open(text, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(f"wrote {out} and {text}")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small campaign (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="JSON output path; the text table goes beside "
                             "it as .txt (default: "
                             "benchmarks/reports/BENCH_matching.json)")
    args = parser.parse_args(argv)
    run(quick=args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
