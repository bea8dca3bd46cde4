"""Ingest-path matching throughput, diffed against the oracle.

One campaign's uploads are generated once, then their cellular samples
are re-matched upload by upload (``match_many``, exactly as ingest
calls it) by the one production matcher: incidence plan, pruned
kernel.  It runs ``PASSES`` passes, each with a fresh matcher as a new
server builds it; the report keeps the first and the best pass.
Before any number is published, every
verdict (station, score bits, common ids) and the logical candidate-pool
accounting (``matcher_pairs_scored``) are compared exactly against
:class:`repro.testkit.OracleMatcher`'s whole-database scan — the bench
exits nonzero rather than report a speed bought with a wrong verdict.

Results land in ``benchmarks/reports/BENCH_matching.json`` (plus a
human-readable table in ``BENCH_matching.txt``).  ``--quick`` shrinks
the campaign for the CI smoke step.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_matching.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.match_index import canonical_key          # noqa: E402
from repro.core.matching import SampleMatcher             # noqa: E402
from repro.obs.metrics import MetricsRegistry             # noqa: E402
from repro.sim.world import World                         # noqa: E402
from repro.testkit import OracleMatcher                   # noqa: E402
from repro.util.units import parse_hhmm                   # noqa: E402

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

PASSES = 3


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


def _bench(world: World, batches, expected) -> List[float]:
    """PASSES sweeps, each with a fresh matcher, checked each time."""
    pass_seconds: List[float] = []
    for _ in range(PASSES):
        registry = MetricsRegistry()
        matcher = SampleMatcher(world.database.as_dict(),
                                world.config.matching, registry=registry)
        start = time.perf_counter()
        results = [matcher.match_many(batch) for batch in batches]
        pass_seconds.append(time.perf_counter() - start)
        _check(batches, results, registry, expected)
    return pass_seconds


def run(quick: bool = False, out: Optional[str] = None) -> Dict:
    world = World(seed=7)
    start, end = ("07:30", "08:15") if quick else ("07:00", "10:00")
    result = world.run(parse_hhmm(start), parse_hhmm(end),
                       with_official_feed=False)
    batches = [[s.tower_ids for s in u.samples] for u in result.uploads]
    samples = sum(len(b) for b in batches)
    expected, oracle_s = _oracle(world, batches)

    pass_seconds = _bench(world, batches, expected)
    best = min(pass_seconds)
    row = {
        "pass_seconds": [round(s, 6) for s in pass_seconds],
        "first_s": round(pass_seconds[0], 6),
        "best_s": round(best, 6),
        "samples_per_s": round(samples / best, 1),
        "us_per_sample": round(1e6 * best / samples, 2),
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

    os.makedirs(REPORT_DIR, exist_ok=True)
    out = out or os.path.join(REPORT_DIR, "BENCH_matching.json")
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
    lines.append(f"parity  every pass == oracle full scan "
                 f"({oracle_s:.1f} s for the unique sequences)")
    table = "\n".join(lines)
    print(f"===== matching ({'quick' if quick else 'default'} campaign) =====")
    print(table)
    with open(os.path.join(REPORT_DIR, "BENCH_matching.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(f"wrote {out}")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small campaign (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: "
                             "benchmarks/reports/BENCH_matching.json)")
    args = parser.parse_args(argv)
    run(quick=args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
