"""Verdict-memo sizing from data: reuse distances of the yardstick stream.

The matcher memoizes verdicts per RSS-ordered cell-id sequence
(:class:`repro.core.match_index.MatchCache`, an LRU).  Whether that
memo earns its keep, and how big it must be, is a property of the
upload stream, so this bench measures it on the benchmark's own
``ingest_durable`` stream (seed 7, 07:00–08:30; ``yardstick/stream.py``
generates and caches it):

* the **reuse-distance histogram** — for every sample, the number of
  distinct sequences seen since its sequence last occurred (LRU stack
  distance; a first occurrence is *cold*).  An LRU of ``C`` entries hits
  exactly the samples whose distance is below ``C``;
* the **hit ceiling** — every non-cold sample, the most any memo can
  hit on one pass;
* **measured** hits and evictions of the real matcher at several memo
  sizes, the Python heap a pass leaves allocated (``tracemalloc``;
  mostly the memo), and cold-pass matching seconds: the median and
  quartiles of ``--repeats`` passes per size, sizes alternating.

Duplicate uploads never reach the matcher, so only the first delivery
of each trip key counts.  Results land in
``benchmarks/reports/memo_reuse.json`` and ``memo_reuse.txt``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_memo_reuse.py [--seed 7]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "yardstick"))

import stream                                             # noqa: E402
from repro.config import MatchingConfig                   # noqa: E402
from repro.core.match_index import canonical_key          # noqa: E402
from repro.core.matching import SampleMatcher             # noqa: E402
from repro.obs.metrics import MetricsRegistry             # noqa: E402

REPORT_DIR = os.path.join(HERE, "reports")

#: Memo sizes the real matcher is measured at (0 = no memo).
SIZES: Tuple[int, ...] = (0, 1024, 4096, 8192, 16384)
#: Upper edges of the reuse-distance histogram buckets.
EDGES: Tuple[int, ...] = (16, 256, 1024, 4096, 8192, 16384)


def load_batches(seed: int) -> Tuple[Dict, List[List[Tuple[int, ...]]]]:
    """The stream's fingerprint DB and per-upload sample batches."""
    path = stream.stream_path(seed)
    if not path.exists():
        stream.generate(seed, path)
    events, database, _, _ = stream.load(path)
    seen = set()
    batches = []
    for kind, _, upload in events:
        if kind == "trip" and upload.trip_key not in seen:
            seen.add(upload.trip_key)
            batches.append([canonical_key(s.tower_ids) for s in upload.samples])
    return database.as_dict(), batches


def reuse_distances(keys: Sequence[Tuple[int, ...]]) -> List[Optional[int]]:
    """LRU stack distance per access (None for a first occurrence).

    A Fenwick tree marks the position of each key's latest access; the
    distinct keys touched since a key's previous access are the marks
    after that position.
    """
    size = len(keys)
    tree = [0] * (size + 1)

    def add(pos: int, delta: int) -> None:
        pos += 1
        while pos <= size:
            tree[pos] += delta
            pos += pos & -pos

    def prefix(pos: int) -> int:           # marks at positions < pos
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    last: Dict[Tuple[int, ...], int] = {}
    marks = 0
    out: List[Optional[int]] = []
    for pos, key in enumerate(keys):
        previous = last.get(key)
        if previous is None:
            out.append(None)
        else:
            out.append(marks - prefix(previous + 1))
            add(previous, -1)
            marks -= 1
        add(pos, 1)
        marks += 1
        last[key] = pos
    return out


def _pass(database: Dict, batches, size: int, registry=None):
    """One cold pass of the real matcher; (seconds, matcher)."""
    config = replace(MatchingConfig(), cache_size=size)
    matcher = SampleMatcher(database, config, registry=registry)
    start = time.perf_counter()
    for batch in batches:
        matcher.match_many(batch)
    return time.perf_counter() - start, matcher


def measure(database: Dict, batches, size: int) -> Dict:
    """Hits and evictions from one counted pass, run under
    ``tracemalloc`` for the heap it leaves allocated."""
    registry = MetricsRegistry()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    _, matcher = _pass(database, batches, size, registry)
    heap = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    counters = registry.as_dict()["counters"]
    hits = counters.get("match_cache_hits_total", 0)
    samples = counters["matcher_samples_total"]
    return {
        "size": size,
        "hit_ratio": round(hits / samples, 4),
        "evictions": int(counters.get("match_cache_evictions_total", 0)),
        "entries": len(matcher.cache),
        "heap_mb": round(heap / 2**20, 2),
    }


def time_passes(database: Dict, batches, repeats: int) -> Dict[int, List[float]]:
    """Cold-pass seconds per memo size, without a registry (as the
    untraced benchmark runs the server), the sizes alternating in order
    from one repeat to the next so host drift hits every size alike."""
    seconds: Dict[int, List[float]] = {size: [] for size in SIZES}
    for repeat in range(repeats):
        for size in (SIZES if repeat % 2 == 0 else SIZES[::-1]):
            seconds[size].append(_pass(database, batches, size)[0])
    return seconds


def run(seed: int, repeats: int = 12) -> Dict:
    database, batches = load_batches(seed)
    keys = [key for batch in batches for key in batch]
    distances = reuse_distances(keys)
    warm = [d for d in distances if d is not None]
    histogram = []
    low = 0
    for edge in EDGES:
        histogram.append({
            "distance": f"[{low}, {edge})",
            "samples": sum(1 for d in warm if low <= d < edge),
        })
        low = edge
    histogram.append({"distance": f">= {low}",
                      "samples": sum(1 for d in warm if d >= low)})
    histogram.append({"distance": "cold", "samples": len(keys) - len(warm)})
    rows = [measure(database, batches, size) for size in SIZES]
    seconds = time_passes(database, batches, repeats)
    for row in rows:
        times = seconds[row["size"]]
        quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        row["pass_s"] = round(statistics.median(times), 3)
        row["pass_s_q1_q3"] = [round(quartiles[0], 3), round(quartiles[2], 3)]
    document = {
        "bench": "memo_reuse",
        "seed": seed,
        "window": "-".join(stream.STREAM_WINDOW),
        "uploads": len(batches),
        "samples": len(keys),
        "unique_sequences": len(set(keys)),
        "hit_ceiling": round(len(warm) / len(keys), 4),
        "max_distance": max(warm, default=0),
        "reuse_histogram": histogram,
        "lru_hit_ratio_predicted": {
            str(size): round(sum(1 for d in warm if d < size) / len(keys), 4)
            for size in SIZES
        },
        "measured": rows,
        "host_cpu_cores": os.cpu_count() or 1,
    }
    os.makedirs(REPORT_DIR, exist_ok=True)
    with open(os.path.join(REPORT_DIR, "memo_reuse.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    lines = [
        f"seed {seed}: {len(batches)} uploads, {len(keys)} samples, "
        f"{document['unique_sequences']} unique sequences, hit ceiling "
        f"{document['hit_ceiling']:.1%}, max reuse distance "
        f"{document['max_distance']}",
        "reuse distance     samples",
    ]
    lines += [f"{row['distance']:<18} {row['samples']:>7}" for row in histogram]
    lines.append(f"{'memo size':>9} {'hits':>7} {'predicted':>9} "
                 f"{'evictions':>9} {'pass (s)':>8} {'Q1-Q3 (s)':>11} "
                 f"{'heap (MB)':>9}")
    for row in rows:
        predicted = document["lru_hit_ratio_predicted"][str(row["size"])]
        lines.append(
            f"{row['size']:>9} {row['hit_ratio']:>7.1%} {predicted:>9.1%} "
            f"{row['evictions']:>9} {row['pass_s']:>8.3f} "
            f"{row['pass_s_q1_q3'][0]:>5.3f}-{row['pass_s_q1_q3'][1]:<5.3f} "
            f"{row['heap_mb']:>9.2f}"
        )
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(REPORT_DIR, "memo_reuse.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(table + "\n")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=12,
                        help="timed passes per memo size (median)")
    args = parser.parse_args(argv)
    run(args.seed, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
