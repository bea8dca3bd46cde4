"""The repo benchmark: one command per workload, seeded, self-checking.

    python3 yardstick/run.py --workload sim_rush --seed 7 --seconds 24 --trace 0

Workloads (why each was chosen, and which layers it loads or bypasses,
is in ``BENCHMARK.json`` and ``yardstick/README.md``):

* ``sim_rush`` -- ``World(seed)`` then ``World.run``, FAST DSP, one
  worker, no store, no registry: ``repro simulate``.  The three children
  of a run cover 07:00-07:40, 07:40-08:20 and 08:20-09:00.
* ``ingest_durable`` -- a recorded generator stream (07:00-08:30 at the
  same seed, ~5 % re-sent uploads) replayed into fresh backend servers
  journaling to an append-log store, each followed by recovery.

Every measured run happens in a fresh interpreter (``child.py``); an
untraced run starts :data:`CHILDREN` of them one after another, so
set-up is measured several times per run and reported as the median.
With ``--trace 1`` it alternates :data:`TRACE_PAIRS` untraced and traced
children on the same input and reports the per-layer metrics (median
over the traced children) plus the tracing overhead.

The last stdout line is the result object; the line before it records
the host and the sample counts behind every percentile.  Exit status is
0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stream  # noqa: E402

WORKLOADS = ("sim_rush", "ingest_durable")
#: Fresh interpreters per untraced run: setup_s is their median.
CHILDREN = 3
#: Untraced/traced child pairs per traced run.
TRACE_PAIRS = 2
#: A run must end within 180 s; stop waiting on a child before that.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args, deadline, extra):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next child")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        *extra, "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(command)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(command)}")
    return proc.stdout


def _measure(args, deadline, part, budget, traced):
    lines = _spawn(args, deadline, [
        "--part", str(part), "--budget", repr(budget), "--traced", str(int(traced)),
    ]).strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples for a percentile")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def trips_per_s(children):
    """Uploads ingested per second of timed phase, over all children."""
    return (
        sum(sum(c["uploads"]) for c in children)
        / sum(sum(c["timed_s"]) for c in children)
    )


def end_to_end(children):
    """Aggregate untraced children into the end-to-end metrics."""
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "trips_per_s": (trips_per_s(children), "1/s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }
    samples = {
        "setup_s": len(children),
        "trips_per_s": sum(len(c["timed_s"]) for c in children),
        "peak_rss_mb": len(children),
    }
    return metrics, samples


def per_layer(untraced, traced):
    """Median per-layer metrics of the traced children, plus the overhead
    (untraced over traced ``trips_per_s``) and the ``receive_trip``
    latency percentiles of the untraced children."""
    metrics = {
        name: (statistics.median(c["layers"][name] for c in traced), _unit(name))
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = (
        trips_per_s(untraced) / trips_per_s(traced), "ratio",
    )
    latencies = [x for c in untraced for x in c["latencies_s"]]
    metrics["ingest.ms_p50"] = (1e3 * percentile(latencies, 50), "ms")
    metrics["ingest.ms_p95"] = (1e3 * percentile(latencies, 95), "ms")
    return metrics, {
        "traced_children": len(traced),
        "untraced_children": len(untraced),
        "ingest.ms_p50": len(latencies),
        "ingest.ms_p95": len(latencies),
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("us_per_scan"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def context(args, samples):
    """What every result is recorded with."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    import numpy

    return {
        "git_sha": sha,
        "source_digest": stream.source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def ensure_stream(args, deadline):
    """Generate the ingest stream for this seed unless it is cached."""
    if not stream.stream_path(args.seed).exists():
        _spawn(args, deadline, ["--generate"])
        if not stream.stream_path(args.seed).exists():
            raise BenchError("stream generation wrote no file")


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    if args.workload != "sim_rush":
        ensure_stream(args, deadline)
    if args.trace:
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            untraced.append(_measure(args, deadline, 0, 0.0, traced=False))
            traced.append(_measure(args, deadline, 0, 0.0, traced=True))
        metrics, samples = per_layer(untraced, traced)
        checked = untraced
    else:
        budget = args.seconds / CHILDREN
        checked = [
            _measure(args, deadline, part, budget, traced=False)
            for part in range(CHILDREN)
        ]
        metrics, samples = end_to_end(checked)
    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    failures = [f for c in checked for f in c["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    ctx = context(args, samples)
    ctx["failed_ratio"] = failed / attempted if attempted else 1.0
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not failures and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="yardstick benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"yardstick: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
