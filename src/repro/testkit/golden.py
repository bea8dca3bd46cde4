"""Golden end-to-end traces: record, render, load, diff.

A *trace* is a plain-JSON document capturing everything observable about
one full campaign: the delivered uploads, every trip's journey through
the pipeline (per-sample verdicts, clusters with candidate pools, the
mapped stop sequence, per-segment speed estimates), the final fused
traffic map, the server stats, and a whitelisted metrics snapshot.

Normalization rules — what makes a trace *canonical* and therefore
byte-identical across runs and hosts:

* **JSON shape** — ``sort_keys=True``, two-space indent, explicit
  separators, a trailing newline; dict iteration order never matters.
* **Floats** — rounded to 9 decimal places and negative zero collapsed
  to zero.  The pipeline itself is deterministic (same operations, same
  association order), so rounding only protects
  the *rendering* from platform ``repr`` quirks, not the comparison.
* **Metrics** — only deterministic families are snapshotted
  (:data:`METRIC_PREFIXES` + :data:`METRIC_EXACT`).  Memo counters
  and wall-clock timing histograms are excluded by construction.

Re-record the committed fixture with ``repro conformance --record``
after an *intentional* behaviour change, and say why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.server import TripReport
from repro.sim.world import SimulationResult

__all__ = [
    "GOLDEN_TRACE_VERSION",
    "METRIC_EXACT",
    "METRIC_PREFIXES",
    "default_trace_path",
    "diff_traces",
    "load_trace",
    "record_trace",
    "render_trace",
    "trace_from_run",
    "trace_from_server",
    "write_trace",
]

#: Bump when the trace schema changes; the checker refuses to compare
#: traces of different versions (a schema change is never "a diff").
GOLDEN_TRACE_VERSION = 1

#: Metric families snapshotted into a trace, by name prefix.  Everything
#: here is a deterministic function of the upload stream: matcher /
#: clustering / mapping counters and histograms, the server stats
#: counters, and the fused-map update/publish counters.
METRIC_PREFIXES: Tuple[str, ...] = (
    "matcher_",
    "clustering_",
    "trip_mapping_",
    "server_",
    "map_",
)

#: Additional exact-name families (labeled counters and gauges).
METRIC_EXACT: Tuple[str, ...] = (
    "trips_uploaded_total",
    "segments_updated_total",
    "fingerprint_db_stops",
)


def default_trace_path() -> Path:
    """The committed golden fixture: ``tests/golden/campaign_small.json``."""
    return (
        Path(__file__).resolve().parents[3]
        / "tests"
        / "golden"
        / "campaign_small.json"
    )


# -- normalization -------------------------------------------------------------


def _norm(value: float) -> float:
    """Canonical float: 9-decimal rounding, no negative zero."""
    rounded = round(float(value), 9)
    return 0.0 if rounded == 0.0 else rounded


def _norm_tree(node):
    """Apply :func:`_norm` to every float in a plain-JSON tree."""
    if isinstance(node, bool):
        return node
    if isinstance(node, float):
        return _norm(node)
    if isinstance(node, dict):
        return {key: _norm_tree(child) for key, child in node.items()}
    if isinstance(node, (list, tuple)):
        return [_norm_tree(child) for child in node]
    return node


def _segment_key(segment_id: Tuple[int, int]) -> str:
    """A directed segment as a stable JSON key: ``"from->to"``."""
    return f"{segment_id[0]}->{segment_id[1]}"


def _wanted_metric(name: str) -> bool:
    return name.startswith(METRIC_PREFIXES) or name in METRIC_EXACT


def _metrics_snapshot(document: Dict) -> Dict:
    """The whitelisted, deterministic slice of a registry ``as_dict``."""
    snapshot: Dict[str, Dict] = {}
    for kind in ("counters", "gauges"):
        snapshot[kind] = {
            name: value
            for name, value in document.get(kind, {}).items()
            if _wanted_metric(name)
        }
    snapshot["histograms"] = {
        name: {
            "count": hist["count"],
            "sum": hist["sum"],
            "bounds": list(hist["bounds"]),
            "bucket_counts": list(hist["bucket_counts"]),
        }
        for name, hist in document.get("histograms", {}).items()
        if _wanted_metric(name)
    }
    snapshot["labeled"] = {
        name: {
            "type": family["type"],
            "labels": list(family["labels"]),
            "overflow_total": family["overflow_total"],
            "children": dict(family["children"]),
        }
        for name, family in document.get("labeled", {}).items()
        if _wanted_metric(name)
    }
    return snapshot


# -- recording -----------------------------------------------------------------


def _serialize_report(report: TripReport) -> Dict:
    matches = None
    if report.matches is not None:
        matches = [
            {
                "station": result.station_id,
                "score": result.score,
                "common_ids": result.common_ids,
            }
            for result in report.matches
        ]
    clusters = [
        {
            "arrival_s": cluster.arrival_s,
            "depart_s": cluster.depart_s,
            "size": len(cluster),
            "members": [
                {
                    "time_s": member.time_s,
                    "station": member.match.station_id,
                    "score": member.match.score,
                }
                for member in cluster.samples
            ],
            "candidates": [
                {
                    "station": candidate.station_id,
                    "probability": candidate.probability,
                    "mean_similarity": candidate.mean_similarity,
                    "weight": candidate.weight,
                }
                for candidate in cluster.candidates()
            ],
        }
        for cluster in report.clusters
    ]
    mapped = None
    if report.mapped is not None:
        mapped = {
            "score": report.mapped.score,
            "stops": [
                {
                    "station": stop.station_id,
                    "arrival_s": stop.arrival_s,
                    "depart_s": stop.depart_s,
                    "cluster_size": stop.cluster_size,
                    "weight": stop.weight,
                }
                for stop in report.mapped.stops
            ],
        }
    return {
        "trip_key": report.trip_key,
        "accepted_samples": report.accepted_samples,
        "discarded_samples": report.discarded_samples,
        "matches": matches,
        "clusters": clusters,
        "mapped": mapped,
        "estimates": [
            {"segment": _segment_key(segment), "speed_kmh": speed, "at_s": at}
            for segment, speed, at in report.estimates
        ],
    }


def _serialize_map(estimator) -> Dict:
    return {
        _segment_key(segment_id): {
            "mean_kmh": belief.mean_kmh,
            "sigma_kmh": belief.sigma_kmh,
            "last_update_s": belief.last_update_s,
            "observations": belief.observation_count,
        }
        for segment_id in estimator.fuser.keys
        for belief in (estimator.segment_estimate(segment_id),)
    }


def trace_from_server(server) -> Dict:
    """A canonical trace of a server's observable end state.

    The server-level slice of :func:`trace_from_run` — fused traffic
    map, stats, whitelisted metrics — for callers (benchmarks, parity
    smokes) that replay uploads straight into a
    :class:`~repro.core.server.BackendServer` outside a simulation run.
    Two servers fed the same uploads must produce byte-identical traces
    regardless of how the ingest was parallelized.
    """
    estimator = server.traffic_map
    trace = {
        "version": GOLDEN_TRACE_VERSION,
        "traffic_map": {
            "publish_times": list(estimator.publish_times),
            "segments": _serialize_map(estimator),
        },
        "stats": server.stats.as_dict(),
        "metrics": _metrics_snapshot(server.registry.as_dict()),
    }
    return _norm_tree(trace)


def trace_from_run(result: SimulationResult) -> Dict:
    """A canonical trace of one finished campaign.

    Reports are serialized in processing (delivery) order — the order
    :meth:`~repro.core.server.BackendServer.apply_prepared` committed
    them.
    """
    server = result.server
    estimator = server.traffic_map
    final_map = _serialize_map(estimator)
    trace = {
        "version": GOLDEN_TRACE_VERSION,
        "scenario": {
            "city": result.city.spec.name,
            "city_seed": result.city.spec.seed,
            "services": list(result.city.spec.services),
            "start_s": result.start_s,
            "end_s": result.end_s,
        },
        "uploads": [
            {
                "trip_key": upload.trip_key,
                "samples": [
                    {
                        "time_s": sample.time_s,
                        "tower_ids": list(sample.tower_ids),
                    }
                    for sample in upload.samples
                ],
            }
            for upload in result.uploads
        ],
        "reports": [_serialize_report(report) for report in result.reports],
        "traffic_map": {
            "publish_times": list(estimator.publish_times),
            "segments": final_map,
        },
        "stats": server.stats.as_dict(),
        "metrics": _metrics_snapshot(server.registry.as_dict()),
    }
    return _norm_tree(trace)


def record_trace(city=None) -> Dict:
    """Run the golden scenario and return its canonical trace."""
    from repro.testkit.scenarios import run_golden

    return trace_from_run(run_golden(city=city))


# -- rendering and IO ----------------------------------------------------------


def render_trace(trace: Dict) -> str:
    """The one true byte representation of a trace."""
    return (
        json.dumps(trace, sort_keys=True, indent=2, separators=(",", ": "))
        + "\n"
    )


def write_trace(trace: Dict, path: Path) -> None:
    """Write a trace in canonical form, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_trace(trace), encoding="utf-8")


def load_trace(path: Path) -> Dict:
    """Read a previously recorded trace."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- comparison ----------------------------------------------------------------


def diff_traces(expected: Dict, actual: Dict, max_entries: int = 64) -> List[str]:
    """Structural differences between two traces, as ``path: a != b`` lines.

    Empty means identical.  Both traces are re-normalized before the
    walk, so a hand-edited fixture with ``-0.0`` or extra precision
    still compares by value; byte-level identity is separately enforced
    by comparing :func:`render_trace` outputs where it matters (CI).
    """
    expected = _norm_tree(expected)
    actual = _norm_tree(actual)
    if expected.get("version") != actual.get("version"):
        return [
            "version: trace schema mismatch "
            f"({expected.get('version')!r} vs {actual.get('version')!r}); "
            "re-record the fixture with `repro conformance --record`"
        ]
    entries: List[str] = []

    def walk(path: str, a, b) -> None:
        if len(entries) >= max_entries:
            return
        if type(a) is not type(b):
            entries.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
            return
        if isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a:
                    entries.append(f"{path}.{key}: only in actual")
                elif key not in b:
                    entries.append(f"{path}.{key}: only in expected")
                else:
                    walk(f"{path}.{key}", a[key], b[key])
                if len(entries) >= max_entries:
                    return
            return
        if isinstance(a, list):
            if len(a) != len(b):
                entries.append(f"{path}: length {len(a)} != {len(b)}")
            for index, (item_a, item_b) in enumerate(zip(a, b)):
                walk(f"{path}[{index}]", item_a, item_b)
                if len(entries) >= max_entries:
                    return
            return
        if a != b:
            entries.append(f"{path}: {a!r} != {b!r}")

    walk("trace", expected, actual)
    if len(entries) >= max_entries:
        entries.append(f"... diff truncated at {max_entries} entries")
    return entries
