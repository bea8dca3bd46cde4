"""Output checks of the benchmark's workloads.

Every function returns a list of failure messages; empty means the
output is correct.  A failed check makes the run report
``"correct": false`` and counts the operations it covers as failed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Table II of the paper: per-route stop-identification error < 8 %.
MAX_STOP_ERROR = 0.08


def _rider_id(trip_key: str) -> int:
    """``rider-<id>#<n>`` -> ``id`` (the phone id a World gives a rider)."""
    return int(trip_key.split("#", 1)[0].rsplit("-", 1)[1])


def stop_identification(result) -> Tuple[int, int]:
    """(errors, total) over every mapped stop of every mapped trip.

    The true stop is the served visit of the rider's bus whose
    ``[arrival_s, depart_s]`` window contains the mapped stop's mid
    time, or else the visit nearest to it in time.
    """
    trace_of = {}
    for trace in result.traces:
        for ride in trace.participants:
            trace_of[ride.rider_id] = trace
    errors = total = 0
    for report in result.reports:
        mapped = report.mapped
        if mapped is None or len(mapped.stops) < 2:
            continue
        visits = [v for v in trace_of[_rider_id(report.trip_key)].visits if v.served]
        for stop in mapped.stops:
            mid = 0.5 * (stop.arrival_s + stop.depart_s)
            truth = min(
                visits,
                key=lambda v: max(v.arrival_s - mid, mid - v.depart_s, 0.0),
            )
            total += 1
            errors += truth.station_id != stop.station_id
    return errors, total


def map_coverage(server) -> float:
    """Highest coverage over the map's published frames."""
    estimator = server.traffic_map
    return max(
        (estimator.published_snapshot(t).coverage for t in estimator.publish_times),
        default=0.0,
    )


def sim_rush_failures(result, receive_calls: int) -> List[str]:
    """``sim_rush``: accounting, stop identification and map coverage."""
    failures = []
    delivered = len(result.uploads)
    stats = result.server.stats
    if stats.trips_received + stats.trips_duplicate != delivered:
        failures.append(
            f"{delivered} uploads delivered but trips_received + "
            f"trips_duplicate = {stats.trips_received + stats.trips_duplicate}"
        )
    if receive_calls != delivered:
        failures.append(f"{delivered} uploads delivered, {receive_calls} received")
    errors, total = stop_identification(result)
    if not total or errors / total >= MAX_STOP_ERROR:
        failures.append(f"stop identification error {errors}/{total}")
    if not map_coverage(result.server) > 0:
        failures.append("traffic map has no coverage")
    return failures


def replay_failures(server, expected: Dict, resent: Dict[str, int]) -> List[str]:
    """``ingest_durable``: the replayed server ends where the generator did.

    The ``traffic_map`` section of the canonical trace must be
    byte-equal; ``stats`` must be equal once the injected re-sends are
    taken off the duplicate counters.
    """
    from repro.testkit.golden import render_trace, trace_from_server

    failures = []
    trace = trace_from_server(server)
    if render_trace({"traffic_map": trace["traffic_map"]}) != expected["traffic_map"]:
        failures.append("traffic_map differs from the generator server's")
    stats = dict(server.stats.as_dict())
    stats["trips_duplicate"] -= resent["trips"]
    stats["samples_duplicate"] -= resent["samples"]
    stats["samples_discarded"] -= resent["samples"]
    wrong = sorted(k for k in set(stats) | set(expected["stats"])
                   if stats.get(k) != expected["stats"].get(k))
    if wrong:
        failures.append(
            "stats differ: " + ", ".join(
                f"{k} {stats.get(k)} != {expected['stats'].get(k)}" for k in wrong
            )
        )
    return failures


def recovery_failures(live, recovered) -> List[str]:
    """``ingest_durable``: the recovered server's state equals the live one."""
    live_state, recovered_state = live.state_dict(), recovered.state_dict()
    if live_state == recovered_state:
        return []
    wrong = sorted(k for k in live_state if live_state[k] != recovered_state.get(k))
    return ["recovered state differs in " + ", ".join(wrong)]
