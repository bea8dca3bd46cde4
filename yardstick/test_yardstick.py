"""Tests of the benchmark itself: output checks and traced-run wrappers.

    python3 -m pytest yardstick -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import stream  # noqa: E402
from layers import TARGETS, LayerTracer  # noqa: E402

#: A small campaign: one route, 15 minutes.
WINDOW = ("07:00", "07:15")
ROUTES = ["179-0"]


@pytest.fixture(scope="module")
def recorded():
    """(SimulationResult, receive_trip calls, decoded stream) of one run."""
    from repro.sim.world import World

    doc, result = stream.record(World(seed=3), WINDOW, seed=3, route_ids=ROUTES)
    calls = sum(1 for e in doc["events"] if e[0] == "trip") - doc["resent"]["trips"]
    return result, calls, stream.decode(doc)


def _server(database, store=None):
    from repro.city.builder import build_city
    from repro.core.server import BackendServer

    city = build_city()
    return BackendServer(city.network, city.route_network, database, store=store)


def _replay(server, events):
    _, raised = child._replay(server, events, [True] * len(events), [])
    assert raised == 0
    return server


def test_sim_rush_check_passes_and_catches_a_dropped_upload(recorded):
    result, calls, _ = recorded
    assert checks.sim_rush_failures(result, calls) == []
    dropped = result.uploads.pop()
    try:
        assert checks.sim_rush_failures(result, calls)
    finally:
        result.uploads.append(dropped)


def test_replay_check_passes_on_the_recorded_stream(recorded):
    events, database, resent, expected = recorded[2]
    assert resent["trips"] > 0
    server = _replay(_server(database), events)
    assert checks.replay_failures(server, expected, resent) == []


def test_replay_check_catches_a_dropped_upload(recorded):
    events, database, resent, expected = recorded[2]
    drop = next(i for i, e in enumerate(events) if e[0] == "trip")
    kept = events[:drop] + events[drop + 1:]
    server = _replay(_server(database), kept)
    assert checks.replay_failures(server, expected, resent)


def test_replay_check_catches_a_perturbed_segment_speed(recorded):
    events, database, resent, expected = recorded[2]
    server = _replay(_server(database), events)
    state = server.traffic_map.state_dict()
    state["fuser"][0][1] += 0.5  # [segment, mean_kmh, variance, ...]
    server.traffic_map.restore_state(state)
    failures = checks.replay_failures(server, expected, resent)
    assert failures == ["traffic_map differs from the generator server's"]


def test_recovery_check_catches_a_truncated_wal_tail(recorded, tmp_path):
    from repro.store import open_store

    events, database, _, _ = recorded[2]
    path = str(tmp_path / "store")
    live = _replay(_server(database, open_store(path)), events)
    live.store.close()

    def recover():
        store = open_store(path)
        try:
            server = _server(database, store)
            server.recover()
        finally:
            store.close()
        return server

    assert checks.recovery_failures(live, recover()) == []
    wal = max(Path(path).iterdir(), key=lambda p: p.stat().st_size)
    wal.write_bytes(wal.read_bytes()[:-200])
    assert checks.recovery_failures(live, recover())


def test_layer_tracer_restores_every_replaced_attribute():
    import importlib

    def owners():
        for module_name, owner_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            yield owner, attr

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in owners()]
    with LayerTracer():
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr


def test_layer_tracer_self_time_excludes_wrapped_callees():
    tracer = LayerTracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer._wrap("cluster", lambda: [inner()])

    def outer():
        inner()
        return wrapped_inner()

    tracer._wrap("publish", outer)()
    assert tracer.calls == {"cluster": 1, "publish": 1}
    assert tracer.self_time["publish"] == pytest.approx(
        tracer.busy["publish"] - tracer.busy["cluster"]
    )
    assert tracer.attributed_s() == pytest.approx(tracer.busy["publish"])
