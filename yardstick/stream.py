"""The ``ingest_durable`` input: a recorded backend event stream.

A generator run (``World(seed).run`` over :data:`STREAM_WINDOW`, the
``repro simulate`` path) records every event its server receives, in
order: each ``receive_trip(upload, now_s)`` and each ``publish(at_s)``.
A seeded ~5 % of uploads are then re-sent a little later, as a phone
retrying a POST whose reply it never saw.  The stream file also holds
the generator's fingerprint database (the workload sets up a
backend from it, as a deployed server does, instead of surveying) and
the generator server's end state, which the replays are checked
against.

The generator run is preparation, not part of any measured phase.  It
is cached per seed and per content of ``src/`` and this directory, in
:data:`CACHE_DIR` at the checkout root.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = ROOT / ".yardstick_cache"

STREAM_VERSION = 1
#: 1.5 h of the morning rush: ~1.1k uploads, so the ~1.2k WAL records
#: pass the default 1000-record snapshot cadence once and recovery
#: exercises both the snapshot load and the WAL-tail replay.
STREAM_WINDOW = ("07:00", "08:30")
RESEND_PROBABILITY = 0.05
#: A re-send lands 1..RESEND_MAX_LAG events after the original.
RESEND_MAX_LAG = 40

Event = Tuple[str, float, object]  # ("trip", now_s, upload) | ("publish", at_s, None)


def source_digest() -> str:
    """Hash of the sources a stream depends on: ``src/`` and this file."""
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stream_path(seed: int) -> Path:
    """Cache location of the stream for ``seed`` at the current sources."""
    window = "-".join(w.replace(":", "") for w in STREAM_WINDOW)
    return CACHE_DIR / f"stream-v{STREAM_VERSION}-{window}-s{seed}-{source_digest()}.json"


def inject_resends(events: List[list], seed: int) -> Tuple[List[list], Dict[str, int]]:
    """Copy a seeded ~5 % of trip events to a later point in the stream.

    A copy carries the clock of the event it follows, so ``now_s``
    stays non-decreasing.  Returns the new stream and how many trips
    and samples were re-sent.
    """
    rng = random.Random(seed)
    pending: Dict[int, List[list]] = {}
    for index, event in enumerate(events):
        if event[0] == "trip" and rng.random() < RESEND_PROBABILITY:
            at = min(index + rng.randint(1, RESEND_MAX_LAG), len(events) - 1)
            pending.setdefault(at, []).append(event)
    out: List[list] = []
    resent = {"trips": 0, "samples": 0}
    for index, event in enumerate(events):
        out.append(event)
        for original in pending.get(index, ()):
            out.append(["trip", event[1], original[2]])
            resent["trips"] += 1
            resent["samples"] += len(original[2]["samples"])
    return out, resent


def record(world, window, seed: int, route_ids=None):
    """Run ``world`` over ``window`` recording its server's event stream.

    Returns ``(stream document, SimulationResult)``.
    """
    from repro.testkit.golden import render_trace, trace_from_server
    from repro.util.units import parse_hhmm
    from repro.wire import database_to_dict, trip_to_dict

    server = world.server
    events: List[list] = []
    receive, publish = server.receive_trip, server.publish

    def recording_receive(upload, now_s=None, **kwargs):
        events.append(["trip", now_s, trip_to_dict(upload)])
        return receive(upload, now_s, **kwargs)

    def recording_publish(at_s):
        events.append(["publish", at_s, None])
        return publish(at_s)

    server.receive_trip = recording_receive
    server.publish = recording_publish
    try:
        result = world.run(
            parse_hhmm(window[0]),
            parse_hhmm(window[1]),
            route_ids=route_ids,
            with_official_feed=False,
        )
    finally:
        del server.receive_trip, server.publish
    events, resent = inject_resends(events, seed)
    trace = trace_from_server(server)
    doc = {
        "v": STREAM_VERSION,
        "seed": seed,
        "window": list(window),
        "database": database_to_dict(world.database),
        "events": events,
        "resent": resent,
        "expected": {
            "traffic_map": render_trace({"traffic_map": trace["traffic_map"]}),
            "stats": server.stats.as_dict(),
        },
    }
    return doc, result


def generate(seed: int, path: Path) -> None:
    """Run the generator campaign and write the stream file atomically."""
    from repro.sim.world import World

    doc, _ = record(World(seed=seed), STREAM_WINDOW, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    os.replace(tmp, path)


def load(path: Path):
    """Read and decode a stream file written by :func:`generate`."""
    return decode(json.loads(path.read_text(encoding="utf-8")))


def decode(doc):
    """A stream document as (events, database, resent, expected)."""
    import repro.core  # noqa: F401  (repro.wire cannot be imported first)
    from repro.wire import database_from_dict, trip_from_dict

    if doc.get("v") != STREAM_VERSION:
        raise ValueError(f"unsupported stream version {doc.get('v')!r}")
    events: List[Event] = [
        (kind, float(at), trip_from_dict(trip) if kind == "trip" else None)
        for kind, at, trip in doc["events"]
    ]
    return events, database_from_dict(doc["database"]), doc["resent"], doc["expected"]
