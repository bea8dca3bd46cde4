"""Per-layer tracing for the traced run, from outside the program.

:class:`LayerTracer` replaces one public function of each layer with a
timing wrapper (a class attribute or a module attribute, exactly where
the caller looks it up) and keeps a span stack, so every span's *self*
time excludes the wrapped layers it called.  :meth:`LayerTracer.remove`
puts every original object back.  Nothing under ``src/`` is edited:
spans inside the program are a later change.

Wrapped calls (span name -> public call):

=============  =====================================================
survey         ``FingerprintDatabase.survey``
radio          ``CellularScanner.scan`` (survey scans included)
bus            ``simulate_bus_trip`` as ``World.run`` looks it up
phone          ``PhoneAgent.ride_and_record``
uplink         ``UplinkChannel.transmit_all``
match          ``SampleMatcher.match_many``
cluster        ``cluster_trip_samples`` as ``prepare_trip`` looks it up
trip_map       ``map_trip`` as ``prepare_trip`` looks it up
apply          ``BackendServer.apply_prepared``
publish        ``BackendServer.publish``
store.append   ``StateStore.append_wal``
store.snapshot ``StateStore.write_snapshot``
store.load     ``StateStore.latest_snapshot``
store.replay   ``BackendServer.replay_record``
=============  =====================================================

Same-span recursion is not expected (no wrapped call re-enters itself);
it would count the inner call's time twice in ``busy``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, owner attribute or None for the module itself, attribute, span)
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.fingerprint", "FingerprintDatabase", "survey", "survey"),
    ("repro.radio.scanner", "CellularScanner", "scan", "radio"),
    ("repro.sim.world", None, "simulate_bus_trip", "bus"),
    ("repro.phone.app", "PhoneAgent", "ride_and_record", "phone"),
    ("repro.sim.uplink", "UplinkChannel", "transmit_all", "uplink"),
    ("repro.core.matching", "SampleMatcher", "match_many", "match"),
    ("repro.core.ingest", None, "cluster_trip_samples", "cluster"),
    ("repro.core.ingest", None, "map_trip", "trip_map"),
    ("repro.core.server", "BackendServer", "apply_prepared", "apply"),
    ("repro.core.server", "BackendServer", "publish", "publish"),
    ("repro.store.base", "StateStore", "append_wal", "store.append"),
    ("repro.store.base", "StateStore", "write_snapshot", "store.snapshot"),
    ("repro.store.base", "StateStore", "latest_snapshot", "store.load"),
    ("repro.core.server", "BackendServer", "replay_record", "store.replay"),
)


def _count(counts: Dict[str, float], span: str, args, result, before) -> None:
    """Work counters taken at the span boundary from arguments/results."""
    if span == "radio":
        counts["radio.scans"] += 1
    elif span == "phone":
        counts["phone.rides"] += 1
        counts["phone.uploads"] += len(result)
    elif span == "bus":
        counts["bus.trips"] += 1
    elif span == "uplink":
        ready = args[1]
        delivered = {upload.trip_key for _, upload in result}
        counts["uplink.lost"] += len({u.trip_key for _, u in ready} - delivered)
    elif span == "match":
        counts["match.samples"] += len(args[1])
        counts["match.accepted"] += sum(1 for r in result if r.accepted)
    elif span == "cluster":
        counts["cluster.clusters"] += len(result)
    elif span == "trip_map":
        counts["trip_map.calls"] += 1
        if result is not None and len(result.stops) >= 2:
            counts["trip_map.mapped"] += 1
    elif span == "apply":
        counts["apply.trips"] += 1
        counts["apply.duplicates"] += args[0].stats.trips_duplicate - before
    elif span == "publish":
        counts["publish.ticks"] += 1
    elif span == "store.append":
        counts["store.appends"] += 1
    elif span == "store.replay":
        counts["store.replayed"] += 1 if result else 0


def _before(span: str, args):
    if span == "apply":
        return args[0].stats.trips_duplicate
    return None


class LayerTracer:
    """Span stack + per-span busy/self time and counters."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List] = []  # [span, time spent in child spans]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack = tracer._stack
            before = _before(span, args)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer.busy[span] += elapsed
                tracer.self_time[span] += elapsed - frame[1]
                tracer.calls[span] += 1
            _count(tracer.counts, span, args, result, before)
            if span == "radio" and any(f[0] == "survey" for f in stack):
                tracer.counts["survey.scans"] += 1
            return result

        return traced

    def install(self) -> "LayerTracer":
        """Replace every target with its timing wrapper."""
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        try:
            for module_name, owner_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(span, original.__func__))
                else:
                    wrapped = self._wrap(span, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Restore every replaced attribute (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def attributed_s(self) -> float:
        """Sum of self times over every span so far."""
        return sum(self.self_time.values())
