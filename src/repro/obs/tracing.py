"""Span tracing: per-stage aggregates plus causal spans.

A :class:`Tracer` times named stages with nested ``with`` spans::

    with tracer.span("receive_trip", key=upload.trip_key):
        with tracer.span("matching"):
            ...

Two recording layers share that API:

* **Aggregates** (always on for a real tracer): durations fold into
  per-stage :class:`StageTiming` records (count / total / min / max) —
  O(#stage names) memory, exactly what ``repro stats`` and
  ``--metrics-out`` need.
* **Span retention** (on with ``Tracer(retain=True)``): each finished
  span additionally becomes a :class:`SpanRecord` with trace / span /
  parent ids, wall-clock bounds and the owning pid, ready for Chrome
  trace-event export (Perfetto / ``chrome://tracing``) via
  :func:`chrome_trace_document`.

Retention is one rule: every finished span is appended to one record
buffer of :data:`RECORD_BUDGET` records; past it the oldest record is
evicted and counted in :attr:`Tracer.records_dropped`, never silently.
The slow-trip exemplars are read off that buffer: the
:data:`SLOW_EXEMPLARS` slowest *keyed* spans (opened with ``key=...``,
the per-trip roots like ``receive_trip``), each with its descendant
records.

When tracing is off, components hold :data:`NULL_TRACER`, whose
``span()`` returns one shared no-op context manager: entering and
leaving it is two trivial method calls, so instrumented hot paths pay
effectively nothing.  No trace-derived value ever feeds back into
pipeline decisions, so conformance traces stay byte-identical with
tracing on or off.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "StageTiming",
    "SpanRecord",
    "Exemplar",
    "RECORD_BUDGET",
    "SLOW_EXEMPLARS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_CATEGORIES",
    "chrome_trace_document",
    "validate_chrome_trace",
    "summarize_chrome_trace",
    "format_trace_summary",
]


#: Cost category of every span name ``repro`` opens, exported as the
#: Chrome event ``cat`` field and summed (by self-time) in the ``repro
#: trace`` summary.  ``compute`` names are the pipeline stages and the
#: map publish; ``sim`` is the synthetic-world simulator; ``store`` is
#: the durable state tier's I/O; ``trip`` and ``pipeline`` are
#: structural parents whose time lives in children.
SPAN_CATEGORIES: Dict[str, str] = {
    "matching": "compute",
    "clustering": "compute",
    "trip_mapping": "compute",
    "leg_estimation": "compute",
    "publish": "compute",
    "bus_simulation": "sim",
    "phone_recording": "sim",
    "uplink": "sim",
    "store_wal_append": "store",
    "store_snapshot": "store",
    "receive_trip": "trip",
    "ingest": "pipeline",
    "campaign_day": "pipeline",
}


#: Span records a retaining tracer keeps; past it the oldest is evicted
#: and counted in :attr:`Tracer.records_dropped`.
RECORD_BUDGET = 200_000

#: How many of the slowest keyed spans :meth:`Tracer.exemplars` returns.
SLOW_EXEMPLARS = 8


@dataclass
class StageTiming:
    """Aggregate wall-time of every span that ran under one stage name."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean span duration."""
        return self.total_s / self.count if self.count else 0.0

    def record(self, duration_s: float) -> None:
        """Fold one finished span into the aggregate."""
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def as_dict(self) -> Dict[str, float]:
        """Plain-JSON view of the aggregate."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


@dataclass
class SpanRecord:
    """One finished span, ready for export (JSON-able)."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float
    duration_s: float
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


@dataclass
class Exemplar:
    """A retained slow-trip trace: its root span plus the subtree."""

    root: SpanRecord
    children: Tuple[SpanRecord, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    @property
    def key(self) -> Optional[str]:
        value = self.root.attrs.get("key")
        return None if value is None else str(value)

    def records(self) -> List[SpanRecord]:
        return [self.root, *self.children]

    def summary(self) -> Dict[str, Any]:
        """Operator-facing digest: who was slow, and where the time went."""
        stages: Dict[str, float] = {}
        for child in self.children:
            stages[child.name] = stages.get(child.name, 0.0) + child.duration_s
        return {
            "name": self.root.name,
            "key": self.key,
            "duration_s": self.root.duration_s,
            "stages": dict(
                sorted(stages.items(), key=lambda kv: -kv[1])
            ),
        }


class _Span:
    """One active span; a context manager handed out by ``span()``."""

    __slots__ = ("_tracer", "name", "_start", "attrs", "span_id", "parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[Dict]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def __enter__(self) -> "_Span":
        self._tracer._open(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        self._tracer._finish(self, duration)
        return False


class Tracer:
    """Aggregating + (optionally) record-retaining span tracer.

    ``Tracer()`` is the aggregate-only mode every instrumented component
    has always used.  ``Tracer(retain=True)`` additionally keeps a
    :class:`SpanRecord` for every finished span, up to
    :data:`RECORD_BUDGET` of them.  Span ids are unique within one
    tracer, which is all one exported document holds.
    """

    enabled = True

    def __init__(self, retain: bool = False) -> None:
        self._stack: List[_Span] = []
        self._stats: Dict[str, StageTiming] = {}
        self._pid = os.getpid()
        self._retaining = bool(retain)
        self._ids = itertools.count(1)
        self.trace_id = f"{self._pid:x}-{int(time.time() * 1e3) & 0xFFFFFF:x}"
        self._records: deque = deque(maxlen=RECORD_BUDGET)
        self._records_dropped = 0
        self._root_s = 0.0

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing one stage; spans nest freely.

        ``key="..."`` marks a per-trip root, a slow-trip exemplar
        candidate.  Other attributes ride along into the exported record.
        """
        return _Span(self, name, attrs or None)

    def _open(self, span: _Span) -> None:
        if self._retaining:
            span.parent_id = self._stack[-1].span_id if self._stack else None
            span.span_id = f"{next(self._ids):x}"
        self._stack.append(span)

    def _finish(self, span: _Span, duration_s: float) -> None:
        top = self._stack.pop() if self._stack else None
        if top is not span:
            raise RuntimeError(
                f"unbalanced span exit: closing {span.name!r} but "
                f"{top.name if top is not None else None!r} is open"
            )
        duration_s = max(duration_s, 0.0)
        timing = self._stats.get(span.name)
        if timing is None:
            timing = self._stats[span.name] = StageTiming()
        timing.record(duration_s)
        if not self._stack:
            self._root_s += duration_s
        if self._retaining:
            if len(self._records) == self._records.maxlen:
                self._records_dropped += 1
            self._records.append(SpanRecord(
                name=span.name,
                trace_id=self.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
                start_s=span._start,
                duration_s=duration_s,
                pid=self._pid,
                attrs=dict(span.attrs) if span.attrs else {},
            ))

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def current_span(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self._stack[-1].name if self._stack else None

    @property
    def retaining(self) -> bool:
        """Whether span records are being kept."""
        return self._retaining

    @property
    def wall_s(self) -> float:
        """Total wall time under top-level spans (the run's denominator)."""
        return self._root_s

    @property
    def records_dropped(self) -> int:
        """Records evicted past the budget (never silent)."""
        return self._records_dropped

    def records(self) -> List[SpanRecord]:
        """All retained span records, sorted by start time."""
        return sorted(self._records, key=lambda r: (r.start_s, r.span_id))

    def exemplars(self) -> List[Exemplar]:
        """The slowest keyed spans in the buffer with their subtrees,
        slowest first (ties in finish order)."""
        keyed = [r for r in self._records if "key" in r.attrs]
        roots = sorted(keyed, key=lambda r: -r.duration_s)[:SLOW_EXEMPLARS]
        if not roots:
            return []
        children: Dict[str, List[SpanRecord]] = {}
        for record in self._records:
            if record.parent_id is not None:
                children.setdefault(record.parent_id, []).append(record)
        return [
            Exemplar(root=root, children=tuple(_descendants(root, children)))
            for root in roots
        ]

    def exemplar_summaries(self) -> List[Dict[str, Any]]:
        """JSON-ready digests of the slow-trip exemplars, slowest first."""
        return [exemplar.summary() for exemplar in self.exemplars()]

    def chrome_trace(self) -> Dict[str, Any]:
        """The retained spans as a Chrome trace-event document."""
        return chrome_trace_document(self.records())

    def stage_stats(self) -> Dict[str, Dict[str, float]]:
        """Aggregated timings per stage name (JSON-ready)."""
        return {
            name: timing.as_dict() for name, timing in sorted(self._stats.items())
        }

    def timing(self, name: str) -> Optional[StageTiming]:
        """The aggregate record of one stage, if it ever ran."""
        return self._stats.get(name)

    def reset(self) -> None:
        """Forget all finished spans (open spans are an error to reset)."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} span(s) still open"
            )
        self._stats = {}
        self._records.clear()
        self._records_dropped = 0
        self._root_s = 0.0


def _descendants(
    root: SpanRecord, children: Dict[str, List[SpanRecord]]
) -> List[SpanRecord]:
    """``root``'s descendant records in finish order (post-order)."""
    found: List[SpanRecord] = []
    for child in children.get(root.span_id, ()):
        found.extend(_descendants(child, children))
        found.append(child)
    return found


class _NullSpan:
    """Shared do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing and costs (almost) nothing."""

    enabled = False
    retaining = False
    trace_id = ""
    wall_s = 0.0
    records_dropped = 0

    def span(self, name: str, **attrs) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    @property
    def depth(self) -> int:
        return 0

    @property
    def current_span(self) -> Optional[str]:
        return None

    def records(self) -> List[SpanRecord]:
        return []

    def exemplars(self) -> List[Exemplar]:
        return []

    def exemplar_summaries(self) -> List[Dict[str, Any]]:
        return []

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace_document([])

    def stage_stats(self) -> Dict[str, Dict[str, float]]:
        return {}

    def timing(self, name: str) -> Optional[StageTiming]:
        return None

    def reset(self) -> None:
        pass


#: Shared do-nothing tracer: the default for instrumented components.
NULL_TRACER = NullTracer()


# -- Chrome trace-event export -------------------------------------------------
#
# The export is the "JSON Array Format with metadata" flavour both
# Perfetto and chrome://tracing load: complete ("X") events carrying
# microsecond ts/dur per (pid, tid) track, plus an "M" metadata event
# naming the process.  Span/parent ids travel in ``args`` so tooling
# (and `repro trace --summary`) can rebuild the causal tree and compute
# self-times.


def chrome_trace_document(records: Sequence[SpanRecord]) -> Dict[str, Any]:
    """Render span records as a Chrome trace-event JSON document."""
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    epoch = min(r.start_s for r in records)
    events: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: (r.start_s, r.span_id)):
        args: Dict[str, Any] = {
            "trace_id": record.trace_id,
            "span_id": record.span_id,
        }
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        args.update(record.attrs)
        events.append({
            "name": record.name,
            "cat": SPAN_CATEGORIES.get(record.name, "other"),
            "ph": "X",
            "ts": round((record.start_s - epoch) * 1e6, 3),
            "dur": round(record.duration_s * 1e6, 3),
            "pid": record.pid,
            "tid": 1,
            "args": args,
        })
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
        for pid in sorted({r.pid for r in records})
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro-trace", "span_count": len(events)},
    }


def validate_chrome_trace(document: Any) -> List[str]:
    """Schema-lint a trace-event document; returns problems (empty = ok).

    Only the event types the exporter writes are supported: complete
    ("X") and metadata ("M") events.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    last_ts = None
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        for required in ("name", "ph", "pid", "tid"):
            if required not in event:
                problems.append(f"event {index}: missing {required!r}")
        ph = event.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"event {index}: unsupported ph {ph!r}")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {index}: ts {ts} goes backwards (prev {last_ts})"
            )
        last_ts = ts
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"event {index}: X event bad dur {dur!r}")
    return problems


def summarize_chrome_trace(document: Dict[str, Any], top: int = 5) -> Dict[str, Any]:
    """Decompose a trace into self-time per category and span name.

    Self-time per event is its duration minus the durations of its
    direct children (linked through ``args.parent_id``); categories come
    from the exported ``cat`` field, so structural parents (``trip``,
    ``pipeline``) never double-count their children's work.  Coverage
    is the share of the trace's wall under top-level spans.
    """
    events = [
        e for e in document.get("traceEvents", [])
        if isinstance(e, dict) and e.get("ph") == "X"
    ]
    child_us: Dict[str, float] = {}
    for event in events:
        parent = event.get("args", {}).get("parent_id")
        if parent is not None:
            child_us[parent] = child_us.get(parent, 0.0) + event.get("dur", 0.0)
    categories: Dict[str, float] = {}
    by_name: Dict[str, Dict[str, float]] = {}
    for event in events:
        span_id = event.get("args", {}).get("span_id")
        self_us = max(
            0.0, event.get("dur", 0.0) - child_us.get(span_id, 0.0)
        )
        cat = event.get("cat", "other")
        categories[cat] = categories.get(cat, 0.0) + self_us
        entry = by_name.setdefault(event["name"], {"count": 0, "self_us": 0.0})
        entry["count"] += 1
        entry["self_us"] += self_us
    if events:
        start = min(e["ts"] for e in events)
        end = max(e["ts"] + e.get("dur", 0.0) for e in events)
        wall_s = (end - start) / 1e6
    else:
        wall_s = 0.0
    top_level_us = sum(
        e.get("dur", 0.0) for e in events
        if e.get("args", {}).get("parent_id") is None
    )
    slowest = sorted(
        (
            {
                "name": e["name"],
                "key": e.get("args", {}).get("key"),
                "duration_s": e.get("dur", 0.0) / 1e6,
            }
            for e in events
            if "key" in e.get("args", {})
        ),
        key=lambda row: -row["duration_s"],
    )[:top]
    return {
        "events": len(events),
        "wall_s": wall_s,
        "coverage": (top_level_us / 1e6) / wall_s if wall_s > 0 else 0.0,
        "categories_s": {
            cat: total / 1e6 for cat, total in sorted(categories.items())
        },
        "by_name_s": {
            name: {"count": entry["count"], "self_s": entry["self_us"] / 1e6}
            for name, entry in sorted(
                by_name.items(), key=lambda kv: -kv[1]["self_us"]
            )
        },
        "slowest": slowest,
    }


def format_trace_summary(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_chrome_trace` as an operator report."""
    lines = [
        f"trace: {summary['events']} span events over "
        f"{summary['wall_s']:.3f} s wall",
        f"coverage by top-level spans: {100 * summary['coverage']:.1f}%",
    ]
    categories = summary["categories_s"]
    if categories:
        total = sum(categories.values()) or 1.0
        parts = ", ".join(
            f"{cat} {seconds:.3f}s ({100 * seconds / total:.0f}%)"
            for cat, seconds in sorted(
                categories.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"self-time by category: {parts}")
    hot = list(summary["by_name_s"].items())[:8]
    if hot:
        lines.append("hottest spans (self-time):")
        for name, entry in hot:
            lines.append(
                f"  {name:<22} {entry['self_s'] * 1e3:>10.1f} ms  "
                f"x{entry['count']}"
            )
    if summary["slowest"]:
        lines.append("slowest keyed spans:")
        for row in summary["slowest"]:
            lines.append(
                f"  {row['name']} key={row['key']}: "
                f"{row['duration_s'] * 1e3:.1f} ms"
            )
    return "\n".join(lines)
