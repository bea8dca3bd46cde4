"""Metrics primitives: counters, gauges, fixed-bucket histograms, a registry.

The backend and simulator report what they do through a
:class:`MetricsRegistry` — a flat, name-keyed collection of

* :class:`Counter` — a monotone event count (``inc`` only),
* :class:`Gauge` — a point-in-time level (``set``/``inc``/``dec``),
* :class:`Histogram` — observation counts over fixed upper-bound buckets.

and *labeled families* of each (:mod:`repro.obs.labels`) — the same
instruments keyed by label sets (``route``, ``stop``, ``stage``,
``verdict``), created via ``labeled_counter()`` / ``labeled_gauge()`` /
``labeled_histogram()``.

Registries export themselves two ways: :meth:`MetricsRegistry.as_dict`
(the JSON document ``repro simulate --metrics-out`` writes and ``repro
stats`` reads back) and :meth:`MetricsRegistry.render_prometheus` (the
Prometheus text exposition format, for scraping in a deployment).
:func:`parse_prometheus_text` reads the latter back — ``repro stats``
uses it on ``.prom`` files and CI uses it to assert scrape output parses.

Hot paths that should pay nothing when observability is off take a
registry argument defaulting to :data:`NULL_REGISTRY`, whose instruments
are shared do-nothing singletons.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
import operator
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "parse_prometheus_text",
]

#: Default histogram upper bounds (a generic small-count/latency ladder).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A metric name made safe for the Prometheus exposition format."""
    return _NAME_RE.sub("_", name)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def reset(self) -> None:
        """Zero the counter (process restart semantics)."""
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value:g})"


class Gauge:
    """A value that can go up and down (a level, not a count)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def set(self, value: Union[int, float]) -> None:
        """Set the level."""
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Raise the level."""
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Lower the level."""
        self._value -= amount

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value:g})"


class Histogram:
    """Observation counts over fixed, cumulative-exportable buckets.

    ``bounds`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound, so ``sum(bucket_counts)``
    always equals :attr:`count`.
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_count", "_sum")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # last slot: +Inf
        self._count = 0
        self._sum = 0.0

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) observation counts, +Inf last."""
        return list(self._counts)

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self._counts[bisect.bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value

    def observe_many(self, values: Iterable[Union[int, float]]) -> None:
        """Record every value, leaving what :meth:`observe` on each in
        turn would: one bucket search per distinct value, and the sum
        accumulated in order.  Nothing is recorded if a value is NaN."""
        values = list(values)
        if any(map(math.isnan, values)):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        for value, count in collections.Counter(values).items():
            self._counts[bisect.bisect_left(self.bounds, value)] += count
        self._count += len(values)
        self._sum = functools.reduce(operator.add, values, self._sum)

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def merge_counts(self, bucket_counts: Sequence[int], total: float) -> None:
        """Fold another histogram's observations into this one.

        ``bucket_counts`` must come from a histogram with the same bucket
        ladder (+Inf slot included); ``total`` is that histogram's sum.
        Used by :meth:`MetricsRegistry.merge_dict` (snapshot restore).
        """
        if len(bucket_counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r} merge: expected "
                f"{len(self._counts)} bucket counts, got {len(bucket_counts)}"
            )
        for slot, count in enumerate(bucket_counts):
            self._counts[slot] += int(count)
        self._count += int(sum(bucket_counts))
        self._sum += total

    def reset(self) -> None:
        """Forget all observations (bucket layout is kept)."""
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


class MetricsRegistry:
    """A flat, name-keyed collection of counters, gauges and histograms.

    Instruments are created on first request and shared thereafter
    (get-or-create), so independently instrumented components that agree
    on a name accumulate into the same instrument.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._labeled: Dict[str, "object"] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        self._check_free(name, self._counters)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        self._check_free(name, self._gauges)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at creation)."""
        self._check_free(name, self._histograms)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets, help)
        return instrument

    def labeled_counter(
        self,
        name: str,
        labelnames: Sequence[str],
        help: str = "",
        max_children: Optional[int] = None,
    ):
        """Get or create the labeled counter family ``name``."""
        from repro.obs.labels import LabeledCounter

        return self._labeled_family(
            LabeledCounter, name, labelnames, help, max_children
        )

    def labeled_gauge(
        self,
        name: str,
        labelnames: Sequence[str],
        help: str = "",
        max_children: Optional[int] = None,
    ):
        """Get or create the labeled gauge family ``name``."""
        from repro.obs.labels import LabeledGauge

        return self._labeled_family(
            LabeledGauge, name, labelnames, help, max_children
        )

    def labeled_histogram(
        self,
        name: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        max_children: Optional[int] = None,
    ):
        """Get or create the labeled histogram family ``name``."""
        from repro.obs.labels import LabeledHistogram

        family = self._labeled.get(name)
        if family is None:
            self._check_free(name, self._labeled)
            kwargs = {} if max_children is None else {"max_children": max_children}
            family = self._labeled[name] = LabeledHistogram(
                name, labelnames, buckets=buckets, help=help, **kwargs
            )
        self._check_family(family, LabeledHistogram, name, labelnames)
        return family

    def _labeled_family(
        self, cls, name: str, labelnames: Sequence[str], help: str,
        max_children: Optional[int],
    ):
        family = self._labeled.get(name)
        if family is None:
            self._check_free(name, self._labeled)
            kwargs = {} if max_children is None else {"max_children": max_children}
            family = self._labeled[name] = cls(
                name, labelnames, help=help, **kwargs
            )
        self._check_family(family, cls, name, labelnames)
        return family

    @staticmethod
    def _check_family(family, cls, name: str, labelnames: Sequence[str]) -> None:
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered with a different type"
            )
        if family.labelnames != tuple(labelnames):
            raise ValueError(
                f"labeled metric {name!r} already registered with labels "
                f"{list(family.labelnames)}"
            )

    def _check_free(self, name: str, home: Dict) -> None:
        for family in (
            self._counters, self._gauges, self._histograms, self._labeled,
        ):
            if family is not home and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with a different type"
                )

    # -- introspection -------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(
            list(self._counters) + list(self._gauges)
            + list(self._histograms) + list(self._labeled)
        )

    def as_dict(self) -> Dict[str, Dict]:
        """A plain-JSON document of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "bounds": list(h.bounds),
                    "bucket_counts": h.bucket_counts,
                }
                for name, h in sorted(self._histograms.items())
            },
            "labeled": {
                name: family.as_dict()
                for name, family in sorted(self._labeled.items())
            },
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        from repro.obs.labels import escape_help

        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            prom = _prom_name(name)
            if counter.help:
                lines.append(f"# HELP {prom} {escape_help(counter.help)}")
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {counter.value:g}")
        for name, gauge in sorted(self._gauges.items()):
            prom = _prom_name(name)
            if gauge.help:
                lines.append(f"# HELP {prom} {escape_help(gauge.help)}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {gauge.value:g}")
        for name, histogram in sorted(self._histograms.items()):
            prom = _prom_name(name)
            if histogram.help:
                lines.append(f"# HELP {prom} {escape_help(histogram.help)}")
            lines.append(f"# TYPE {prom} histogram")
            for bound, cumulative in histogram.cumulative():
                le = "+Inf" if math.isinf(bound) else f"{bound:g}"
                lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{prom}_sum {histogram.sum:g}")
            lines.append(f"{prom}_count {histogram.count}")
        for name, family in sorted(self._labeled.items()):
            lines.extend(family.render_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def merge_dict(self, snapshot: Dict[str, Dict]) -> None:
        """Fold another registry's :meth:`as_dict` snapshot into this one.

        Counters and histograms (flat and labeled children alike) *add*.
        Gauges are levels, not flows — they are never summed; each
        merge adopts the snapshot's value, last writer wins.  Instruments
        missing here are created on the fly with the snapshot's bucket
        ladder.  Merging onto a reset registry is an absolute restore,
        which is how a server adopts a snapshot's metrics.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(
                name, buckets=data.get("bounds") or DEFAULT_BUCKETS
            )
            self._merge_histogram(histogram, name, data)
        for name, family in snapshot.get("labeled", {}).items():
            self._merge_labeled(name, family)

    @staticmethod
    def _merge_histogram(histogram: Histogram, name: str, data: Dict) -> None:
        counts = data.get("bucket_counts")
        if counts is None:
            raise ValueError(f"histogram {name!r} snapshot has no bucket_counts")
        histogram.merge_counts(counts, data.get("sum", 0.0))

    def _merge_labeled(self, name: str, family_snapshot: Dict) -> None:
        kind = family_snapshot.get("type")
        labelnames = tuple(family_snapshot.get("labels", ()))
        children = family_snapshot.get("children", {})
        if kind == "counter":
            family = self.labeled_counter(name, labelnames)
        elif kind == "gauge":
            family = self.labeled_gauge(name, labelnames)
        elif kind == "histogram":
            bounds = next(
                (tuple(child["bounds"]) for child in children.values()),
                DEFAULT_BUCKETS,
            )
            family = self.labeled_histogram(name, labelnames, buckets=bounds)
        else:
            raise ValueError(
                f"labeled family {name!r} has unknown type {kind!r}"
            )
        for rendered, value in children.items():
            by_name = _parse_labels(rendered)
            child = family.labels(
                *(by_name.get(label, "") for label in labelnames)
            )
            if kind == "counter":
                child.inc(value)
            elif kind == "gauge":
                child.set(value)
            else:
                self._merge_histogram(child, name, value)
        family.overflow_total += family_snapshot.get("overflow_total", 0)

    def reset(self) -> None:
        """Zero every instrument, including every labeled child, in place.

        Layout and registrations are kept — cached child handles held by
        instrumented call sites keep recording — so back-to-back
        campaigns in one process start every count (histogram buckets
        and labeled children included) from zero.
        """
        for family in (self._counters, self._gauges, self._histograms):
            for instrument in family.values():
                instrument.reset()
        for labeled in self._labeled.values():
            labeled.reset()


class _NullCounter(Counter):
    """A counter that swallows everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass


class _NullGauge(Gauge):
    """A gauge that swallows everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: Union[int, float]) -> None:
        pass

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def dec(self, amount: Union[int, float] = 1) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that swallows everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", buckets=(1.0,))

    def observe(self, value: Union[int, float]) -> None:
        pass

    def observe_many(self, values: Iterable[Union[int, float]]) -> None:
        pass


class _NullLabeledFamily:
    """A labeled family whose every child is one shared null instrument."""

    __slots__ = ("_child", "labelnames")

    kind = "untyped"
    name = "null"
    help = ""
    overflow_total = 0
    max_children = 0

    def __init__(self, child) -> None:
        self._child = child
        self.labelnames = ()

    def labels(self, *values, **by_name):
        return self._child

    @property
    def children(self) -> List:
        return []

    def __len__(self) -> int:
        return 0

    def reset(self) -> None:
        pass

    def as_dict(self) -> Dict:
        return {"type": self.kind, "labels": [], "overflow_total": 0,
                "children": {}}

    def render_prometheus(self):
        return iter(())


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing.

    Components default to :data:`NULL_REGISTRY` so instrumented hot
    paths cost a no-op method call when observability is disabled.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()
        self._null_labeled_counter = _NullLabeledFamily(self._null_counter)
        self._null_labeled_gauge = _NullLabeledFamily(self._null_gauge)
        self._null_labeled_histogram = _NullLabeledFamily(self._null_histogram)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._null_counter

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._null_histogram

    def labeled_counter(
        self, name, labelnames, help="", max_children=None
    ) -> _NullLabeledFamily:
        return self._null_labeled_counter

    def labeled_gauge(
        self, name, labelnames, help="", max_children=None
    ) -> _NullLabeledFamily:
        return self._null_labeled_gauge

    def labeled_histogram(
        self, name, labelnames, buckets=DEFAULT_BUCKETS, help="",
        max_children=None,
    ) -> _NullLabeledFamily:
        return self._null_labeled_histogram

    def merge_dict(self, snapshot: Dict[str, Dict]) -> None:
        # Merging must not mutate the shared null singletons.
        pass


#: Shared do-nothing registry: the default for instrumented components.
NULL_REGISTRY = NullRegistry()


# -- reading the exposition format back ---------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?\s*$"
)
_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise ValueError(f"malformed label pairs: {text!r}")
        labels[match.group("name")] = _unescape_label_value(match.group("value"))
        pos = match.end()
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse the Prometheus text exposition format back into families.

    Returns ``{family: {"type", "help", "samples"}}`` where ``samples``
    is a list of ``(sample_name, labels_dict, value)``; histogram series
    (``_bucket``/``_sum``/``_count``) are grouped under their family
    name.  Raises :class:`ValueError` on any malformed line — CI's
    scrape smoke test relies on that to assert parseability.
    """
    families: Dict[str, Dict] = {}

    def family_for(sample_name: str) -> Dict:
        name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                name = base
                break
        entry = families.get(name)
        if entry is None:
            entry = families[name] = {"type": None, "help": None, "samples": []}
        return entry

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                name = parts[2]
                entry = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if parts[1] == "TYPE":
                    if len(parts) < 4:
                        raise ValueError(f"line {lineno}: TYPE without a type")
                    entry["type"] = parts[3].strip()
                else:
                    entry["help"] = parts[3] if len(parts) > 3 else ""
            continue                       # other comments are legal noise
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        value_text = match.group("value")
        if value_text in ("+Inf", "Inf"):
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad sample value {value_text!r}"
                ) from None
        labels = _parse_labels(match.group("labels") or "")
        entry = family_for(match.group("name"))
        entry["samples"].append((match.group("name"), labels, value))
    return families
