"""Observability: metrics, labels, windows, tracing, logging, HTTP, SLOs.

The pillars the phone→server pipeline reports itself through:

* :class:`MetricsRegistry` — counters / gauges / fixed-bucket
  histograms, plus *labeled families* of each
  (``labeled_counter("trips_uploaded_total", ("route",))``), with JSON
  (:meth:`~MetricsRegistry.as_dict`) and Prometheus-text
  (:meth:`~MetricsRegistry.render_prometheus`) export and
  :func:`parse_prometheus_text` to read the latter back.
* :class:`SlidingWindowCounter` / :class:`WindowSet` — ring-buffer time
  windows over an explicit (sim or wall) clock, for live rates like
  matches-accepted-per-5-minutes.
* :class:`MetricsHTTPServer` — a stdlib-only threaded exporter serving
  ``/metrics``, ``/healthz``, ``/stats`` and ``/freshness`` while a
  campaign runs (``repro simulate --serve-metrics PORT``).
* :class:`AlertEngine` / :class:`AlertRule` — declarative SLO rules
  (``map_route_freshness_s{route=*} < 900``) evaluated on publish
  ticks, firing structured-log events and the ``alerts_active`` gauge.
* :class:`Tracer` — nested ``with tracer.span("matching"):`` timing,
  aggregated per stage name; attach a :class:`SamplingPolicy` to also
  retain :class:`SpanRecord` objects (trace/span/parent ids, slow-trip
  exemplars) and export them with :func:`chrome_trace_document` for
  Perfetto / ``chrome://tracing``; :data:`NULL_TRACER` makes
  instrumented hot paths free when tracing is off.
* :func:`configure` / :func:`get_logger` / :func:`log_event` —
  structured logging (key=value or JSON Lines) on stdlib ``logging``.

Everything is dependency-free and safe to import from any layer.  The
HTTP exporter's names load on first use (PEP 562): its ``http.server``,
``email`` and ``ssl`` imports cost ~30 ms that only ``--serve-metrics``
needs.
"""

from importlib import import_module

from repro.obs.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    lint_rules,
    load_rules,
    parse_rule_expr,
    samples_from_document,
    samples_from_registry,
)
from repro.obs.labels import (
    DEFAULT_MAX_CHILDREN,
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    escape_help,
    escape_label_value,
)
from repro.obs.logging import (
    JsonFormatter,
    KeyValueFormatter,
    ROOT_LOGGER_NAME,
    configure,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    parse_prometheus_text,
)
from repro.obs.tracing import (
    Exemplar,
    ExemplarStore,
    NULL_TRACER,
    NullTracer,
    SamplingPolicy,
    SPAN_CATEGORIES,
    SpanRecord,
    StageTiming,
    Tracer,
    chrome_trace_document,
    format_trace_summary,
    summarize_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.windows import (
    SlidingWindowCounter,
    SlidingWindowStats,
    WindowSet,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "parse_prometheus_text",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "DEFAULT_MAX_CHILDREN",
    "escape_help",
    "escape_label_value",
    "SlidingWindowCounter",
    "SlidingWindowStats",
    "WindowSet",
    "MetricsHTTPServer",
    "PROMETHEUS_CONTENT_TYPE",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "load_rules",
    "lint_rules",
    "parse_rule_expr",
    "samples_from_registry",
    "samples_from_document",
    "StageTiming",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SamplingPolicy",
    "SpanRecord",
    "Exemplar",
    "ExemplarStore",
    "SPAN_CATEGORIES",
    "chrome_trace_document",
    "validate_chrome_trace",
    "summarize_chrome_trace",
    "format_trace_summary",
    "ROOT_LOGGER_NAME",
    "configure",
    "get_logger",
    "log_event",
    "KeyValueFormatter",
    "JsonFormatter",
]

# Names whose module loads on first access.
_LAZY = {
    "MetricsHTTPServer": "http_exporter",
    "PROMETHEUS_CONTENT_TYPE": "http_exporter",
}


def __getattr__(name: str):
    """Import the HTTP exporter on first access to one of its names."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
