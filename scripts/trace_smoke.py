#!/usr/bin/env python
"""CI trace smoke: traced campaign → Chrome trace-event checks.

Runs a tiny campaign with ``--trace-out``, then asserts the exported
document is a well-formed Chrome trace-event file (required keys,
monotonic timestamps, only X and M events, via
:func:`validate_chrome_trace`), that the pipeline spans are present in
one trace, that no span exports under the fallback category ``other``
(every span name needs a ``SPAN_CATEGORIES`` entry), that top-level
spans cover the trace wall, and that ``repro trace`` renders a summary.  The trace lands in
``benchmarks/reports/trace_smoke.json`` for CI to upload — load it in
Perfetto / ``chrome://tracing`` to eyeball a failing run — and the
run's ``--metrics-out`` document, with its slow-trip exemplars, in
``benchmarks/reports/trace_smoke_metrics.json`` for ``repro stats``.

Run from the repo root::

    PYTHONPATH=src python scripts/trace_smoke.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main                                # noqa: E402
from repro.obs import (                                   # noqa: E402
    summarize_chrome_trace,
    validate_chrome_trace,
)

REPORTS = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "reports")
TRACE_PATH = os.path.join(REPORTS, "trace_smoke.json")
METRICS_PATH = os.path.join(REPORTS, "trace_smoke_metrics.json")

#: Spans a traced campaign must account for.
REQUIRED_SPANS = {
    "ingest",
    "receive_trip",
    "matching",
    "clustering",
    "trip_mapping",
}


def run_campaign() -> None:
    os.makedirs(REPORTS, exist_ok=True)
    code = main([
        "campaign",
        "--sparse-days", "1", "--intensive-days", "0",
        "--start", "07:30", "--end", "08:00",
        "--trace-out", TRACE_PATH,
        "--metrics-out", METRICS_PATH,
    ])
    assert code == 0, f"traced campaign exited {code}"


def check_document() -> dict:
    with open(TRACE_PATH, encoding="utf-8") as handle:
        document = json.load(handle)

    problems = validate_chrome_trace(document)
    assert not problems, "trace schema problems:\n  " + "\n  ".join(problems)

    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert events, "trace contains no complete (X) events"
    names = {e["name"] for e in events}
    missing = REQUIRED_SPANS - names
    assert not missing, f"accounting spans missing: {sorted(missing)}"
    uncategorized = sorted({e["name"] for e in events if e["cat"] == "other"})
    assert not uncategorized, f"spans without a category: {uncategorized}"

    trace_ids = {e["args"]["trace_id"] for e in events}
    assert len(trace_ids) == 1, f"split traces: {sorted(trace_ids)}"

    return document


def check_summary(document: dict) -> None:
    summary = summarize_chrome_trace(document)
    assert summary["coverage"] >= 0.95, (
        f"named spans cover only {summary['coverage']:.1%} of the trace wall"
    )
    assert summary["categories_s"].get("compute", 0.0) > 0, summary
    # And the CLI renders it (also exercises the validate path).
    assert main(["trace", "--validate", TRACE_PATH]) == 0
    assert main(["trace", "--summary", TRACE_PATH]) == 0


def check_exemplars() -> None:
    with open(METRICS_PATH, encoding="utf-8") as handle:
        exemplars = json.load(handle).get("exemplars", [])
    assert exemplars, "metrics document holds no slow-trip exemplars"
    assert all(e["name"] == "receive_trip" and e["stages"] for e in exemplars)


def main_smoke() -> int:
    run_campaign()
    document = check_document()
    check_summary(document)
    check_exemplars()
    events = len(document["traceEvents"])
    print(f"trace smoke OK: {events} events, "
          f"all {len(REQUIRED_SPANS)} accounting spans present; "
          f"wrote {TRACE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
