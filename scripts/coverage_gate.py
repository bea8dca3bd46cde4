#!/usr/bin/env python
"""Line-coverage no-regression gate for CI.

Three modes, all operating on the ``coverage json`` document format
(``{"totals": {"percent_covered": ...}}``):

* ``check <coverage.json>`` — compare against the committed baseline
  ``benchmarks/reports/coverage_baseline.json``; exit 1 if line
  coverage dropped more than :data:`TOLERANCE_PCT` points below it.
* ``record <coverage.json>`` — rewrite the baseline from a measured
  document (run after an intentional coverage change, commit the
  result and say why).
* ``measure [--out FILE]`` — measure tier-1 line coverage with the
  standard library only (``sys.settrace`` + code-object line tables)
  and write a compatible document.  For environments without
  ``pytest-cov``; CI uses the real thing:

      pytest --cov=repro --cov-report=json:coverage.json
      python scripts/coverage_gate.py check coverage.json

The stdlib tracer undercounts slightly (lines hit in a subprocess a
test starts, such as the fresh-interpreter import check, are invisible
to it), so a baseline recorded from ``measure`` carries a small
built-in safety margin; re-record from a pytest-cov document when one
is available to tighten the gate.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC_ROOT, "repro")
BASELINE_PATH = os.path.join(
    REPO_ROOT, "benchmarks", "reports", "coverage_baseline.json"
)

#: Allowed drop (in percentage points) below the recorded baseline.
TOLERANCE_PCT = 1.0

#: Extra slack subtracted when *recording* from the stdlib tracer, to
#: absorb the measurement-tool difference vs pytest-cov.
STDLIB_RECORD_MARGIN_PCT = 2.0


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _percent(document) -> float:
    try:
        return float(document["totals"]["percent_covered"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"not a coverage JSON document (missing totals.percent_covered): "
            f"{exc}"
        )


def cmd_check(args) -> int:
    measured = _percent(_load(args.coverage_json))
    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH} — record one first:\n"
              f"  python scripts/coverage_gate.py record {args.coverage_json}",
              file=sys.stderr)
        return 1
    baseline = _load(BASELINE_PATH)
    floor = float(baseline["percent_covered"]) - TOLERANCE_PCT
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(f"coverage {verdict}: measured {measured:.2f}% vs baseline "
          f"{baseline['percent_covered']:.2f}% "
          f"(floor {floor:.2f}%, tolerance {TOLERANCE_PCT}pp)")
    if measured < floor:
        print("line coverage regressed — add tests, or re-record the "
              "baseline if the drop is intentional:\n"
              f"  python scripts/coverage_gate.py record {args.coverage_json}",
              file=sys.stderr)
        return 1
    return 0


def cmd_record(args) -> int:
    document = _load(args.coverage_json)
    measured = _percent(document)
    tool = (document.get("meta") or {}).get("tool", "pytest-cov")
    recorded = measured
    if tool == "stdlib-trace":
        recorded = max(0.0, measured - STDLIB_RECORD_MARGIN_PCT)
    baseline = {
        "percent_covered": round(recorded, 2),
        "measured_percent": round(measured, 2),
        "tolerance_pct": TOLERANCE_PCT,
        "recorded_with": tool,
        "note": (
            "Line coverage of `pytest -x -q` (tier-1) over src/repro. "
            "Gate: scripts/coverage_gate.py check fails if measured < "
            "percent_covered - tolerance_pct."
            + (
                f" Recorded from the stdlib tracer with a "
                f"{STDLIB_RECORD_MARGIN_PCT}pp cross-tool margin; "
                f"re-record from a pytest-cov document to tighten."
                if tool == "stdlib-trace" else ""
            )
        ),
    }
    os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
    with open(BASELINE_PATH, "w", encoding="utf-8") as out:
        json.dump(baseline, out, indent=2)
        out.write("\n")
    print(f"recorded baseline {baseline['percent_covered']:.2f}% "
          f"({tool}) -> {BASELINE_PATH}")
    return 0


# -- stdlib measurement --------------------------------------------------------


def _executable_lines(path):
    """Line numbers the compiler marks executable, via code-object tables."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        top = compile(source, path, "exec")
    except SyntaxError:
        return set()
    lines = set()
    stack = [top]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # The compiler attributes module/class/function *definitions* here
    # too; that matches what tracing reports, so no filtering needed.
    return lines


def cmd_measure(args) -> int:
    sys.path.insert(0, SRC_ROOT)
    import threading

    prefix = PACKAGE_ROOT + os.sep
    hits = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None                       # no line events for this frame
        if event == "line":
            hits.setdefault(filename, set()).add(frame.f_lineno)
        return tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest
        exit_code = pytest.main(["-x", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if exit_code != 0:
        print(f"pytest exited {exit_code}; refusing to report coverage "
              "of a failing suite", file=sys.stderr)
        return int(exit_code)

    total_executable = 0
    total_hit = 0
    files = {}
    for dirpath, _, filenames in os.walk(PACKAGE_ROOT):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            executable = _executable_lines(path)
            hit = hits.get(path, set()) & executable
            total_executable += len(executable)
            total_hit += len(hit)
            rel = os.path.relpath(path, REPO_ROOT)
            files[rel] = {
                "num_statements": len(executable),
                "covered_lines": len(hit),
                "percent_covered": (
                    100.0 * len(hit) / len(executable) if executable else 100.0
                ),
            }
    percent = 100.0 * total_hit / total_executable if total_executable else 0.0
    document = {
        "meta": {"tool": "stdlib-trace"},
        "totals": {
            "percent_covered": round(percent, 2),
            "num_statements": total_executable,
            "covered_lines": total_hit,
        },
        "files": files,
    }
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2)
        out.write("\n")
    print(f"measured {percent:.2f}% line coverage "
          f"({total_hit}/{total_executable} lines) -> {args.out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    check = sub.add_parser("check", help="gate against the baseline")
    check.add_argument("coverage_json")
    record = sub.add_parser("record", help="rewrite the baseline")
    record.add_argument("coverage_json")
    measure = sub.add_parser("measure", help="stdlib-only measurement")
    measure.add_argument("--out", default="coverage.json")
    args = parser.parse_args()
    return {"check": cmd_check, "record": cmd_record,
            "measure": cmd_measure}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
