#!/usr/bin/env python
"""CI conformance smoke: oracles + golden trace, with diff artifacts.

Runs the full conformance suite in-process — ``--scenarios`` randomized
differential scenarios per estimator against the spec-literal oracles,
then the golden end-to-end campaign, byte-compared to the committed
``tests/golden/campaign_small.json``.

Always writes two artifacts to ``benchmarks/reports/`` for CI upload:

* ``conformance_report.json`` — the machine-readable verdict.
* ``golden_diff.txt`` — structural diff lines on golden mismatch
  (empty when the run is byte-identical).

Run from the repo root::

    PYTHONPATH=src python scripts/conformance_smoke.py [--scenarios N]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.testkit.conformance import run_conformance     # noqa: E402

REPORT_DIR = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "reports"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=25,
                        help="randomized scenarios per estimator")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(REPORT_DIR, exist_ok=True)
    report = run_conformance(
        scenarios=args.scenarios,
        seed=args.seed,
    )
    print(report.summary())

    with open(
        os.path.join(REPORT_DIR, "conformance_report.json"),
        "w", encoding="utf-8",
    ) as out:
        json.dump(report.as_dict(), out, indent=2)

    diff_lines = report.golden_diff
    with open(
        os.path.join(REPORT_DIR, "golden_diff.txt"), "w", encoding="utf-8"
    ) as out:
        out.write("\n".join(diff_lines) + ("\n" if diff_lines else ""))

    if not report.ok:
        print("conformance FAILED — see golden_diff.txt / "
              "conformance_report.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
