#!/usr/bin/env python
"""CI durability smoke: SIGKILL a stored campaign, resume it, diff.

This script:

1. runs the reference campaign straight through (no store) and keeps
   its golden trace;
2. runs the same campaign with ``--store``, with a ``REPRO_FAULT``
   fault point armed so the process SIGKILLs itself mid-WAL-append —
   leaving a torn frame on disk;
3. resumes with ``--resume`` and renders the recovered golden trace;
4. byte-compares the two traces.

Any divergence writes a unified diff to
``benchmarks/reports/store_golden_diff.txt`` (uploaded as a CI
artifact) and exits nonzero.  The verdict summary goes to
``benchmarks/reports/store_smoke.json``.

Run from the repo root::

    python scripts/store_smoke.py
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REPORT_DIR = os.path.join(ROOT, "benchmarks", "reports")
DIFF_PATH = os.path.join(REPORT_DIR, "store_golden_diff.txt")
REPORT_PATH = os.path.join(REPORT_DIR, "store_smoke.json")

CAMPAIGN = [
    "--sparse-days", "1", "--intensive-days", "1",
    "--start", "07:30", "--end", "08:00",
    "--headway", "900", "--seed", "3",
]
#: Dies between the WAL frame header and payload — a torn record.
FAULT = "wal_append:30"


def run_campaign(args, fault=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_FAULT", None)
    if fault:
        env["REPRO_FAULT"] = fault
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", *CAMPAIGN, *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def check_resume(tmp):
    base_path = os.path.join(tmp, "base.json")
    resumed_path = os.path.join(tmp, "resumed.json")
    store = os.path.join(tmp, "store")

    proc = run_campaign(["--golden-out", base_path])
    if proc.returncode != 0:
        raise SystemExit(f"baseline failed:\n{proc.stderr}")

    killed = run_campaign(["--store", store], fault=FAULT)
    if killed.returncode != -9:
        raise SystemExit(
            f"fault {FAULT} did not SIGKILL the campaign "
            f"(rc={killed.returncode})\n{killed.stderr}"
        )

    proc = run_campaign(
        ["--store", store, "--resume", "--golden-out", resumed_path]
    )
    if proc.returncode != 0:
        raise SystemExit(f"resume failed:\n{proc.stderr}")

    with open(base_path, "rb") as f:
        base = f.read()
    with open(resumed_path, "rb") as f:
        resumed = f.read()
    identical = base == resumed
    if not identical:
        with open(DIFF_PATH, "w", encoding="utf-8") as f:
            f.write("=== resumed vs straight-through ===\n")
            f.writelines(difflib.unified_diff(
                base.decode("utf-8").splitlines(keepends=True),
                resumed.decode("utf-8").splitlines(keepends=True),
                fromfile="straight", tofile="resumed",
            ))
    return {
        "fault": FAULT,
        "killed_returncode": killed.returncode,
        "golden_bytes": len(base),
        "byte_identical": identical,
    }


def main():
    os.makedirs(REPORT_DIR, exist_ok=True)
    if os.path.exists(DIFF_PATH):
        os.remove(DIFF_PATH)
    with tempfile.TemporaryDirectory(prefix="store-smoke-") as tmp:
        row = check_resume(tmp)
    verdict = "ok" if row["byte_identical"] else "DIVERGED"
    print(f"killed at {FAULT}, resumed, golden {row['golden_bytes']} "
          f"bytes — {verdict}")
    report = {"fault": FAULT, "runs": [row], "ok": row["byte_identical"]}
    with open(REPORT_PATH, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    if not report["ok"]:
        print(f"resumed trace diverged; diff at {DIFF_PATH}",
              file=sys.stderr)
        return 1
    print("store smoke: resume is byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
