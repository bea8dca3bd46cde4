"""Crash-recovery harness: SIGKILL a real campaign, resume, compare.

Each scenario runs ``repro campaign --store`` in a subprocess with a
``REPRO_FAULT`` fault point armed, so the process SIGKILLs *itself* at
a precise durability-critical instant:

* ``wal_append`` — between the frame header and payload writes of the
  append log, leaving a genuinely torn record on disk;
* ``snapshot``   — after the snapshot tmp-file is written but before the
  atomic rename commits it;
* ``apply``      — after a trip is journaled but before any server state
  mutates (the write-ahead window).

The resumed run must produce a golden trace **byte-identical** to an
uninterrupted run of the same campaign; mid-day recovery also exercises
the skip-events fast-forward.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Small enough to keep each subprocess a few seconds, big enough that
# day 0 spans >30 WAL records and day 1 exists (so the snapshot fault
# at the day-0 boundary has work left to resume into).
CAMPAIGN = [
    "--sparse-days", "1", "--intensive-days", "1",
    "--start", "07:30", "--end", "08:00",
    "--headway", "900", "--seed", "3",
]


def _run(args, env_extra=None, check=True):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_FAULT", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", *CAMPAIGN, *args],
        capture_output=True, text=True, env=env, cwd=str(ROOT),
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Golden trace of the uninterrupted campaign."""
    path = tmp_path_factory.mktemp("baseline") / "baseline.json"
    _run(["--golden-out", str(path)])
    return path.read_bytes()


@pytest.fixture(scope="module")
def scenario_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("scenarios")


# (fault spec, extra flags): wal_append:30 tears a frame mid-day-0,
# apply:200 dies in the write-ahead window mid-day-1, snapshot:1 dies
# inside the day-0 boundary snapshot (cadence lowered so it fires).
SCENARIOS = [
    pytest.param("wal_append:30", [], id="mid-wal-append"),
    pytest.param("apply:200", [], id="mid-batch-apply"),
    pytest.param("snapshot:1", ["--snapshot-every", "10"], id="mid-snapshot"),
]


@pytest.mark.slow
@pytest.mark.parametrize("fault,extra", SCENARIOS)
def test_sigkill_then_resume_is_byte_identical(
    baseline, scenario_tmp, fault, extra
):
    store = scenario_tmp / fault.split(':')[0]
    golden = scenario_tmp / f"{fault.split(':')[0]}.json"
    flags = ["--store", str(store), *extra]

    killed = _run(flags, env_extra={"REPRO_FAULT": fault}, check=False)
    assert killed.returncode == -9, (
        f"fault {fault} did not SIGKILL the campaign: "
        f"rc={killed.returncode}\n{killed.stderr}"
    )
    assert store.exists(), "the WAL must survive the crash"

    _run([*flags, "--resume", "--golden-out", str(golden)])
    assert golden.read_bytes() == baseline, (
        "resumed campaign diverged from the uninterrupted run"
    )


@pytest.mark.slow
def test_two_crashes_then_resume(baseline, scenario_tmp):
    """Crash during the first run AND during the first resume."""
    store = scenario_tmp / "double-crash"
    golden = scenario_tmp / "double-crash.json"
    flags = ["--store", str(store)]

    first = _run(flags, env_extra={"REPRO_FAULT": "wal_append:30"},
                 check=False)
    assert first.returncode == -9
    second = _run([*flags, "--resume"],
                  env_extra={"REPRO_FAULT": "apply:150"}, check=False)
    assert second.returncode == -9

    _run([*flags, "--resume", "--golden-out", str(golden)])
    assert golden.read_bytes() == baseline


@pytest.mark.slow
def test_resume_of_finished_campaign_is_stable(baseline, scenario_tmp):
    """Resuming a campaign that already completed replays, re-simulates
    nothing, and renders the identical trace."""
    store = scenario_tmp / "finished"
    golden = scenario_tmp / "finished.json"
    flags = ["--store", str(store)]
    _run(flags)
    _run([*flags, "--resume", "--golden-out", str(golden)])
    assert golden.read_bytes() == baseline


def test_resume_without_store_exits_with_usage_error():
    proc = _run(["--resume"], check=False)
    assert proc.returncode == 2
    assert "--resume requires --store" in proc.stderr


def test_fault_spec_is_read_once_and_a_bad_count_raises_at_first_hit():
    """``REPRO_FAULT`` is read at import; a malformed count is reported
    at the first hit of the named point, not before, not elsewhere."""
    import os

    code = "\n".join([
        "import os",
        "from repro.store.faults import fault_point, faults_armed",
        "os.environ['REPRO_FAULT'] = 'wal_append'",
        "fault_point('wal_append')",
        "assert faults_armed('apply') and not faults_armed('wal_append')",
        "try:",
        "    fault_point('apply')",
        "except ValueError as exc:",
        "    print(exc)",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_FAULT="apply:x")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "malformed REPRO_FAULT spec 'apply:x'\n"


def test_identical_stored_campaigns_write_identical_snapshots(
    tmp_path, monkeypatch, capsys
):
    """A snapshot holds no wall-clock value: two identical stored
    campaigns write byte-identical ``snapshot.json`` files."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    snapshots = []
    for name in ("a", "b"):
        store = tmp_path / name
        assert main([
            "campaign", "--sparse-days", "1", "--intensive-days", "0",
            "--start", "07:30", "--end", "07:45", "--seed", "3",
            "--store", str(store), "--snapshot-every", "10",
        ]) == 0
        snapshots.append((store / "snapshot.json").read_bytes())
    capsys.readouterr()
    assert b"store_wal_appends_total" in snapshots[0]
    assert snapshots[0] == snapshots[1]
