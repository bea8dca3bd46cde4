"""Conformance runs: differential oracle checks + golden-trace checks.

Two independent referees, one verdict:

* **Differential** — :func:`run_differential` replays randomized
  scenarios through the optimized `core/` estimators and the
  spec-literal oracles, comparing results *exactly* (``==`` on floats:
  both sides perform the same IEEE-754 operations in the same order, so
  any difference is a semantic divergence, not noise).
* **Golden** — :func:`check_golden` re-runs the fixed end-to-end golden
  campaign and demands it render byte-identically to the committed
  fixture.

``repro conformance`` and ``scripts/conformance_smoke.py`` are thin
shells over :func:`run_conformance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.clustering import cluster_trip_samples
from repro.core.matching import SampleMatcher
from repro.core.trip_mapping import map_trip
from repro.testkit.golden import (
    default_trace_path,
    diff_traces,
    load_trace,
    render_trace,
    trace_from_run,
    write_trace,
)
from repro.testkit.oracles import (
    OracleMatcher,
    oracle_cluster_trip_samples,
    oracle_map_variants,
)
from repro.testkit.scenarios import (
    build_golden_city,
    random_clustering_scenario,
    random_mapping_scenario,
    random_matching_scenario,
    run_golden,
)

__all__ = [
    "ConformanceReport",
    "check_golden",
    "record_golden",
    "run_conformance",
    "run_differential",
]

# -- differential --------------------------------------------------------------


def _check_matching(rng: np.random.Generator, tag: str) -> List[str]:
    """The production matcher (incidence plan, pattern table) vs the
    oracle's whole-database scan, per sample and batched — the batch
    pass scores again every sequence the per-sample pass already saw."""
    scenario = random_matching_scenario(rng)
    optimized = SampleMatcher(scenario.fingerprints, scenario.config)
    oracle = OracleMatcher(scenario.fingerprints, scenario.config)
    failures: List[str] = []
    expected = oracle.match_many(scenario.samples)
    for index, sample in enumerate(scenario.samples):
        got = optimized.match(sample)
        if got != expected[index]:
            failures.append(
                f"{tag}: match(sample {index}) {got} != oracle {expected[index]}"
            )
    batched = optimized.match_many(scenario.samples)
    for index, (got, want) in enumerate(zip(batched, expected)):
        if got != want:
            failures.append(
                f"{tag}: match_many[{index}] {got} != oracle {want}"
            )
    return failures


def _check_clustering(rng: np.random.Generator, tag: str) -> List[str]:
    scenario = random_clustering_scenario(rng)
    optimized = cluster_trip_samples(scenario.matched, scenario.config)
    expected = oracle_cluster_trip_samples(scenario.matched, scenario.config)
    got = [cluster.samples for cluster in optimized]
    if got != expected:
        return [
            f"{tag}: clustering diverged — optimized "
            f"{[[m.time_s for m in c] for c in got]} != oracle "
            f"{[[m.time_s for m in c] for c in expected]}"
        ]
    return []


def _check_mapping(rng: np.random.Generator, tag: str) -> List[str]:
    scenario = random_mapping_scenario(rng)
    result = map_trip(scenario.clusters, scenario.constraint)
    expected = oracle_map_variants(scenario.clusters, scenario.constraint)
    if expected is None:
        if result is not None:
            return [f"{tag}: mapper mapped a trip the oracle found unmappable"]
        return []
    best_score, variants = expected
    if result is None:
        # The mapper returns None when every chosen stop was dropped; legal
        # only if some optimal sequence indeed drops to nothing.
        if [] not in variants:
            return [
                f"{tag}: mapper returned None but every optimal sequence "
                f"keeps stops (score {best_score})"
            ]
        return []
    failures: List[str] = []
    if result.score != best_score:
        failures.append(
            f"{tag}: mapper score {result.score!r} != oracle optimum "
            f"{best_score!r}"
        )
    if result.stops not in variants:
        failures.append(
            f"{tag}: mapped sequence {result.station_sequence()} is not "
            f"among the {len(variants)} oracle-optimal variants"
        )
    return failures


def run_differential(scenarios: int = 25, seed: int = 0) -> List[str]:
    """Differentially test all three estimators on randomized scenarios.

    Returns failure messages (empty = conformant).  Scenario ``i`` is
    seeded as ``(seed, i)``, so a reported tag reproduces standalone.
    """
    failures: List[str] = []
    for index in range(scenarios):
        for kind, check in (
            ("matching", _check_matching),
            ("clustering", _check_clustering),
            ("mapping", _check_mapping),
        ):
            rng = np.random.default_rng([seed, index])
            failures.extend(check(rng, f"{kind} scenario {index} (seed {seed})"))
    return failures


# -- golden --------------------------------------------------------------------


def record_golden(fixture: Optional[Path] = None) -> Path:
    """Re-record the committed fixture from a fresh golden run."""
    fixture = Path(fixture) if fixture is not None else default_trace_path()
    write_trace(trace_from_run(run_golden(city=build_golden_city())), fixture)
    return fixture


def check_golden(fixture: Optional[Path] = None) -> List[str]:
    """Replay the golden campaign and diff it against the fixture.

    Returns the diff lines — empty means the run is byte-identical to
    the committed trace.
    """
    fixture = Path(fixture) if fixture is not None else default_trace_path()
    if not fixture.exists():
        raise FileNotFoundError(
            f"golden fixture {fixture} missing — record it with "
            "`repro conformance --record`"
        )
    expected_bytes = fixture.read_text(encoding="utf-8")
    trace = trace_from_run(run_golden(city=build_golden_city()))
    if render_trace(trace) == expected_bytes:
        return []
    # Byte drift without structural drift (formatting/version skew) still
    # fails, with an explicit reason.
    return diff_traces(load_trace(fixture), trace) or [
        "render differs from fixture bytes (re-record the fixture with "
        "`repro conformance --record`)"
    ]


# -- the full run --------------------------------------------------------------


@dataclass
class ConformanceReport:
    """Outcome of one conformance run (differential + golden)."""

    scenarios: int
    seed: int
    differential_failures: List[str] = field(default_factory=list)
    golden_fixture: Optional[str] = None
    golden_diff: List[str] = field(default_factory=list)
    recorded: bool = False

    @property
    def ok(self) -> bool:
        return not self.differential_failures and not self.golden_diff

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scenarios": self.scenarios,
            "seed": self.seed,
            "differential_failures": list(self.differential_failures),
            "golden_fixture": self.golden_fixture,
            "golden_diff": list(self.golden_diff),
            "recorded": self.recorded,
        }

    def summary(self) -> str:
        lines = [
            f"differential: {self.scenarios} scenarios x 3 estimators — "
            + (
                "all conformant"
                if not self.differential_failures
                else f"{len(self.differential_failures)} FAILURES"
            )
        ]
        for failure in self.differential_failures:
            lines.append(f"  {failure}")
        if self.golden_fixture is not None:
            verb = "recorded" if self.recorded else "checked"
            state = (
                "byte-identical" if not self.golden_diff
                else f"{len(self.golden_diff)} diffs"
            )
            lines.append(f"golden: {verb} {self.golden_fixture}: {state}")
            for line in self.golden_diff:
                lines.append(f"  {line}")
        return "\n".join(lines)


def run_conformance(
    scenarios: int = 25,
    seed: int = 0,
    *,
    record: bool = False,
    check: bool = True,
    fixture: Optional[Path] = None,
) -> ConformanceReport:
    """The full conformance suite, as the CLI and CI run it.

    ``record=True`` re-records the golden fixture instead of checking
    against it.
    """
    report = ConformanceReport(scenarios=scenarios, seed=seed)
    report.differential_failures = run_differential(scenarios, seed)
    if record:
        report.golden_fixture = str(record_golden(fixture))
        report.recorded = True
    elif check:
        path = Path(fixture) if fixture is not None else default_trace_path()
        report.golden_fixture = str(path)
        report.golden_diff = check_golden(path)
    return report
