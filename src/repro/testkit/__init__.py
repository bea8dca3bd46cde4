"""Correctness tooling: reference oracles, golden traces, conformance.

The `core/` estimators — Smith-Waterman matching, threshold clustering,
route-constrained sequence mapping — are hot paths that keep being
rewritten for speed.  This package is their standing referee:

* :mod:`repro.testkit.oracles` — deliberately naive, spec-literal
  implementations of the three estimators and of the cellular scan,
  used as differential-testing references.  They trade every
  optimisation (inverted indexes, vectorised DP, Viterbi decomposition,
  staleness pruning, batched radio draws) for line-by-line fidelity to
  §III of the paper.
* :mod:`repro.testkit.scenarios` — randomized scenario generators for
  each estimator plus the fixed end-to-end *golden* scenario.
* :mod:`repro.testkit.golden` — records a full end-to-end run (uploads,
  per-stage intermediates, final map + stats) as a canonical JSON trace,
  with normalization rules that make traces byte-identical across runs,
  and diffs traces structurally.
* :mod:`repro.testkit.conformance` — orchestrates differential runs and
  golden checks; backs the ``repro conformance`` CLI verb and CI's
  conformance smoke job.
* :mod:`repro.testkit.ziggurat` — re-derives the normal-ziggurat tables
  the batched shadow-lattice draw copies from numpy, by probing
  ``Generator.standard_normal`` with crafted PCG64 states.
"""

from repro.testkit.conformance import (
    ConformanceReport,
    run_conformance,
    run_differential,
)
from repro.testkit.golden import (
    GOLDEN_TRACE_VERSION,
    diff_traces,
    load_trace,
    record_trace,
    render_trace,
    trace_from_run,
    trace_from_server,
    write_trace,
)
from repro.testkit.oracles import (
    OracleMatcher,
    OracleScanner,
    oracle_cluster_trip_samples,
    oracle_enumerate_sequences,
    oracle_map_variants,
    oracle_smith_waterman,
)

__all__ = [
    "ConformanceReport",
    "GOLDEN_TRACE_VERSION",
    "OracleMatcher",
    "OracleScanner",
    "diff_traces",
    "load_trace",
    "oracle_cluster_trip_samples",
    "oracle_enumerate_sequences",
    "oracle_map_variants",
    "oracle_smith_waterman",
    "record_trace",
    "render_trace",
    "run_conformance",
    "run_differential",
    "trace_from_run",
    "trace_from_server",
    "write_trace",
]
