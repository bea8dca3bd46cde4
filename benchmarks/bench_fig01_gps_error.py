"""Fig. 1 — CDF of GPS localisation errors in downtown Singapore.

Paper: median error ≈40 m stationary, ≈68 m moving on buses; 90th
percentiles ≈75 m and ≈130 m.  This bench regenerates both CDFs from
the urban-canyon GPS model and checks the statistics (the paper's
motivation for avoiding GPS).
"""

import numpy as np

from conftest import BENCH_SEED, report
from repro.eval.metrics import Cdf
from repro.eval.reporting import render_table
from repro.radio import GpsCondition, GpsErrorModel

N_FIXES = 2000

PAPER = {
    GpsCondition.STATIONARY: (40.0, 75.0),
    GpsCondition.ON_BUS: (68.0, 130.0),
}


def run_experiment(seed):
    # A fresh generator per call: every benchmark round draws the same fixes.
    rng = np.random.default_rng(seed)
    model = GpsErrorModel()
    cdfs = {
        condition: Cdf.of(model.sample_errors(condition, N_FIXES, rng))
        for condition in GpsCondition
    }
    return cdfs


def test_fig01_gps_error(benchmark):
    cdfs = benchmark(run_experiment, BENCH_SEED)

    rows = []
    for condition, cdf in cdfs.items():
        paper_median, paper_p90 = PAPER[condition]
        rows.append(
            [condition.value, paper_median, round(cdf.median, 1),
             paper_p90, round(cdf.percentile(90), 1)]
        )
    from repro.eval.figures import ascii_cdf

    report(
        "fig01_gps_error",
        render_table(
            ["condition", "paper median (m)", "measured median",
             "paper p90 (m)", "measured p90"],
            rows,
            title="Fig. 1 — GPS localisation error CDFs",
        )
        + "\n\n"
        + ascii_cdf(
            {condition.value: cdf for condition, cdf in cdfs.items()},
            value_label="GPS error (m)",
        ),
    )

    for condition, cdf in cdfs.items():
        paper_median, paper_p90 = PAPER[condition]
        np.testing.assert_allclose(cdf.median, paper_median, rtol=0.1)
        np.testing.assert_allclose(cdf.percentile(90), paper_p90, rtol=0.1)
    # The on-bus curve must sit right of the stationary one (GPS is worse
    # inside the bus), which is the figure's visual message.
    assert cdfs[GpsCondition.ON_BUS].median > cdfs[GpsCondition.STATIONARY].median
