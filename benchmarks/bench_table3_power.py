"""Table III — phone power consumption per sensor setting (mW).

Paper (HTC Sensation / Nexus One, screen off, 10-minute Monsoon
sessions): baseline ≈70/84, cellular 1 Hz ≈72/85, GPS 0.5 Hz ≈340/333,
cellular+mic(Goertzel) ≈82/96, GPS+mic(Goertzel) ≈447/443.  The app's
draw is within ~12 mW of idle; using GPS instead would cost ~5×.
"""

import numpy as np

from conftest import BENCH_SEED, report
from repro.eval.reporting import render_table
from repro.phone.power import Handset, PowerModel, TABLE_III_SETTINGS

PAPER_MW = {
    "No sensors": (70.0, 84.0),
    "Cellular 1Hz": (72.0, 85.0),
    "GPS 0.5Hz": (340.0, 333.0),
    "Cellular+Mic(Goertzel)": (82.0, 96.0),
    "GPS+Mic(Goertzel)": (447.0, 443.0),
}


def run_sessions(model, seed):
    # A fresh generator per call: every benchmark round draws the same sessions.
    return model.table_iii(rng=np.random.default_rng(seed), sessions=10)


def test_table3_power(benchmark):
    model = PowerModel()
    table = benchmark(run_sessions, model, BENCH_SEED)

    rows = []
    for label, _ in TABLE_III_SETTINGS:
        paper_htc, paper_nexus = PAPER_MW[label]
        htc_mean, htc_std = table[label]["htc"]
        nexus_mean, nexus_std = table[label]["nexus"]
        rows.append([
            label, paper_htc, f"{htc_mean:.0f} ({htc_std:.0f})",
            paper_nexus, f"{nexus_mean:.0f} ({nexus_std:.0f})",
        ])
    report(
        "table3_power",
        render_table(
            ["sensor setting", "paper HTC", "measured HTC",
             "paper Nexus", "measured Nexus"],
            rows,
            title="Table III — power consumption (mW, mean over sessions)",
        ),
    )

    for label, (paper_htc, paper_nexus) in PAPER_MW.items():
        htc_mean, _ = table[label]["htc"]
        nexus_mean, _ = table[label]["nexus"]
        np.testing.assert_allclose(htc_mean, paper_htc, rtol=0.25)
        np.testing.assert_allclose(nexus_mean, paper_nexus, rtol=0.25)
    # The two §IV-D headline comparisons.
    app_htc = model.mean_power_mw(
        Handset.HTC_SENSATION, dict(TABLE_III_SETTINGS)["Cellular+Mic(Goertzel)"]
    )
    gps_htc = model.mean_power_mw(
        Handset.HTC_SENSATION, dict(TABLE_III_SETTINGS)["GPS+Mic(Goertzel)"]
    )
    assert gps_htc / app_htc > 4.0
