"""Fig. 3 — an example area with the cellular fingerprints of 15 stops.

The paper lists the ordered cell-ID sets of 15 bus stops in one
neighbourhood and observes that "the sets of cell IDs for different bus
stops are highly different from each other".  This bench prints the
same kind of listing for a 15-stop corridor of route 179 and quantifies
the pairwise distinctness.
"""

import itertools

import numpy as np

from conftest import report
from repro.core.matching import batch_smith_waterman
from repro.eval.reporting import render_table

N_STOPS = 15


def corridor_fingerprints(world):
    route = world.city.route_network.route("179-0")
    stations = route.station_sequence[:N_STOPS]
    return {sid: world.database.fingerprint(sid) for sid in stations}


def test_fig03_example_area(benchmark, paper_world):
    fingerprints = benchmark(corridor_fingerprints, paper_world)

    rows = [
        [station_id, ", ".join(str(t) for t in towers)]
        for station_id, towers in fingerprints.items()
    ]
    ids = list(fingerprints)
    pairs = list(itertools.combinations(ids, 2))
    pair_scores = batch_smith_waterman(
        [fingerprints[a] for a, _ in pairs],
        [fingerprints[b] for _, b in pairs],
        paper_world.config.matching,
    ).tolist()
    summary = (
        f"\npairwise similarity over the corridor: "
        f"mean={np.mean(pair_scores):.2f}, max={np.max(pair_scores):.2f}, "
        f"fraction zero={np.mean(np.array(pair_scores) == 0):.2f}"
    )
    report(
        "fig03_example_area",
        render_table(
            ["station", "cell IDs (descending RSS)"],
            rows,
            title="Fig. 3 — cellular fingerprints of 15 stops on route 179",
        )
        + summary,
    )

    assert len(fingerprints) == N_STOPS
    # Every stop sees the paper's 4–7 towers and no two adjacent stops
    # share an identical ordered set.
    for towers in fingerprints.values():
        assert 1 <= len(towers) <= 7
    assert len(set(fingerprints.values())) == N_STOPS
    # "Highly different": pairwise similarity rarely threatens γ = 2.
    assert np.mean(np.array(pair_scores) >= 2.0) < 0.1
