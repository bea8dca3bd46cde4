"""Fig. 2(b)/(c) — similarity of bus-stop cellular fingerprints.

Paper, same stop (self-similarity): ~90% of scores > 3 and >50% > 4.
Paper, different stops: ~70% score exactly 0, >90% below 2; after
merging the two sides of the road ("effective"), ≥94% below 2.

This bench surveys the fingerprint database, re-scans every stop under
fresh temporal noise, and reproduces both CDFs.  The measured shape is
what justifies the acceptance threshold γ = 2.
"""

import itertools

import numpy as np

from conftest import BENCH_SEED, report
from repro.core.matching import batch_smith_waterman
from repro.eval.metrics import Cdf
from repro.eval.reporting import render_table

REVISITS_PER_STOP = 4


def self_similarity_scores(world, seed):
    # A fresh generator per call: every benchmark round scans the same noise.
    rng = np.random.default_rng(seed)
    pairs_up, pairs_db = [], []
    for station in world.city.registry.stations:
        fingerprint = world.database.fingerprint(station.station_id)
        for rep in range(REVISITS_PER_STOP):
            platform = station.stops[rep % len(station.stops)]
            obs = world.scanner.scan(platform.position, rng)
            pairs_up.append(obs.tower_ids)
            pairs_db.append(fingerprint)
    return batch_smith_waterman(pairs_up, pairs_db, world.config.matching)


def cross_similarity_scores(world):
    """All distinct station pairs (already side-merged = 'effective')."""
    ids = world.database.station_ids
    pairs_up, pairs_db = [], []
    for i, j in itertools.combinations(range(len(ids)), 2):
        pairs_up.append(world.database.fingerprint(ids[i]))
        pairs_db.append(world.database.fingerprint(ids[j]))
    return batch_smith_waterman(pairs_up, pairs_db, world.config.matching)


def platform_cross_scores(world, rng):
    """'Overall' curve: treat each physical platform separately.

    Includes opposite-side platform pairs, whose near-identical
    fingerprints create the paper's high-similarity tail in Fig. 2(c).
    """
    scans = []
    for station in world.city.registry.stations:
        for platform in station.stops:
            scans.append(
                (station.station_id, world.scanner.scan(platform.position, rng).tower_ids)
            )
    pairs_up, pairs_db, same_station = [], [], []
    for (sa, fa), (sb, fb) in itertools.combinations(scans, 2):
        if not fa or not fb:
            continue
        pairs_up.append(fa)
        pairs_db.append(fb)
        same_station.append(sa == sb)
    scores = batch_smith_waterman(pairs_up, pairs_db, world.config.matching)
    # "Different stops" per the paper's overall curve = different platforms,
    # where the two sides of one road count as different stops.
    return np.array([s for s, same in zip(scores, same_station) if not same])


def test_fig02_fingerprint_similarity(benchmark, paper_world):
    self_scores = benchmark(self_similarity_scores, paper_world, BENCH_SEED + 1)
    effective = cross_similarity_scores(paper_world)
    overall = platform_cross_scores(paper_world, np.random.default_rng(BENCH_SEED + 2))

    self_cdf = Cdf.of(self_scores)
    rows = [
        ["self: fraction > 3", "~0.90", round(1 - self_cdf.fraction_below(3.0), 3)],
        ["self: fraction > 4", ">0.50", round(1 - self_cdf.fraction_below(4.0), 3)],
        ["cross overall: fraction = 0", "~0.70", round(float(np.mean(overall == 0)), 3)],
        ["cross overall: fraction < 2", ">0.90", round(float(np.mean(overall < 2)), 3)],
        ["cross effective: fraction < 2", ">=0.94", round(float(np.mean(effective < 2)), 3)],
    ]
    report(
        "fig02_fingerprints",
        render_table(
            ["statistic", "paper", "measured"],
            rows,
            title="Fig. 2(b)/(c) — fingerprint similarity CDFs",
        ),
    )

    # Shape assertions: stops are self-consistent and mutually distinct.
    assert 1 - self_cdf.fraction_below(3.0) > 0.6
    assert 1 - self_cdf.fraction_below(4.0) > 0.35
    assert float(np.mean(overall < 2)) > 0.9
    assert float(np.mean(effective < 2)) >= 0.94
    # Self-similarity must dominate cross-similarity by a wide margin —
    # this separation is what makes γ = 2 workable.
    assert self_cdf.median > np.percentile(effective, 99)
