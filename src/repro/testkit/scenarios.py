"""Scenario generators for differential and golden-trace testing.

Randomized scenarios feed the differential referee: each generator
derives everything from a seeded ``numpy`` Generator, so a failing
scenario index reproduces exactly.  The fixed *golden* scenario is a
small but complete end-to-end campaign — two bus services, a half-hour
window, the real uplink channel — whose recorded trace is committed
under ``tests/golden/`` and must stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.builder import City, CitySpec, build_city
from repro.config import ClusteringConfig, MatchingConfig
from repro.core.clustering import MatchedSample, SampleCluster
from repro.core.matching import MatchResult
from repro.obs.metrics import MetricsRegistry
from repro.phone.cellular import CellularSample
from repro.sim.world import SimulationResult, World
from repro.util.units import parse_hhmm

__all__ = [
    "GOLDEN_END",
    "GOLDEN_SEED",
    "GOLDEN_SPEC",
    "GOLDEN_START",
    "ClusteringScenario",
    "MappingScenario",
    "MatchingScenario",
    "TableConstraint",
    "build_golden_city",
    "random_clustering_scenario",
    "random_mapping_scenario",
    "random_matching_scenario",
    "run_golden",
]


# -- randomized estimator scenarios --------------------------------------------


@dataclass(frozen=True)
class MatchingScenario:
    """A fingerprint database plus a batch of samples to match."""

    fingerprints: Dict[int, Tuple[int, ...]]
    samples: List[Tuple[int, ...]]
    config: MatchingConfig


def random_matching_scenario(rng: np.random.Generator) -> MatchingScenario:
    """A small city's worth of fingerprints and one upload's samples.

    The tower-id alphabet is kept tight so samples genuinely collide
    with several stops (exercising the tie-breaks), occasionally shifted
    negative (exercising the batch path's padding sentinels); sample
    lengths include zero (an empty scan must be rejected, not crash).
    """
    offset = int(rng.choice((-50, 0, 1000)))
    alphabet = [offset + i for i in range(int(rng.integers(6, 15)))]
    n_stops = int(rng.integers(2, 9))
    fingerprints: Dict[int, Tuple[int, ...]] = {}
    for station_id in rng.choice(200, size=n_stops, replace=False):
        length = int(rng.integers(2, 7))
        towers = rng.choice(alphabet, size=min(length, len(alphabet)), replace=False)
        fingerprints[int(station_id)] = tuple(int(t) for t in towers)
    samples: List[Tuple[int, ...]] = []
    for _ in range(int(rng.integers(1, 12))):
        length = int(rng.integers(0, 8))
        samples.append(
            tuple(int(t) for t in rng.choice(alphabet, size=length, replace=True))
        )
    return MatchingScenario(
        fingerprints=fingerprints, samples=samples, config=MatchingConfig()
    )


@dataclass(frozen=True)
class ClusteringScenario:
    """Accepted (matched) samples of one trip, ready to cluster."""

    matched: List[MatchedSample]
    config: ClusteringConfig


def random_clustering_scenario(rng: np.random.Generator) -> ClusteringScenario:
    """Bursty matched samples with occasional long gaps.

    Burst spacing is drawn wide enough that some inter-burst gaps exceed
    the 2·t0 staleness horizon — the prune the optimized path applies
    and the oracle deliberately omits — and scores are drawn so that
    equal-affinity ties do occur (small discrete score grid).
    """
    config = ClusteringConfig()
    stations = [int(s) for s in rng.choice(40, size=int(rng.integers(2, 6)),
                                           replace=False)]
    matched: List[MatchedSample] = []
    clock = 0.0
    for _ in range(int(rng.integers(1, 7))):       # bursts
        clock += float(rng.uniform(5.0, 180.0))    # gap, sometimes > 2*t0
        burst_station = stations[int(rng.integers(0, len(stations)))]
        for _ in range(int(rng.integers(1, 6))):   # samples within the burst
            time_s = clock + float(rng.uniform(0.0, config.max_interval_s))
            station = (
                burst_station
                if rng.random() < 0.8
                else stations[int(rng.integers(0, len(stations)))]
            )
            # Discrete grid → exact score ties are common, not freak events.
            score = float(rng.integers(4, 15)) * 0.5
            matched.append(
                MatchedSample(
                    sample=CellularSample(time_s=time_s, tower_ids=(1, 2, 3)),
                    match=MatchResult(
                        station_id=station, score=score, common_ids=2
                    ),
                )
            )
    return ClusteringScenario(matched=matched, config=config)


class TableConstraint:
    """An R(x, y) lookup table — duck-typed for :func:`map_trip`.

    The real :class:`~repro.core.trip_mapping.RouteConstraint` derives
    weights from a route network; scenarios instead draw them from
    {0, 0.5, 1.0} directly, which reaches R-configurations (cycles,
    asymmetries) no planar bus network would produce.
    """

    def __init__(self, table: Dict[Tuple[int, int], float]):
        self.table = table

    def weight(self, x: int, y: int) -> float:
        return self.table.get((x, y), 0.0)


@dataclass(frozen=True)
class MappingScenario:
    """Time-ordered clusters plus the constraint to map them under."""

    clusters: List[SampleCluster]
    constraint: TableConstraint


def random_mapping_scenario(rng: np.random.Generator) -> MappingScenario:
    """Small candidate pools under a random R table.

    Pool sizes stay small (≤3 stations per cluster, ≤5 clusters) so the
    oracle's exhaustive enumeration is cheap; weights in {0, 0.5, 1.0}
    make zero-contribution (drop-rule) and tie cases frequent.
    """
    stations = [int(s) for s in rng.choice(30, size=int(rng.integers(2, 7)),
                                           replace=False)]
    clusters: List[SampleCluster] = []
    clock = 0.0
    for _ in range(int(rng.integers(1, 6))):
        clock += float(rng.uniform(30.0, 120.0))
        members: List[MatchedSample] = []
        pool = rng.choice(
            stations, size=min(int(rng.integers(1, 4)), len(stations)),
            replace=False,
        )
        for station in pool:
            for _ in range(int(rng.integers(1, 3))):
                members.append(
                    MatchedSample(
                        sample=CellularSample(
                            time_s=clock + float(rng.uniform(0.0, 20.0)),
                            tower_ids=(1, 2),
                        ),
                        match=MatchResult(
                            station_id=int(station),
                            score=float(rng.integers(4, 15)) * 0.5,
                            common_ids=2,
                        ),
                    )
                )
        clusters.append(SampleCluster(samples=members))
    table: Dict[Tuple[int, int], float] = {}
    for x in stations:
        for y in stations:
            table[(x, y)] = float(rng.choice((0.0, 0.5, 1.0)))
    return MappingScenario(clusters=clusters, constraint=TableConstraint(table))


# -- the fixed golden end-to-end scenario --------------------------------------

#: The golden city: small enough to run in a CI smoke job, large enough to exercise matching collisions, cluster
#: merges, transfers and the uplink channel.
GOLDEN_SPEC = CitySpec(
    name="goldenville",
    width_m=3000.0,
    height_m=2000.0,
    spacing_m=420.0,
    services=("179", "199"),
    partial_services=(),
    jogs_per_route=1,
    seed=42,
)

GOLDEN_SEED = 7
GOLDEN_START = "07:30"
GOLDEN_END = "08:00"


def build_golden_city() -> City:
    """The deterministic city every golden run shares."""
    return build_city(GOLDEN_SPEC)


def run_golden(city: Optional[City] = None) -> SimulationResult:
    """One full golden campaign on a fresh :class:`World`.

    A fresh world per call keeps the duplicate ledger, rider-id counter
    and fused map independent across runs; passing a pre-built
    ``city`` just skips rebuilding identical static geometry.
    ``keep_matches=True`` exposes the per-sample verdicts the trace
    records.
    """
    # A real (recording) registry: the trace snapshots the deterministic
    # metric families, so a rewrite that silently changes pipeline-side
    # counting is caught too.
    world = World(
        city=city or build_golden_city(),
        seed=GOLDEN_SEED,
        registry=MetricsRegistry(),
    )
    return world.run(
        parse_hhmm(GOLDEN_START),
        parse_hhmm(GOLDEN_END),
        with_official_feed=False,
        keep_matches=True,
    )
