"""Per-trip mapping: route-constrained sequence estimation (§III-C3).

Given a trip's time-ordered sample clusters, each with a pool of
candidate stops, find the stop sequence that maximises the paper's
Eq. (2):

    S* = argmax  p₁s̄₁ + Σ_{k≥2} p_k s̄_k · R(b_{k−1}, b_k)

where R encodes the bus-route order constraint: buses only visit stops
downstream of where they already are.  The paper describes enumerating
all N = Π B_k sequences; because the objective decomposes over
consecutive pairs, a Viterbi-style dynamic program finds the same
argmax in O(Σ B_k²) — the exponential enumeration is unnecessary (it
is the test oracle :func:`repro.testkit.oracles.oracle_enumerate_sequences`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.city.routes import RouteNetwork
from repro.config import TripMappingConfig
from repro.core.clustering import CandidateStop, SampleCluster
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: A chosen candidate contributing no more than this to Eq. (2) is treated
#: as routed-around and dropped from the mapped trip.  Shared with the
#: spec-literal oracle (`repro.testkit.oracles`) so both sides apply the
#: identical drop rule.
DROP_EPSILON: float = 1e-9


@dataclass(frozen=True)
class MappedStop:
    """One cluster resolved to a stop, with its timing."""

    station_id: int
    arrival_s: float
    depart_s: float
    cluster_size: int
    weight: float               # the Eq. (2) term this choice contributed


@dataclass
class MappedTrip:
    """The trajectory of one uploaded trip, mapped onto bus stops."""

    stops: List[MappedStop]
    score: float

    def station_sequence(self) -> List[int]:
        """Resolved stations in travel order."""
        return [s.station_id for s in self.stops]


class RouteConstraint:
    """The paper's R(x, y) relation over the route network."""

    def __init__(
        self,
        route_network: RouteNetwork,
        config: Optional[TripMappingConfig] = None,
    ):
        self.routes = route_network
        self.config = config or TripMappingConfig()

    def weight(self, x: int, y: int) -> float:
        """R(x, y): order-feasibility weight of visiting y right after x."""
        if x == y:
            return self.config.same_stop_weight
        if self.routes.downstream(x, y):
            return self.config.downstream_weight
        if self.routes.reachable_with_transfer(x, y):
            return self.config.downstream_weight
        return 0.0


def map_trip(
    clusters: Sequence[SampleCluster],
    constraint: RouteConstraint,
    min_weight: float = DROP_EPSILON,
    registry: Optional[MetricsRegistry] = None,
) -> Optional[MappedTrip]:
    """Resolve each cluster to its most likely stop under route constraints.

    Returns None when no cluster has any candidate (nothing matched).
    Clusters whose chosen candidate contributes (numerically) zero weight
    — i.e. the best sequence routes "around" them — are dropped from the
    result rather than mapped arbitrarily.

    ``registry`` (optional) receives ``trip_mapping_*`` counters and a
    per-cluster candidate-pool histogram.
    """
    reg = registry if registry is not None else NULL_REGISTRY
    reg.counter("trip_mapping_attempts", help="trips offered for mapping").inc()
    pools: List[List[CandidateStop]] = [c.candidates() for c in clusters]
    pool_hist = reg.histogram(
        "trip_mapping_candidates_per_cluster",
        buckets=(0, 1, 2, 3, 5, 8),
        help="candidate stops per cluster",
    )
    for pool in pools:
        pool_hist.observe(len(pool))
    kept_indices = [i for i, pool in enumerate(pools) if pool]
    if not kept_indices:
        reg.counter(
            "trip_mapping_unmapped", help="trips with no mappable cluster"
        ).inc()
        return None
    kept_pools = [pools[i] for i in kept_indices]

    # Viterbi over candidate pools: score[k][i] = best achievable sum of
    # Eq. (2) terms for clusters 0..k ending with candidate i.
    scores: List[List[float]] = []
    backptr: List[List[int]] = []
    first = [candidate.weight for candidate in kept_pools[0]]
    scores.append(first)
    backptr.append([-1] * len(first))
    for k in range(1, len(kept_pools)):
        row: List[float] = []
        back: List[int] = []
        for candidate in kept_pools[k]:
            best_prev = 0
            best_value = -1.0
            for j, prev in enumerate(kept_pools[k - 1]):
                value = scores[k - 1][j] + candidate.weight * constraint.weight(
                    prev.station_id, candidate.station_id
                )
                if value > best_value:
                    best_value = value
                    best_prev = j
            row.append(best_value)
            back.append(best_prev)
        scores.append(row)
        backptr.append(back)

    # Backtrack from the best final candidate.
    last = max(range(len(scores[-1])), key=lambda i: scores[-1][i])
    choice = [0] * len(kept_pools)
    choice[-1] = last
    for k in range(len(kept_pools) - 1, 0, -1):
        choice[k - 1] = backptr[k][choice[k]]

    stops: List[MappedStop] = []
    for position, (pool_index, cluster_index) in enumerate(
        zip(choice, kept_indices)
    ):
        candidate = kept_pools[position][pool_index]
        cluster = clusters[cluster_index]
        if position > 0:
            prev_candidate = kept_pools[position - 1][choice[position - 1]]
            contributed = candidate.weight * constraint.weight(
                prev_candidate.station_id, candidate.station_id
            )
        else:
            contributed = candidate.weight
        if position > 0 and contributed <= min_weight:
            # The constraint zeroed this cluster out: it is inconsistent
            # with the surrounding trajectory (a stray mismatch).
            continue
        stops.append(
            MappedStop(
                station_id=candidate.station_id,
                arrival_s=cluster.arrival_s,
                depart_s=cluster.depart_s,
                cluster_size=len(cluster),
                weight=contributed,
            )
        )
    if not stops:
        reg.counter(
            "trip_mapping_unmapped", help="trips with no mappable cluster"
        ).inc()
        return None
    reg.counter("trip_mapping_mapped", help="trips successfully mapped").inc()
    return MappedTrip(stops=stops, score=float(scores[-1][last]))

