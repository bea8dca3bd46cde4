"""Per-bus-stop co-clustering of a trip's cellular samples.

§III-C2: several passengers board at each stop, so each stop yields a
burst of matched samples.  Two samples ``e_i``, ``e_j`` belong to the
same cluster when they are close in time *and* match similarly:

    (t0 − |t_j − t_i|) / t0 + L(e_i, e_j) > ε

with the match-affinity

    L = (s0 − |s_j − s_i|) / s0   if both matched the same stop, else 0

and s0 = 7, t0 = 30 s, ε = 0.6 (Fig. 5 shows accuracy plateaus for
ε ≈ 0.3–1.3).  Each resulting cluster carries a pool of candidate stops
with the paper's per-candidate probability p_k(i) and mean similarity
s̄_k(i) feeding the per-trip sequence mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ClusteringConfig
from repro.core.matching import MatchResult
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.phone.cellular import CellularSample

#: Once the gap from a sample to a cluster's departing point exceeds
#: ``STALE_AFTER_FACTOR * t0`` the Eq. (1) time term alone pushes the
#: affinity below any ε in (0, 2], so the cluster can be skipped without
#: scoring it.  A pure optimisation — the spec-literal oracle in
#: `repro.testkit.oracles` omits it, and differential runs verify that.
STALE_AFTER_FACTOR: float = 2.0


@dataclass(frozen=True)
class MatchedSample:
    """A cellular sample together with its per-sample match outcome."""

    sample: CellularSample
    match: MatchResult

    @property
    def time_s(self) -> float:
        """Capture time of the sample."""
        return self.sample.time_s


@dataclass(frozen=True)
class CandidateStop:
    """One candidate stop of a cluster with the paper's weights."""

    station_id: int
    probability: float          # p_k(i): fraction of samples matching it
    mean_similarity: float      # s̄_k(i): mean score of those samples

    @property
    def weight(self) -> float:
        """The Eq. (2) per-cluster term p·s̄ for this candidate."""
        return self.probability * self.mean_similarity


@dataclass
class SampleCluster:
    """A burst of samples attributed to a single (unknown) bus stop."""

    samples: List[MatchedSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def arrival_s(self) -> float:
        """Earliest sample time: the bus-stop arrival point (Fig. 6)."""
        return min(s.time_s for s in self.samples)

    @property
    def depart_s(self) -> float:
        """Latest sample time: the bus-stop departing point (Fig. 6).

        A max over every member, not the last one: clusters built by
        hand (e.g. `repro.testkit.scenarios`) may list members in any
        order.  :func:`cluster_trip_samples` appends in time order, so
        there the latest member is the last one and it tracks the
        departure itself instead of calling this.
        """
        return max(s.time_s for s in self.samples)

    def candidates(self) -> List[CandidateStop]:
        """Candidate stops with p_k(i) and s̄_k(i), best weight first."""
        by_station: Dict[int, List[float]] = {}
        for member in self.samples:
            if member.match.station_id is not None:
                by_station.setdefault(member.match.station_id, []).append(
                    member.match.score
                )
        total = len(self.samples)
        pool = [
            CandidateStop(
                station_id=station_id,
                probability=len(scores) / total,
                mean_similarity=sum(scores) / len(scores),
            )
            for station_id, scores in by_station.items()
        ]
        pool.sort(key=lambda c: (-c.weight, c.station_id))
        return pool


def link_affinity(
    a: MatchedSample, b: MatchedSample, config: ClusteringConfig
) -> float:
    """The paper's pairwise clustering affinity (Eq. 1 left-hand side)."""
    time_term = (config.max_interval_s - abs(b.time_s - a.time_s)) / config.max_interval_s
    if (
        a.match.station_id is not None
        and a.match.station_id == b.match.station_id
    ):
        match_term = (
            config.max_similarity - abs(b.match.score - a.match.score)
        ) / config.max_similarity
    else:
        match_term = 0.0
    return time_term + match_term


def cluster_trip_samples(
    matched: Sequence[MatchedSample],
    config: Optional[ClusteringConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[SampleCluster]:
    """Cluster a trip's accepted samples into per-stop bursts.

    Rejected samples (below the γ threshold) must already be filtered
    out by the caller.  Samples are processed in time order; each joins
    the open cluster whose best member affinity (Eq. 1, as
    :func:`link_affinity`) clears ε by the most, newest cluster on a
    tie, else it opens a new cluster.  Clusters are returned in time
    order.

    The scan is exact but makes no per-pair call: Eq. (1) is written
    inline in :func:`link_affinity`'s operation order over per-cluster
    ``(time, station, score)`` rows, and each cluster's departure is
    tracked as the time of its newest member — members arrive in time
    order, so that is the ``depart_s`` maximum.  Clusters departing
    more than ``STALE_AFTER_FACTOR·t0`` before the sample are skipped
    unscored.

    ``registry`` (optional) receives ``clustering_*`` counters and a
    cluster-size histogram.
    """
    config = config or ClusteringConfig()
    t0 = config.max_interval_s
    s0 = config.max_similarity
    threshold = config.threshold
    stale_gap = STALE_AFTER_FACTOR * t0
    ordered = sorted(matched, key=lambda m: m.time_s)
    clusters: List[SampleCluster] = []
    #: Per cluster: its departure and one (time, station, score) row per member.
    departs: List[float] = []
    rows: List[List[Tuple[float, Optional[int], float]]] = []
    for member in ordered:
        t = member.sample.time_s
        station = member.match.station_id
        score = member.match.score
        row = (t, station, score)
        best_index = -1
        best_affinity = threshold
        # Only recent clusters can absorb the sample (STALE_AFTER_FACTOR).
        # Stale clusters are skipped, not used to end the scan: departures
        # are NOT monotone over the clusters list — an older cluster that
        # absorbed a late sample can depart after a newer one — so a stale
        # cluster may sit in front of a still-eligible one.
        for index in range(len(clusters) - 1, -1, -1):
            if t - departs[index] > stale_gap:
                continue
            affinity = None
            for t_j, station_j, score_j in rows[index]:
                if station is not None and station == station_j:
                    match_term = (s0 - abs(score - score_j)) / s0
                else:
                    match_term = 0.0
                value = (t0 - abs(t - t_j)) / t0 + match_term
                if affinity is None or value > affinity:
                    affinity = value
            if affinity > best_affinity:
                best_affinity = affinity
                best_index = index
        if best_index < 0:
            clusters.append(SampleCluster(samples=[member]))
            departs.append(t)
            rows.append([row])
        else:
            clusters[best_index].samples.append(member)
            departs[best_index] = t
            rows[best_index].append(row)
    reg = registry if registry is not None else NULL_REGISTRY
    reg.counter(
        "clustering_samples_total", help="matched samples clustered"
    ).inc(len(ordered))
    reg.counter(
        "clustering_clusters_total", help="per-stop clusters formed"
    ).inc(len(clusters))
    size_hist = reg.histogram(
        "clustering_cluster_size",
        buckets=(1, 2, 3, 5, 8, 13, 21),
        help="samples per formed cluster",
    )
    for cluster in clusters:
        size_hist.observe(len(cluster))
    return clusters
