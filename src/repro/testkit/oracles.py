"""Spec-literal reference oracles for the §III-C estimators and the radio scan.

Every function here is *deliberately naive*: a full O(n·m) Python
Smith-Waterman matrix instead of the skewed vectorised kernel, a scan of
the whole fingerprint database instead of the incidence plan, an
O(n²) pass over every open cluster instead of the 2·t0 staleness prune,
exhaustive enumeration of all Π B_k candidate sequences instead of the
Viterbi decomposition, and a scan of every route for every leg instead
of the server's memoized leg table, and one immediate scan per detected
beep instead of the phone's batched per-ride evaluation.  That makes them
slow and obviously correct — the property a differential referee needs.

Tie-breaking is part of the observable contract, so the oracles pin the
same deterministic choices the optimized paths make:

* matching — best ``(score, common ids, smaller station id)``;
* clustering — among equal-affinity open clusters the newest wins;
* mapping — ties are resolved by reporting *every* optimal sequence;
  the optimized result must be one of them.

The radio oracle is the per-tower scalar scan (§III-A): one
``field_rng`` Generator per shadow-lattice corner, one scalar noise
draw per candidate tower.  The core scanner must return the same
observation and leave the phone's Generator in the same state.  The
survey oracle (§IV-A) makes one such scan per sample, station by
station, and stores each station's medoid on its own.  The phone oracle
(§III-B) feeds the trip recorder one sample per beep, scanned when the
beep is heard.

All arithmetic uses the same IEEE-754 double operations in the same
association order as the optimized code, so comparisons are exact
(``==``), never approximate.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.city.road_network import SegmentId
from repro.city.routes import RouteNetwork
from repro.city.stops import StopRegistry
from repro.config import ClusteringConfig, MatchingConfig, RadioConfig
from repro.core.clustering import MatchedSample, SampleCluster
from repro.core.fingerprint import FingerprintDatabase
from repro.core.matching import MatchResult
from repro.core.trip_mapping import MappedStop, DROP_EPSILON
from repro.phone.app import DspMode, PhoneAgent
from repro.phone.cellular import CellularSample
from repro.phone.trip_recorder import TripRecorder, TripUpload
from repro.radio.scanner import Observation
from repro.radio.towers import CellTower
from repro.sim.bus import BusTripTrace, ParticipantRide, StopVisit
from repro.util.rng import field_rng

__all__ = [
    "OracleMatcher",
    "OracleScanner",
    "oracle_cluster_trip_samples",
    "oracle_enumerate_sequences",
    "oracle_map_variants",
    "oracle_route_between",
    "oracle_smith_waterman",
    "oracle_survey",
]


# -- per-sample matching (§III-C1) --------------------------------------------


def oracle_smith_waterman(
    upload: Sequence[int],
    database: Sequence[int],
    config: Optional[MatchingConfig] = None,
) -> float:
    """Table I's modified Smith-Waterman, as a full Python DP matrix.

    The only scalar Smith-Waterman in the package: core scores with the
    vectorised kernel and is tested against this.

    >>> round(oracle_smith_waterman([1, 2, 3, 4, 5], [1, 7, 3, 5]), 1)
    2.4
    """
    config = config or MatchingConfig()
    n, m = len(upload), len(database)
    if n == 0 or m == 0:
        return 0.0
    match = config.match_score
    mismatch = -config.mismatch_penalty
    gap = -config.gap_penalty
    matrix = [[0.0] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diagonal = matrix[i - 1][j - 1] + (
                match if upload[i - 1] == database[j - 1] else mismatch
            )
            value = max(0.0, diagonal, matrix[i - 1][j] + gap,
                        matrix[i][j - 1] + gap)
            matrix[i][j] = value
            if value > best:
                best = value
    return best


class OracleMatcher:
    """Matches a sample against *every* stop fingerprint, no index.

    The γ acceptance threshold and the common-id tie-break follow
    §III-C1 literally; iteration order is made irrelevant by the total
    ordering ``(score, common ids, -station_id)``.
    """

    def __init__(
        self,
        fingerprints: Dict[int, Tuple[int, ...]],
        config: Optional[MatchingConfig] = None,
    ):
        if not fingerprints:
            raise ValueError("oracle matcher needs a non-empty database")
        self.config = config or MatchingConfig()
        self._fingerprints = {k: tuple(v) for k, v in fingerprints.items()}

    def match(self, tower_ids: Sequence[int]) -> MatchResult:
        """Best stop for one sample, or a rejection below γ."""
        return self.match_with_pool(tower_ids)[0]

    def match_with_pool(
        self, tower_ids: Sequence[int]
    ) -> Tuple[MatchResult, int]:
        """The verdict plus the candidate pool size: the number of stops
        scoring above zero, which the optimized matcher's ``matcher_*``
        accounting must count as its pool."""
        best: Optional[Tuple[float, int, int]] = None
        pool = 0
        for station_id in sorted(self._fingerprints):
            fingerprint = self._fingerprints[station_id]
            score = oracle_smith_waterman(tower_ids, fingerprint, self.config)
            pool += score > 0.0
            if score < self.config.accept_threshold:
                continue
            common = len(set(tower_ids) & set(fingerprint))
            key = (score, common, -station_id)
            if best is None or key > best:
                best = key
        if best is None:
            return MatchResult(station_id=None, score=0.0, common_ids=0), pool
        score, common, neg_station = best
        return MatchResult(
            station_id=-neg_station, score=score, common_ids=common
        ), pool

    def match_many(
        self, samples: Sequence[Sequence[int]]
    ) -> List[MatchResult]:
        """Per-sample :meth:`match`, one at a time (no batching)."""
        return [self.match(sample) for sample in samples]


# -- per-stop clustering (§III-C2) --------------------------------------------


def _oracle_affinity(
    a: MatchedSample, b: MatchedSample, config: ClusteringConfig
) -> float:
    """Eq. (1)'s left-hand side, written out literally."""
    time_term = (
        config.max_interval_s - abs(b.time_s - a.time_s)
    ) / config.max_interval_s
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


def oracle_cluster_trip_samples(
    matched: Sequence[MatchedSample],
    config: Optional[ClusteringConfig] = None,
) -> List[List[MatchedSample]]:
    """O(n²) greedy clustering: every sample against every open cluster.

    Identical semantics to
    :func:`repro.core.clustering.cluster_trip_samples` — time-ordered
    scan, a sample joins the best cluster whose maximum member affinity
    strictly clears ε, newest cluster wins ties — but *without* the
    2·t0 staleness prune, which the optimized path relies on being a
    pure optimisation.  Differential runs therefore also verify that
    claim.
    """
    config = config or ClusteringConfig()
    ordered = sorted(matched, key=lambda m: m.time_s)
    clusters: List[List[MatchedSample]] = []
    for member in ordered:
        best_index: Optional[int] = None
        best_affinity = config.threshold
        for index, cluster in enumerate(clusters):
            affinity = max(
                _oracle_affinity(existing, member, config)
                for existing in cluster
            )
            if affinity <= config.threshold:
                continue
            # ``>=`` on a forward scan == newest-wins, matching the
            # optimized path's strict ``>`` over a reversed scan.
            if best_index is None or affinity >= best_affinity:
                best_affinity = affinity
                best_index = index
        if best_index is None:
            clusters.append([member])
        else:
            clusters[best_index].append(member)
    return clusters


# -- per-trip sequence mapping (§III-C3) --------------------------------------


def oracle_enumerate_sequences(
    clusters: Sequence[SampleCluster],
    constraint,
) -> Optional[Tuple[List[int], float, List[tuple]]]:
    """Exhaustively maximise Eq. (2) over all candidate sequences.

    Returns ``(kept_cluster_indices, best_score, best_combos)`` where
    ``best_combos`` holds *every* candidate combination achieving the
    maximum (so callers can accept any optimal tie), or ``None`` when no
    cluster has a candidate.  ``constraint`` only needs a
    ``weight(x, y)`` method — the paper's R(x, y).
    """
    pools = [cluster.candidates() for cluster in clusters]
    kept_indices = [i for i, pool in enumerate(pools) if pool]
    if not kept_indices:
        return None
    kept_pools = [pools[i] for i in kept_indices]
    best_score: Optional[float] = None
    best_combos: List[tuple] = []
    for combo in itertools.product(*kept_pools):
        score = combo[0].weight
        for prev, cur in zip(combo, combo[1:]):
            score += cur.weight * constraint.weight(
                prev.station_id, cur.station_id
            )
        if best_score is None or score > best_score:
            best_score = score
            best_combos = [combo]
        elif score == best_score:
            best_combos.append(combo)
    return kept_indices, float(best_score), best_combos


def oracle_map_variants(
    clusters: Sequence[SampleCluster],
    constraint,
    min_weight: float = DROP_EPSILON,
) -> Optional[Tuple[float, List[List[MappedStop]]]]:
    """Every optimal :func:`~repro.core.trip_mapping.map_trip` outcome.

    Applies the same drop rule the optimized mapper uses (clusters whose
    chosen candidate contributes numerically zero weight are routed
    around) to each optimal sequence, returning ``(best_score,
    variants)`` where each variant is the resulting stop list (possibly
    empty, meaning the mapper should return ``None``).
    """
    enumerated = oracle_enumerate_sequences(clusters, constraint)
    if enumerated is None:
        return None
    kept_indices, best_score, best_combos = enumerated
    variants: List[List[MappedStop]] = []
    for combo in best_combos:
        stops: List[MappedStop] = []
        for position, (candidate, cluster_index) in enumerate(
            zip(combo, kept_indices)
        ):
            if position > 0:
                contributed = candidate.weight * constraint.weight(
                    combo[position - 1].station_id, candidate.station_id
                )
            else:
                contributed = candidate.weight
            if position > 0 and contributed <= min_weight:
                continue
            cluster = clusters[cluster_index]
            stops.append(
                MappedStop(
                    station_id=candidate.station_id,
                    arrival_s=cluster.arrival_s,
                    depart_s=cluster.depart_s,
                    cluster_size=len(cluster),
                    weight=contributed,
                )
            )
        variants.append(stops)
    return best_score, variants


# -- leg routing (§III-D) -----------------------------------------------------


def oracle_route_between(
    route_network: RouteNetwork, x: int, y: int
) -> Tuple[Optional[str], List[SegmentId]]:
    """The route and directed segments a bus covers from x to y.

    The per-route scan, run afresh on every call: of the routes serving
    x before y, the one with the fewest intermediate stops wins, and
    the first in ``route_network.routes`` order wins a tie.  The
    server's memoized leg table must hold the same answer per pair.
    """
    best: Optional[Tuple[int, str, List[SegmentId]]] = None
    for route in route_network.routes:
        from_order = route.station_order(x)
        to_order = route.station_order(y)
        if from_order is None or to_order is None or to_order <= from_order:
            continue
        hops = to_order - from_order
        if best is None or hops < best[0]:
            best = (
                hops,
                route.route_id,
                route.segments_between(from_order, to_order),
            )
    if best is None:
        return None, []
    return best[1], best[2]


# -- cellular scan (§III-A) ---------------------------------------------------


class OracleScanner:
    """The visible-tower scan, one tower and one lattice corner at a time.

    Same contract as :class:`repro.radio.CellularScanner` for a
    :class:`repro.radio.PropagationModel` built from ``radio`` and
    ``seed``: the 4 km candidate prefilter, mean RSS from log-distance
    path loss minus bilinear shadowing, one ``rng.normal`` per candidate
    in tower order, the sensitivity floor, ``(-rss, tower_id)`` order
    and the neighbour-list cap.
    """

    def __init__(
        self,
        towers: Sequence[CellTower],
        radio: Optional[RadioConfig] = None,
        seed: int = 0,
    ):
        self.towers = list(towers)
        self.config = radio or RadioConfig()
        self._seed = int(seed)
        self._positions = np.array(
            [(t.position.x, t.position.y) for t in self.towers]
        )

    def mean_rss_dbm(self, tower: CellTower, where: Point) -> float:
        distance = max(tower.position.distance_to(where), 1.0)
        path_loss = (
            self.config.path_loss_ref_db
            + 10.0 * self.config.path_loss_exponent * math.log10(distance)
        )
        return tower.tx_power_dbm - path_loss - self._shadow_db(tower.tower_id, where)

    def _shadow_db(self, tower_id: int, where: Point) -> float:
        grid = self.config.shadow_grid_m
        gx = where.x / grid
        gy = where.y / grid
        x0, y0 = math.floor(gx), math.floor(gy)
        fx, fy = gx - x0, gy - y0
        v00 = self._corner(tower_id, x0, y0)
        v10 = self._corner(tower_id, x0 + 1, y0)
        v01 = self._corner(tower_id, x0, y0 + 1)
        v11 = self._corner(tower_id, x0 + 1, y0 + 1)
        value = (
            v00 * (1 - fx) * (1 - fy)
            + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy
            + v11 * fx * fy
        )
        return value * self.config.shadowing_sigma_db

    def _corner(self, tower_id: int, ix: int, iy: int) -> float:
        return float(
            field_rng(self._seed, "shadow", tower_id, ix, iy).standard_normal()
        )

    def scan(
        self, where: Point, rng: Optional[np.random.Generator], temporal: bool = True
    ) -> Observation:
        """One scan at ``where``; ``temporal=False`` is the mean field."""
        deltas = self._positions - np.array([where.x, where.y])
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        pairs: List[Tuple[float, int]] = []
        for idx in np.nonzero(distances < 4000.0)[0]:
            tower = self.towers[int(idx)]
            rss = self.mean_rss_dbm(tower, where)
            if temporal:
                rss = rss + rng.normal(0.0, self.config.temporal_sigma_db)
            if rss >= self.config.rx_sensitivity_dbm:
                pairs.append((rss, tower.tower_id))
        pairs.sort(key=lambda p: (-p[0], p[1]))
        pairs = pairs[: self.config.max_visible]
        return Observation(
            tower_ids=tuple(tid for _, tid in pairs),
            rss_dbm=tuple(rss for rss, _ in pairs),
        )


def oracle_survey(
    registry: StopRegistry,
    scanner: OracleScanner,
    samples_per_stop: int,
    rng: np.random.Generator,
    config: Optional[MatchingConfig] = None,
) -> FingerprintDatabase:
    """The station survey, one scan and one medoid at a time.

    Same contract as :meth:`repro.core.FingerprintDatabase.survey`:
    sample ``k`` of a station is taken at platform ``k mod p`` (at the
    station itself when it has none), empty scans are dropped, and each
    station with a sample stores its medoid, in station order.
    """
    db = FingerprintDatabase(config)
    for station in registry.stations:
        samples = []
        for k in range(samples_per_stop):
            where = (
                station.stops[k % len(station.stops)].position
                if station.stops
                else station.position
            )
            observation = scanner.scan(where, rng)
            if len(observation):
                samples.append(observation.tower_ids)
        if samples:
            db.set_from_samples(station.station_id, samples)
    return db


# -- the phone's ride (§III-B) ------------------------------------------------


class OraclePhoneAgent(PhoneAgent):
    """A :class:`repro.phone.PhoneAgent` that scans each beep when heard.

    Every detected beep takes one :meth:`CellularSampler.sample` call at
    its place in the walk and goes straight to the trip recorder.  The
    agent's deferred, per-ride batch evaluation must give the same
    uploads and leave the Generator in the same state.
    """

    def ride_and_record(
        self, trace: BusTripTrace, ride: ParticipantRide
    ) -> List[TripUpload]:
        recorder = TripRecorder(
            self.config.trip_recorder,
            phone_id=self.phone_id,
            registry=self.metrics,
        )
        looks_like_bus = self._motion_verdict()

        onboard_visits = [
            v
            for v in trace.visits
            if ride.board_order <= v.stop_order <= ride.alight_order and v.served
        ]
        for visit in onboard_visits:
            for sample in self._samples_at_stop(trace, visit, ride):
                recorder.on_beep(sample, looks_like_bus=looks_like_bus)
            self._maybe_false_sample(recorder, trace, visit, looks_like_bus)

        if onboard_visits:
            last = max(v.depart_s for v in onboard_visits)
            recorder.on_tick(last + self.config.trip_recorder.trip_timeout_s)
        uploads = recorder.drain_completed()
        self.metrics.counter(
            "phone_uploads_total", help="trips completed by phone agents"
        ).inc(len(uploads))
        return uploads

    def _samples_at_stop(
        self, trace: BusTripTrace, visit: StopVisit, ride: ParticipantRide
    ) -> List[CellularSample]:
        taps = [t for t in trace.taps if t.stop_order == visit.stop_order]
        if not taps:
            return []
        platform = self.registry.platform(visit.stop_id)
        if self.mode is DspMode.FAST:
            detected_times = [
                tap.time_s
                for tap in taps
                if self._rng.random() < self.config.riders.beep_detect_probability
            ]
        else:
            detected_times = self._detect_with_dsp([t.time_s for t in taps])
        return [
            self.sampler.sample(
                platform.position.offset(
                    float(self._rng.normal(0.0, 2.0)),
                    float(self._rng.normal(0.0, 2.0)),
                ),
                time_s,
                self._rng,
            )
            for time_s in sorted(detected_times)
        ]

    def _maybe_false_sample(
        self,
        recorder: TripRecorder,
        trace: BusTripTrace,
        visit: StopVisit,
        looks_like_bus: bool,
    ) -> None:
        if self._rng.random() >= self.config.riders.false_sample_probability:
            return
        next_visits = [v for v in trace.visits if v.stop_order == visit.stop_order + 1]
        if not next_visits:
            return
        here = self.registry.station(visit.station_id).position
        there = self.registry.station(next_visits[0].station_id).position
        frac = float(self._rng.uniform(0.2, 0.8))
        where = here.offset((there.x - here.x) * frac, (there.y - here.y) * frac)
        when = visit.depart_s + frac * max(
            next_visits[0].arrival_s - visit.depart_s, 1.0
        )
        self.metrics.counter(
            "phone_false_samples_total", help="mid-road noise bursts taken as beeps"
        ).inc()
        recorder.on_beep(
            self.sampler.sample(where, when, self._rng),
            looks_like_bus=looks_like_bus,
        )
