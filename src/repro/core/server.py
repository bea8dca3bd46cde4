"""The backend server: the full §III pipeline over uploaded trips.

For every anonymous :class:`TripUpload` the server runs

    per-sample matching  →  per-bus-stop clustering  →  per-trip mapping
    →  travel-time extraction  →  BTT→ATT model  →  Bayesian map update

exactly as Fig. 4 sketches, and maintains the live traffic map with its
T = 5 min publication cycle.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.city.road_network import RoadNetwork, SegmentId
from repro.city.routes import BusRoute, RouteNetwork
from repro.config import SystemConfig
from repro.core.clustering import MatchedSample, SampleCluster, cluster_trip_samples
from repro.core.fingerprint import FingerprintDatabase
from repro.core.freshness import FreshnessTracker
from repro.core.ingest import PreparedTrip, prepare_trip
from repro.core.matching import SampleMatcher
from repro.core.traffic_map import TrafficMapEstimator
from repro.core.traffic_model import TrafficModel
from repro.core.trip_mapping import MappedTrip, RouteConstraint, map_trip
from repro.obs.alerts import AlertEngine, Sample
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.tracing import NULL_TRACER
from repro.obs.windows import WindowSet
from repro.phone.trip_recorder import TripUpload
from repro.store import NULL_STORE, NullStateStore, StateStore
from repro.store.faults import fault_point
from repro.util.units import ms_to_kmh

# Module import, not ``from``: ``repro.wire`` imports ``repro.core``, so
# this module may run while ``repro.wire`` is still half-initialised.
import repro.wire as wire

#: Plausibility band for a measured bus leg; outside it the reading is junk.
_MIN_BUS_SPEED_KMH = 2.0
_MAX_BUS_SPEED_KMH = 65.0

_log = get_logger(__name__)

#: The counters a :class:`ServerStats` exposes, in reporting order.
STAT_FIELDS: Tuple[str, ...] = (
    "trips_received",
    "trips_duplicate",
    "trips_mapped",
    "samples_received",
    "samples_discarded",
    "samples_duplicate",
    "clusters_formed",
    "legs_estimated",
    "legs_rejected",
    "segments_updated",
)


class ServerStats:
    """Counters over everything the server has processed.

    The attribute API is unchanged from the original dataclass
    (``stats.trips_received``, ``stats.trips_mapped += 1``, …) but every
    field is now backed by a ``server_<field>`` counter in a
    :class:`~repro.obs.metrics.MetricsRegistry`, so the same numbers
    flow out through ``--metrics-out`` / Prometheus export without
    double bookkeeping.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "server",
        **initial: int,
    ):
        # Stats must always count — they are the server's public record —
        # so a do-nothing registry is swapped for a private recording one.
        private = registry is None or isinstance(registry, NullRegistry)
        if private:
            registry = MetricsRegistry()
        self.__dict__["_registry"] = registry
        self.__dict__["_private_registry"] = private
        self.__dict__["_counters"] = {
            name: registry.counter(
                f"{namespace}_{name}",
                help=f"server pipeline counter: {name.replace('_', ' ')}",
            )
            for name in STAT_FIELDS
        }
        for name, value in initial.items():
            if name not in STAT_FIELDS:
                raise TypeError(f"unknown stats field {name!r}")
            setattr(self, name, value)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters", {})
        if name in counters:
            return int(counters[name].value)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        counters = self.__dict__.get("_counters", {})
        if name in counters:
            counter = counters[name]
            if value < 0:
                raise ValueError(
                    f"stats counter {name!r} cannot be set negative "
                    f"(got {value!r})"
                )
            delta = value - counter.value
            if delta >= 0:
                counter.inc(delta)
            else:                       # rollback (e.g. a test resetting a field)
                counter.reset()
                counter.inc(value)
        else:
            self.__dict__[name] = value

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict, in :data:`STAT_FIELDS` order."""
        return {name: getattr(self, name) for name in STAT_FIELDS}

    def reset(self) -> None:
        """Zero every counter (e.g. between campaign phases).

        When the stats own a private registry (the default), the whole
        registry is reset — histogram bucket counts and labeled children
        included — so back-to-back runs never leak counts.  On a shared
        pipeline registry only the stats' own counters are touched; use
        :meth:`BackendServer.reset_metrics` for a full telemetry reset.
        """
        if self.__dict__["_private_registry"]:
            self.__dict__["_registry"].reset()
        else:
            for counter in self.__dict__["_counters"].values():
                counter.reset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServerStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServerStats({fields})"


@dataclass(frozen=True)
class LegRoute:
    """The route and directed segments a bus covers between two stops.

    ``segments`` carries each segment's ``length_m`` and
    ``free_speed_ms`` next to its id; ``total_length`` is their
    left-to-right ``sum``.  An unreachable pair has no route and no
    segments.
    """

    route_id: Optional[str]
    segments: Tuple[Tuple[SegmentId, float, float], ...]
    total_length: float


@dataclass
class TripReport:
    """Diagnostics of one trip's journey through the pipeline."""

    trip_key: str
    accepted_samples: int
    discarded_samples: int
    clusters: List[SampleCluster]
    mapped: Optional[MappedTrip]
    estimates: List[Tuple[SegmentId, float, float]] = field(default_factory=list)
    # (segment, speed_kmh, observation time)
    #: Per-sample match verdicts in upload order; populated only when the
    #: trip was ingested with ``keep_matches=True`` (golden-trace runs).
    matches: Optional[Tuple] = None


class BackendServer:
    """Receives crowd uploads and maintains the city traffic map."""

    def __init__(
        self,
        network: RoadNetwork,
        route_network: RouteNetwork,
        database: FingerprintDatabase,
        config: Optional[SystemConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        store: Optional[StateStore] = None,
    ):
        self.config = config or SystemConfig()
        self.network = network
        self.route_network = route_network
        self.database = database
        # Disabled by default: pipeline components get the no-op registry
        # so per-sample instrumentation costs nothing unless requested.
        # ServerStats swaps in its own private recording registry, so the
        # public counters always count either way.
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-trip dimensional instrumentation is branch-guarded on this
        # flag so the NULL_REGISTRY fast path stays within ~2% of the
        # uninstrumented baseline.
        self._observing = not isinstance(self.registry, NullRegistry)
        self.matcher = SampleMatcher(
            database.as_dict(), self.config.matching, registry=self.registry
        )
        self.constraint = RouteConstraint(route_network, self.config.trip_mapping)
        self.model = TrafficModel(self.config.traffic_model)
        self.traffic_map = TrafficMapEstimator(
            network, self.config.fusion,
            registry=self.registry, tracer=self.tracer,
        )
        self.freshness = FreshnessTracker(
            route_network, self.traffic_map, registry=self.registry
        )
        self.stats = ServerStats(registry=self.registry)
        self.registry.gauge(
            "fingerprint_db_stops",
            help="bus stops with a surveyed fingerprint (freshness denominator)",
        ).set(len(database))
        self._fam_route_trips = self.registry.labeled_counter(
            "trips_uploaded_total", ("route",),
            help="mapped trip uploads attributed to each bus route",
        )
        self._fam_route_segments = self.registry.labeled_counter(
            "segments_updated_total", ("route",),
            help="map segment updates contributed by each bus route",
        )
        #: Trailing 5-minute windows over the ingest stream (sim clock).
        self.windows = WindowSet(
            window_s=self.config.fusion.update_period_s, buckets=30
        )
        self._fam_window_route = self.registry.labeled_gauge(
            "window_route_trips", ("route",),
            help="mapped trips per route over the trailing publish window",
        )
        self._g_window_trips = self.registry.gauge(
            "window_trips_received",
            help="uploads received over the trailing publish window",
        )
        self._g_window_accepted = self.registry.gauge(
            "window_samples_accepted",
            help="samples accepted over the trailing publish window",
        )
        self._g_accept_ratio = self.registry.gauge(
            "match_accept_ratio",
            help="accepted / received samples over the whole run",
        )
        #: Optional SLO engine, evaluated on every publish tick.
        self.alerts: Optional[AlertEngine] = None
        #: Fleet-health analytics stage (headways / ghosts / O-D flows);
        #: None when disabled, so the ingest hot path pays one is-None
        #: check.  Imported lazily: repro.analysis imports this module.
        self.analytics = None
        if self.config.analytics.enabled:
            from repro.analysis.fleet.pipeline import FleetHealthAnalytics

            self.analytics = FleetHealthAnalytics(
                route_network,
                self.config.analytics,
                scheduled_headway_s=self.config.bus.headway_s,
                registry=self.registry,
            )
        self._seen_trip_keys: set = set()
        #: (from station, to station) -> LegRoute, filled on first use.
        #: The route network never changes, so entries never go stale,
        #: and the table is bounded by station pairs, not by traffic.
        self._leg_routes: Dict[Tuple[int, int], LegRoute] = {}
        #: Durable state tier: write-ahead upload ledger + snapshots.
        #: The default NULL_STORE keeps the no-store hot path at one
        #: cached boolean per ingest — same trick as NULL_REGISTRY.
        self.store: StateStore = store if store is not None else NULL_STORE
        self._journaling = not isinstance(self.store, NullStateStore)
        self._replaying = False
        #: Watermark: seq of the last WAL record whose mutation finished.
        self.applied_seq = 0
        self._last_snapshot_seq = 0
        self._snapshot_every = self.config.ingest.store_snapshot_every
        self._c_replayed = self.registry.counter(
            "store_replayed_records_total",
            help="WAL records re-applied during recovery",
        )

    @property
    def is_journaling(self) -> bool:
        """Whether a durable store is attached and journaling is live."""
        return self._journaling

    def attach_alerts(self, engine: AlertEngine) -> None:
        """Evaluate ``engine`` on every publish tick from now on."""
        self.alerts = engine

    def rebuild_fingerprints(self, database: FingerprintDatabase) -> None:
        """Adopt a re-surveyed (or bootstrapped) fingerprint database.

        Rebuilds the matcher's incidence index and fingerprint matrix,
        then refreshes the ``fingerprint_db_stops`` gauge.  Trips already
        ingested are not reprocessed; the duplicate ledger and fused map
        are untouched.
        """
        self.database = database
        self.matcher.rebuild(database.as_dict())
        self.registry.gauge("fingerprint_db_stops").set(len(database))

    # -- ingestion ---------------------------------------------------------------

    def receive_trip(
        self,
        upload: TripUpload,
        now_s: Optional[float] = None,
        *,
        keep_matches: bool = False,
    ) -> TripReport:
        """Run one uploaded trip through the full pipeline.

        Re-delivered uploads (flaky phone connectivity retries the POST)
        are detected by trip key and ignored, so a trip never counts
        twice in the fused map.  Their samples count into both
        ``samples_discarded`` (so aggregate stats agree with the sum of
        per-trip ``discarded_samples``) and the dedicated
        ``samples_duplicate`` counter.

        ``now_s`` is the ingest time for sliding-window rates (the event
        engine passes its clock); it defaults to the upload's end time.
        """
        # ``key`` makes the trip a sampling unit when span retention is
        # on: head-sampled or kept as a slow-trip exemplar, subtree and
        # all.  With NULL_TRACER (or no policy) it costs nothing extra.
        with self.tracer.span("receive_trip", key=upload.trip_key):
            prepared = self._prepare_unseen(upload, keep_matches=keep_matches)
            return self.apply_prepared(prepared, now_s=now_s, upload=upload)

    def _prepare_unseen(
        self, upload: TripUpload, *, keep_matches: bool = False
    ) -> PreparedTrip:
        """:meth:`prepare_upload`, or a skipped stub for a seen trip key."""
        if upload.trip_key in self._seen_trip_keys:
            return PreparedTrip.skipped(upload)
        return self.prepare_upload(upload, keep_matches=keep_matches)

    def prepare_upload(
        self, upload: TripUpload, *, keep_matches: bool = False
    ) -> PreparedTrip:
        """The pure pipeline half for one upload (match → cluster → map).

        Reads only immutable server state (fingerprint database, route
        constraint, configs); see :func:`repro.core.ingest.prepare_trip`.
        """
        return prepare_trip(
            upload,
            matcher=self.matcher,
            clustering_config=self.config.clustering,
            constraint=self.constraint,
            registry=self.registry,
            tracer=self.tracer,
            keep_matches=keep_matches,
        )

    def apply_prepared(
        self,
        prepared: PreparedTrip,
        now_s: Optional[float] = None,
        *,
        upload: Optional[TripUpload] = None,
    ) -> TripReport:
        """The mutating pipeline half: fold one prepared trip into state.

        Single-writer by design — dedup ledger, stats, sliding windows,
        traffic map and freshness all live here.  Must be called in
        upload order.

        With a durable store attached the raw ``upload`` is journaled to
        the WAL *before* anything mutates (the write-ahead contract), so
        callers must pass it alongside ``prepared`` — the pure half does
        not retain raw samples.  Duplicates are journaled too: replay
        must reproduce the duplicate counters exactly once each.
        """
        if self._journaling and not self._replaying:
            if upload is None:
                raise ValueError(
                    "a durable store is attached: apply_prepared needs the "
                    "raw upload to journal (pass upload=...)"
                )
            self._journal({
                "kind": "trip",
                "now_s": now_s,
                "trip": wire.trip_to_dict(upload),
            })
            fault_point("apply")
        return self._apply_prepared_inner(prepared, now_s=now_s)

    def _apply_prepared_inner(
        self, prepared: PreparedTrip, now_s: Optional[float] = None
    ) -> TripReport:
        if prepared.trip_key in self._seen_trip_keys:
            self.stats.trips_duplicate += 1
            self.stats.samples_discarded += prepared.samples_total
            self.stats.samples_duplicate += prepared.samples_total
            log_event(
                _log, "trip_duplicate", level=logging.DEBUG,
                trip_key=prepared.trip_key, samples=prepared.samples_total,
            )
            return TripReport(
                trip_key=prepared.trip_key,
                accepted_samples=0,
                discarded_samples=prepared.samples_total,
                clusters=[],
                mapped=None,
            )
        self._seen_trip_keys.add(prepared.trip_key)
        self.stats.trips_received += 1
        self.stats.samples_received += prepared.samples_total
        observing = self._observing
        if observing:
            if now_s is None:
                if prepared.end_s is None:
                    raise ValueError(
                        f"trip {prepared.trip_key} has no samples"
                    )
                now_s = prepared.end_s
            self.windows.add("trips_received", now=now_s)
        self.stats.samples_discarded += prepared.discarded
        if observing:
            self.windows.add("samples_accepted", prepared.accepted, now=now_s)
            self.windows.add("samples_discarded", prepared.discarded, now=now_s)

        clusters = prepared.clusters
        mapped = prepared.mapped
        self.stats.clusters_formed += len(clusters)
        report = TripReport(
            trip_key=prepared.trip_key,
            accepted_samples=prepared.accepted,
            discarded_samples=prepared.discarded,
            clusters=clusters,
            mapped=mapped,
            matches=prepared.matches,
        )
        if mapped is None or len(mapped.stops) < 2:
            log_event(
                _log, "trip_unmapped", level=logging.DEBUG,
                trip_key=prepared.trip_key,
                accepted=prepared.accepted, discarded=prepared.discarded,
                clusters=len(clusters),
            )
            return report
        self.stats.trips_mapped += 1
        with self.tracer.span("leg_estimation"):
            trip_route = self._estimate_legs(mapped, report)
        if observing and trip_route is not None:
            self._fam_route_trips.labels(trip_route).inc()
            self.windows.add("route_trips", now=now_s, route=trip_route)
        if self.analytics is not None:
            self.analytics.observe_trip(mapped, trip_route)
        log_event(
            _log, "trip_processed", level=logging.DEBUG,
            trip_key=prepared.trip_key,
            accepted=prepared.accepted, discarded=prepared.discarded,
            clusters=len(clusters), stops=len(mapped.stops),
            estimates=len(report.estimates),
        )
        return report

    def receive_trips(self, uploads: Sequence[TripUpload]) -> List[TripReport]:
        """Process a batch of uploads in start-time order.

        Identical to calling :meth:`receive_trip` per upload, sorted by
        start time (empty uploads first).
        """
        ordered = sorted(uploads, key=lambda u: u.start_s if u.samples else 0.0)
        return [self.receive_trip(upload) for upload in ordered]

    def reset_metrics(self) -> None:
        """Zero every counter for a fresh run in the same process.

        Back-to-back campaigns sharing one server used to leak counts
        across runs: histograms kept their bucket counts and labeled
        children kept accumulating.  This resets the pipeline registry
        (flat instruments, histogram buckets, and every labeled child),
        the server stats, the sliding windows, and the freshness
        history.  The fused map and the duplicate-trip ledger are *not*
        touched — they are state, not telemetry.
        """
        self.registry.reset()
        self.stats.reset()
        self.windows.reset()
        self.freshness.reset()
        if self.analytics is not None:
            self.analytics.reset()
        self.registry.gauge("fingerprint_db_stops").set(len(self.database))

    def publish(self, at_s: float) -> None:
        """Publish the current map (the T = 5 min refresh cycle).

        Each publish tick also refreshes the freshness gauges, exports
        the sliding-window rates, and — when an :class:`AlertEngine` is
        attached — evaluates every SLO rule against the live samples.
        """
        if self._journaling and not self._replaying:
            self._journal({"kind": "publish", "at_s": at_s})
        self.traffic_map.publish(at_s)
        self.freshness.observe_publish(at_s)
        if self.analytics is not None:
            self.analytics.observe_publish(at_s)
        if self._observing:
            self._g_window_trips.set(self.windows.window("trips_received").total(at_s))
            self._g_window_accepted.set(
                self.windows.window("samples_accepted").total(at_s)
            )
            for name, labels, total in self.windows.series(at_s):
                if name == "route_trips" and "route" in labels:
                    self._fam_window_route.labels(labels["route"]).set(total)
            self._g_accept_ratio.set(self.match_accept_ratio())
        if self.alerts is not None:
            self.alerts.evaluate(self.alert_samples(at_s), at_s)

    # -- durable state tier ------------------------------------------------------

    def _journal(self, record: Dict) -> int:
        """Assign the next seq, append to the WAL, bump the watermark.

        The watermark moves *with* the journal write, before the
        mutation runs: a crash in between leaves a journaled-but-
        unapplied record, which is safe because snapshots are only taken
        at quiescent points (so a persisted watermark never exceeds the
        last fully applied record) and recovery replays the tail.
        """
        record["seq"] = self.applied_seq + 1
        self.store.append_wal(record)
        self.applied_seq = record["seq"]
        return self.applied_seq

    def journal_marker(self, kind: str, **payload) -> int:
        """Journal a non-mutating marker record (campaign day bounds).

        Markers ride the same seq stream as trips and publishes, so the
        campaign can reconstruct day structure from the WAL alone.
        Returns the marker's seq (the current watermark when no store
        is attached).
        """
        if not self._journaling:
            return self.applied_seq
        record: Dict = {"kind": kind}
        record.update(payload)
        return self._journal(record)

    def maybe_snapshot(self, force: bool = False) -> bool:
        """Snapshot the full server state at the current watermark.

        Honours the ``store_snapshot_every`` cadence (WAL records since
        the last snapshot) unless ``force`` is set.  Callers must only
        invoke this at *quiescent* points — every journaled record fully
        applied (between two uploads of a serial server).
        """
        if not self._journaling:
            return False
        pending = self.applied_seq - self._last_snapshot_seq
        if not force and (
            self._snapshot_every <= 0 or pending < self._snapshot_every
        ):
            return False
        self.store.write_snapshot(self.applied_seq, self.state_dict())
        self._last_snapshot_seq = self.applied_seq
        return True

    def state_dict(self) -> Dict:
        """The server's full mutable state as one JSON-ready document."""
        return {
            "v": 1,
            "applied_seq": self.applied_seq,
            "seen_trip_keys": sorted(self._seen_trip_keys),
            "stats": self.stats.as_dict(),
            "traffic_map": self.traffic_map.state_dict(),
            "freshness": self.freshness.state_dict(),
            "windows": self.windows.state_dict(),
            "analytics": (
                self.analytics.state_dict()
                if self.analytics is not None else None
            ),
            "registry": self.registry.as_dict() if self._observing else None,
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a :meth:`state_dict` snapshot (replaces current state)."""
        version = state.get("v")
        if version != 1:
            raise ValueError(f"unsupported server snapshot version {version!r}")
        self.applied_seq = int(state["applied_seq"])
        self._last_snapshot_seq = self.applied_seq
        self._seen_trip_keys = set(state["seen_trip_keys"])
        if self._observing and state.get("registry") is not None:
            # merge_dict onto a reset registry is an absolute restore;
            # structural gauges are re-derived afterwards.
            self.registry.reset()
            self.registry.merge_dict(state["registry"])
            self.registry.gauge("fingerprint_db_stops").set(len(self.database))
        # Absolute sets are deltas under ServerStats.__setattr__, so this
        # is a no-op where the registry merge already restored the
        # server_* counters and an exact restore on a private registry.
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self.traffic_map.restore_state(state["traffic_map"])
        self.freshness.restore_state(state["freshness"])
        self.windows.restore_state(state["windows"])
        if self.analytics is not None and state.get("analytics") is not None:
            self.analytics.restore_state(state["analytics"])

    def replay_record(self, record: Dict) -> bool:
        """Re-apply one WAL record; returns False below the watermark.

        The seq watermark makes replay exactly idempotent: a record at
        or below ``applied_seq`` is skipped *entirely* (duplicate-upload
        counters included), so any WAL prefix can be replayed any number
        of times and land on the same state.
        """
        seq = int(record["seq"])
        if seq <= self.applied_seq:
            return False
        kind = record.get("kind")
        self._replaying = True
        try:
            if kind == "trip":
                prepared = self._prepare_unseen(
                    wire.trip_from_dict(record["trip"])
                )
                self._apply_prepared_inner(prepared, now_s=record.get("now_s"))
            elif kind == "publish":
                self.publish(float(record["at_s"]))
            # Marker kinds mutate nothing server-side; the campaign
            # reads them for day bookkeeping.
        finally:
            self._replaying = False
        self.applied_seq = seq
        if self._observing:
            self._c_replayed.inc()
        return True

    def load_snapshot(self) -> int:
        """Restore the store's latest snapshot; returns the watermark."""
        found = self.store.latest_snapshot()
        if found is not None:
            _seq, payload = found
            self.restore_state(payload)
        return self.applied_seq

    def recover(self) -> int:
        """Load the latest snapshot, replay the WAL tail; returns the
        number of records re-applied."""
        self.load_snapshot()
        replayed = 0
        for record in self.store.wal_records():
            if self.replay_record(record):
                replayed += 1
        return replayed

    def match_accept_ratio(self) -> float:
        """Accepted / received samples over the run (1.0 before any data)."""
        received = self.stats.samples_received
        if not received:
            return 1.0
        accepted = received - (
            self.stats.samples_discarded - self.stats.samples_duplicate
        )
        return accepted / received

    def alert_samples(self, at_s: float) -> List[Sample]:
        """The sample set SLO rules are evaluated against.

        Always includes per-route freshness, the run-wide acceptance
        ratio, pipeline counters, and window totals — even with the
        null registry, so alerting works without full metrics recording.
        """
        samples: List[Sample] = self.freshness.samples(at_s)
        samples.append(("match_accept_ratio", {}, self.match_accept_ratio()))
        samples.extend(
            (f"server_{name}", {}, float(value))
            for name, value in self.stats.as_dict().items()
        )
        for name, labels, total in self.windows.series(at_s):
            samples.append((f"window_{name}", labels, total))
        if self.analytics is not None:
            samples.extend(self.analytics.samples(at_s))
        return samples

    # -- travel-time extraction (§III-D) -------------------------------------------

    def _estimate_legs(
        self, mapped: MappedTrip, report: TripReport
    ) -> Optional[str]:
        """Extract per-segment speeds; returns the trip's dominant route.

        Stats are accumulated locally and written once per trip; the
        registry-backed attribute writes are not free enough for the
        per-leg/per-segment loop.
        """
        legs_rejected = 0
        legs_estimated = 0
        segments_updated = 0
        route_legs: Dict[str, int] = {}
        observing = self._observing
        dwell_tail_s = self.config.traffic_model.dwell_tail_s
        estimate = self.model.estimate
        update_map = self.traffic_map.update
        estimates = report.estimates
        for prev, cur in zip(mapped.stops, mapped.stops[1:]):
            if prev.station_id == cur.station_id:
                continue                      # duplicate cluster of one stop
            # The "departing point" is the last tap heard at the stop, but
            # doors stay open a little longer — subtract the calibrated
            # dwell tail so the leg time is true running time.
            btt = cur.arrival_s - prev.depart_s - dwell_tail_s
            if btt <= 0:
                legs_rejected += 1
                continue
            leg = self.leg_route(prev.station_id, cur.station_id)
            if not leg.segments:
                legs_rejected += 1
                continue
            total_length = leg.total_length
            bus_speed_kmh = ms_to_kmh(total_length / btt)
            if not (_MIN_BUS_SPEED_KMH <= bus_speed_kmh <= _MAX_BUS_SPEED_KMH):
                legs_rejected += 1
                continue
            legs_estimated += 1
            route_id = leg.route_id
            route_legs[route_id] = route_legs.get(route_id, 0) + 1
            # A missing stop merges adjacent road segments into one leg
            # (§III-D); the running time is split over the spanned
            # segments in proportion to their length, which assumes a
            # uniform speed over the leg.
            at_s = cur.arrival_s
            for segment_id, length_m, free_speed_ms in leg.segments:
                seg_btt = btt * length_m / total_length
                speed_kmh = estimate(seg_btt, length_m, free_speed_ms).speed_kmh
                update_map(segment_id, speed_kmh, at_s)
                estimates.append((segment_id, speed_kmh, at_s))
            leg_segments = len(leg.segments)
            segments_updated += leg_segments
            self.freshness.observe_update(route_id, at_s)
            if observing:
                self._fam_route_segments.labels(route_id).inc(leg_segments)
        if legs_rejected:
            self.stats.legs_rejected += legs_rejected
        if legs_estimated:
            self.stats.legs_estimated += legs_estimated
        if segments_updated:
            self.stats.segments_updated += segments_updated
        if not route_legs:
            return None
        # Dominant route: the one explaining the most legs (ties -> id order).
        return max(sorted(route_legs), key=lambda rid: route_legs[rid])

    def leg_route(self, x: int, y: int) -> LegRoute:
        """The route and directed segments a bus covers from x to y.

        When several routes serve the pair, the one with the fewest
        intermediate stops is the natural explanation of the leg; on a
        tie the first route in ``route_network.routes`` order wins.
        Computed once per station pair and kept.
        """
        leg = self._leg_routes.get((x, y))
        if leg is not None:
            return leg
        best: Optional[Tuple[int, str, List[SegmentId]]] = None
        for route in self.route_network.routes:
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
            leg = LegRoute(route_id=None, segments=(), total_length=0.0)
        else:
            segments = [self.network.segment(s) for s in best[2]]
            leg = LegRoute(
                route_id=best[1],
                segments=tuple(
                    (s.segment_id, s.length_m, s.free_speed_ms)
                    for s in segments
                ),
                total_length=sum(s.length_m for s in segments),
            )
        self._leg_routes[(x, y)] = leg
        return leg
