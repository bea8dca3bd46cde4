"""Whole-system simulation: city + radio + buses + riders + backend.

:class:`World` wires every substrate together and drives a campaign
through the discrete-event engine: buses dispatch on headways, riders
tap and their phones record, uploads reach the backend shortly after
each ride ends, taxis feed the official comparison data, and the server
publishes its map every T = 5 minutes — the live pipeline of Fig. 4.

:func:`simulate_day` is the one-call entry point used by the examples
and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.builder import City, build_city
from repro.city.road_network import SegmentId
from repro.config import SystemConfig
from repro.core.fingerprint import FingerprintDatabase
from repro.core.server import BackendServer, TripReport
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.phone.app import DspMode, record_participant_trips
from repro.phone.cellular import CellularSampler
from repro.phone.trip_recorder import TripUpload
from repro.radio.propagation import PropagationModel
from repro.radio.scanner import CellularScanner
from repro.radio.towers import towers_for_city
from repro.sim.bus import BusTripTrace, dispatch_times, simulate_bus_trip
from repro.sim.events import Simulator
from repro.sim.taxi import OfficialTrafficFeed
from repro.sim.traffic import TrafficField, default_hotspots_for
from repro.sim.uplink import UplinkChannel
from repro.store import StateStore
from repro.util.counters import PersistentCounter
from repro.util.rng import derive_rng, ensure_rng
from repro.util.units import parse_hhmm

_log = get_logger(__name__)


@dataclass
class SimulationResult:
    """Everything a campaign produced, for evaluation."""

    city: City
    config: SystemConfig
    traffic: TrafficField
    server: BackendServer
    traces: List[BusTripTrace]
    reports: List[TripReport]
    uploads: List[TripUpload]
    official: Optional[OfficialTrafficFeed]
    start_s: float
    end_s: float

    @property
    def uploads_processed(self) -> int:
        """Trips the backend received."""
        return self.server.stats.trips_received

    def true_speed_kmh(self, segment_id: SegmentId, t: float) -> float:
        """Ground-truth automobile speed (km/h) on a segment."""
        return 3.6 * self.traffic.car_speed_ms(segment_id, t)


class World:
    """A fully wired instance of the system over a synthetic city."""

    def __init__(
        self,
        city: Optional[City] = None,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        survey_samples_per_stop: int = 5,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        store: Optional[StateStore] = None,
    ):
        self.city = city or build_city()
        self.config = config or SystemConfig()
        self.seed = seed
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = ensure_rng(seed)
        # Persistent across run() calls: phone ids must never repeat
        # between campaign days or the server's duplicate-trip ledger
        # would silently drop later days' uploads.  A PersistentCounter
        # so a resumed campaign restores the position a dead process
        # reached instead of reissuing day-one rider ids.
        self._rider_ids = PersistentCounter()

        spec = self.city.spec
        self.traffic = TrafficField(
            self.city.network,
            hotspots=default_hotspots_for(spec.width_m, spec.height_m),
            seed=seed,
        )
        self.towers = towers_for_city(self.city, seed=seed)
        self.propagation = PropagationModel(self.config.radio, seed=seed)
        self.scanner = CellularScanner(self.towers, self.propagation, self.config.radio)
        self.sampler = CellularSampler(self.scanner)
        self.database = FingerprintDatabase.survey(
            self.city.registry,
            self.scanner,
            samples_per_stop=survey_samples_per_stop,
            config=self.config.matching,
            rng=derive_rng(seed, "survey"),
        )
        self.server = BackendServer(
            self.city.network,
            self.city.route_network,
            self.database,
            self.config,
            registry=self.registry,
            tracer=self.tracer,
            store=store,
        )

    @property
    def rider_counter(self) -> PersistentCounter:
        """The rider-id counter (campaign resume snapshots/restores it)."""
        return self._rider_ids

    # -- campaign ------------------------------------------------------------

    def run(
        self,
        start_s: float,
        end_s: float,
        route_ids: Optional[Sequence[str]] = None,
        headway_s: Optional[float] = None,
        dsp_mode: DspMode = DspMode.FAST,
        with_official_feed: bool = True,
        keep_matches: bool = False,
        skip_events: int = 0,
    ) -> SimulationResult:
        """Run a sensing campaign over ``[start_s, end_s)``.

        Buses on each route dispatch at the configured headway.  A trip
        becomes ready to upload once its 10-minute silence timeout
        concludes it; delivery then goes through the configured uplink
        channel (loss, latency, reordering) and the arrivals interleave
        with the server's 5-minute publication ticks through the event
        engine.

        ``skip_events`` silently swallows the first N backend events
        (trip deliveries *and* publish ticks, in engine firing order).
        Campaign resume uses it to fast-forward through the prefix of a
        half-finished day already recovered from the WAL: the event
        schedule is rebuilt deterministically, and exactly the events
        whose records were journaled before the crash are skipped.
        """
        if end_s <= start_s:
            raise ValueError("end must be after start")
        route_ids = list(route_ids or self.city.route_network.route_ids)
        headway = headway_s or self.config.bus.headway_s
        if self.server.analytics is not None:
            # The bunching threshold and ghost staleness clock both
            # derive from the dispatch headway actually driven here.
            self.server.analytics.bind_schedule(headway)

        trace_rng = derive_rng(self.seed, f"traces-{start_s}")
        phone_rng = derive_rng(self.seed, f"phones-{start_s}")
        rider_ids = self._rider_ids

        traces: List[BusTripTrace] = []
        with self.tracer.span("bus_simulation"):
            for route_id in route_ids:
                route = self.city.route_network.route(route_id)
                for dispatch in dispatch_times(start_s, end_s, headway, trace_rng):
                    traces.append(
                        simulate_bus_trip(
                            route,
                            dispatch,
                            self.traffic,
                            rider_ids,
                            rng=trace_rng,
                            bus_config=self.config.bus,
                            rider_config=self.config.riders,
                            model_b=self.config.traffic_model.b,
                        )
                    )

        # Phones ride along and produce their uploads.
        timeout_s = self.config.trip_recorder.trip_timeout_s
        ready_uploads: List[Tuple[float, TripUpload]] = []
        with self.tracer.span("phone_recording"):
            for trace in traces:
                for upload in record_participant_trips(
                    trace,
                    self.city.registry,
                    self.sampler,
                    self.config,
                    mode=dsp_mode,
                    rng=phone_rng,
                    metrics=self.registry,
                ):
                    ready_uploads.append((upload.end_s + timeout_s, upload))

        # Uploads cross the flaky phone→server uplink: some are lost,
        # all are delayed, and delivery order is arrival order.
        with self.tracer.span("uplink"):
            channel = UplinkChannel(
                self.config.uplink, rng=derive_rng(self.seed, f"uplink-{start_s}")
            )
            timed_uploads = channel.transmit_all(ready_uploads)

        # Interleave uploads with publication ticks on the event engine.
        # One shared gate swallows the first ``skip_events`` backend
        # events — trips and publishes alike, in firing order, matching
        # the WAL record order a journaled run produces.
        skip_gate = [int(skip_events)]

        def _consume_skip() -> bool:
            if skip_gate[0] > 0:
                skip_gate[0] -= 1
                return True
            return False

        reports: List[TripReport] = []
        with self.tracer.span("ingest"):
            sim = Simulator(start_time=start_s)
            def _deliver(sim_state, upload):
                if _consume_skip():
                    return
                reports.append(
                    self.server.receive_trip(
                        upload,
                        now_s=sim_state.now,
                        keep_matches=keep_matches,
                    )
                )

            for arrive_at, upload in timed_uploads:
                sim.schedule(
                    max(arrive_at, start_s),
                    lambda s, u=upload: _deliver(s, u),
                )
            horizon = max(
                [end_s] + [arrive_at for arrive_at, _ in timed_uploads]
            ) + 1.0
            def _publish(sim_state):
                # A skipped publish must not reach the server: replay
                # already published this tick, and the map's strictly-
                # increasing guard would (rightly) refuse a second one.
                if _consume_skip():
                    return
                self.server.publish(sim_state.now)

            sim.schedule_every(
                self.config.fusion.update_period_s,
                _publish,
                first_at=start_s + self.config.fusion.update_period_s,
                until=horizon,
            )
            sim.run(until=horizon)
        fleet = self.server.analytics
        log_event(
            _log, "campaign_day_complete",
            start_s=start_s, end_s=end_s,
            bus_trips=len(traces), uploads_ready=len(ready_uploads),
            uploads_delivered=len(timed_uploads), reports=len(reports),
            fleet_bus_events=(
                len(fleet.headways) if fleet is not None else None
            ),
            fleet_ghost_routes=(
                len(fleet.ghosts.ghost_routes(horizon))
                if fleet is not None else None
            ),
            fleet_od_trips=(
                fleet.od_flows.total_trips if fleet is not None else None
            ),
        )

        official = None
        if with_official_feed:
            official = OfficialTrafficFeed.from_field(
                self.traffic,
                sorted(self.city.route_network.covered_segments()),
                start_s,
                end_s,
                config=self.config.taxi,
                seed=derive_rng(self.seed, "official"),
            )

        return SimulationResult(
            city=self.city,
            config=self.config,
            traffic=self.traffic,
            server=self.server,
            traces=traces,
            reports=reports,
            uploads=[upload for _, upload in timed_uploads],
            official=official,
            start_s=start_s,
            end_s=end_s,
        )


def simulate_day(
    city: Optional[City] = None,
    seed: int = 0,
    start: str = "07:00",
    end: str = "20:00",
    config: Optional[SystemConfig] = None,
    route_ids: Optional[Sequence[str]] = None,
    headway_s: Optional[float] = None,
    dsp_mode: DspMode = DspMode.FAST,
    with_official_feed: bool = True,
) -> SimulationResult:
    """Build a world and run one service day (the common entry point)."""
    world = World(city=city, config=config, seed=seed)
    return world.run(
        parse_hhmm(start),
        parse_hhmm(end),
        route_ids=route_ids,
        headway_s=headway_s,
        dsp_mode=dsp_mode,
        with_official_feed=with_official_feed,
    )
