"""Multi-day sensing campaigns: the paper's two-phase experiment.

§IV-A: the deployment ran for two months.  In the first (sparse) phase
the 22 participants rode buses as they normally would, yielding limited
data concentrated on frequently taken routes; for evaluation the
authors then incentivised intensive riding for 19 days.

:class:`Campaign` runs a :class:`~repro.sim.world.World` over many
service days with per-phase participation rates, keeps the backend
state across days (the fingerprint database and fused map carry over),
and aggregates per-day statistics.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.logging import get_logger, log_event
from repro.util.units import SECONDS_PER_DAY, parse_hhmm

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from repro.sim.world import SimulationResult, World

_log = get_logger(__name__)


@dataclass(frozen=True)
class CampaignPhase:
    """One phase of a campaign: a number of days at a participation rate."""

    name: str
    days: int
    participation_rate: float
    route_ids: Optional[Tuple[str, ...]] = None   # None: all routes

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("a phase needs at least one day")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ValueError("participation rate must be in (0, 1]")


@dataclass
class DayStats:
    """What one service day produced."""

    day_index: int
    phase: str
    bus_trips: int
    uploads: int
    trips_mapped: int
    segments_updated: int
    map_coverage: float


@dataclass
class CampaignResult:
    """Aggregated outcome of a multi-day campaign.

    ``days`` covers every service day, including days recovered from a
    durable store on resume; ``day_results`` holds the
    :class:`SimulationResult` of days actually (re-)simulated in this
    process — recovered days have no in-memory simulation to return.
    """

    world: World
    days: List[DayStats]
    day_results: List[SimulationResult]

    def phase_days(self, phase_name: str) -> List[DayStats]:
        """Per-day stats of one phase."""
        return [d for d in self.days if d.phase == phase_name]

    def uploads_per_day(self, phase_name: str) -> float:
        """Mean uploads per day within a phase."""
        days = self.phase_days(phase_name)
        if not days:
            raise KeyError(f"no days in phase {phase_name!r}")
        return float(np.mean([d.uploads for d in days]))


class Campaign:
    """Runs a world through consecutive service days."""

    def __init__(
        self,
        world: World,
        start: str = "07:00",
        end: str = "20:00",
        headway_s: Optional[float] = None,
        with_official_feed: bool = False,
    ):
        self.world = world
        self.start_s = parse_hhmm(start)
        self.end_s = parse_hhmm(end)
        self.headway_s = headway_s
        self.with_official_feed = with_official_feed

    def run(
        self, phases: Sequence[CampaignPhase], *, resume: bool = False
    ) -> CampaignResult:
        """Execute the phases back to back; backend state persists.

        With a durable store attached to the world's server, every day
        is bracketed by ``day_start`` / ``day_end`` WAL markers and the
        server snapshots at day boundaries (``store_snapshot_every``
        cadence).  ``resume=True`` restores the latest snapshot, replays
        the WAL tail, and continues exactly where a killed run stopped —
        including mid-day, by re-simulating the interrupted day and
        skipping the event prefix already recovered from the WAL.
        """
        if not phases:
            raise ValueError("campaign needs at least one phase")
        server = self.world.server
        journaling = server.is_journaling
        if resume and not journaling:
            raise ValueError(
                "resume requires a durable store (repro campaign --store)"
            )
        #: The flat day plan: (day index, phase) in execution order.
        plan: List[Tuple[int, CampaignPhase]] = []
        for phase in phases:
            for _ in range(phase.days):
                plan.append((len(plan), phase))
        if journaling:
            self._check_meta(phases, resume=resume)
        base_riders = self.world.config.riders
        days: List[DayStats] = []
        results: List[SimulationResult] = []
        first_day = 0
        skip_events = 0
        day_start_journaled = False
        prev_stats = _StatsSnapshot.capture(self.world)
        if resume:
            recovered = self._recover()
            days.extend(recovered.completed)
            first_day = recovered.next_day
            skip_events = recovered.skip_events
            day_start_journaled = recovered.mid_day
            prev_stats = recovered.prev_stats
            if first_day > len(plan):
                raise ValueError(
                    f"store already holds {first_day} campaign days but "
                    f"the plan has only {len(plan)}"
                )
        try:
            for day_index, phase in plan[first_day:]:
                self.world.config = dataclasses.replace(
                    self.world.config,
                    riders=dataclasses.replace(
                        base_riders,
                        participation_rate=phase.participation_rate,
                    ),
                )
                offset = day_index * SECONDS_PER_DAY
                if not day_start_journaled:
                    # Journaled before any day event: carries everything
                    # a resume needs to re-enter this day — the rider-id
                    # counter position and the cumulative stats that seed
                    # the per-day deltas.
                    server.journal_marker(
                        "day_start",
                        day=day_index,
                        phase=phase.name,
                        rider_next=self.world.rider_counter.value,
                        start_s=self.start_s + offset,
                        end_s=self.end_s + offset,
                        stats={
                            "trips_received": prev_stats.trips_received,
                            "trips_mapped": prev_stats.trips_mapped,
                            "segments_updated": prev_stats.segments_updated,
                        },
                    )
                day_start_journaled = False
                with self.world.tracer.span("campaign_day"):
                    result = self.world.run(
                        self.start_s + offset,
                        self.end_s + offset,
                        route_ids=phase.route_ids,
                        headway_s=self.headway_s,
                        with_official_feed=self.with_official_feed,
                        skip_events=skip_events,
                    )
                skip_events = 0
                results.append(result)
                snapshot = self.world.server.traffic_map.published_snapshot(
                    self.end_s + offset
                )
                current = _StatsSnapshot.capture(self.world)
                day = DayStats(
                    day_index=day_index,
                    phase=phase.name,
                    bus_trips=len(result.traces),
                    uploads=current.trips_received - prev_stats.trips_received,
                    trips_mapped=current.trips_mapped - prev_stats.trips_mapped,
                    segments_updated=(
                        current.segments_updated - prev_stats.segments_updated
                    ),
                    map_coverage=snapshot.coverage,
                )
                days.append(day)
                server.journal_marker(
                    "day_end",
                    day=day_index,
                    phase=phase.name,
                    rider_next=self.world.rider_counter.value,
                    stats={
                        "bus_trips": day.bus_trips,
                        "uploads": day.uploads,
                        "trips_mapped": day.trips_mapped,
                        "segments_updated": day.segments_updated,
                        "map_coverage": day.map_coverage,
                    },
                )
                self._count_day(day)
                # Day boundaries are the campaign's only quiescent
                # points (see BackendServer.maybe_snapshot); the cadence
                # decides whether this boundary actually snapshots.
                server.maybe_snapshot()
                freshness = self.world.server.freshness.report(
                    self.end_s + offset
                )
                stale_routes = sorted(
                    route_id
                    for route_id, entry in freshness["routes"].items()
                    if not entry["covered_segments"]
                )
                log_event(
                    _log, "campaign_day",
                    day_index=day.day_index, phase=day.phase,
                    bus_trips=day.bus_trips, uploads=day.uploads,
                    trips_mapped=day.trips_mapped,
                    segments_updated=day.segments_updated,
                    map_coverage=round(day.map_coverage, 4),
                    uncovered_routes=len(stale_routes),
                )
                prev_stats = current
        finally:
            self.world.config = dataclasses.replace(
                self.world.config, riders=base_riders
            )
        return CampaignResult(world=self.world, days=days, day_results=results)

    # -- durable-store plumbing ----------------------------------------------

    def _fingerprint(self, phases: Sequence[CampaignPhase]) -> str:
        """Canonical identity of this campaign's configuration.

        Everything that shapes the deterministic event stream is in.
        """
        doc = {
            "v": 1,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "headway_s": self.headway_s,
            "seed": self.world.seed,
            "phases": [
                {
                    "name": phase.name,
                    "days": phase.days,
                    "participation_rate": phase.participation_rate,
                    "route_ids": (
                        list(phase.route_ids)
                        if phase.route_ids is not None else None
                    ),
                }
                for phase in phases
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def _check_meta(
        self, phases: Sequence[CampaignPhase], *, resume: bool
    ) -> None:
        store = self.world.server.store
        fingerprint = self._fingerprint(phases)
        existing = store.get_meta("campaign")
        if not resume:
            if existing is not None or store.last_seq() > 0:
                raise ValueError(
                    "store already holds campaign state; resume it "
                    "(repro campaign --resume) or point --store at a "
                    "fresh path"
                )
        elif existing is not None and existing != fingerprint:
            raise ValueError(
                "campaign configuration does not match the store; a "
                "resume must use the original phases, schedule and seed"
            )
        store.set_meta("campaign", fingerprint)

    def _count_day(self, day: DayStats) -> None:
        """Increment the campaign telemetry counters for one day."""
        self.world.registry.counter(
            "campaign_days_total", help="campaign service days simulated"
        ).inc()
        self.world.registry.labeled_counter(
            "campaign_days_by_phase_total", ("phase",),
            help="campaign service days simulated per phase",
        ).labels(day.phase).inc()
        self.world.registry.labeled_counter(
            "campaign_uploads_total", ("phase",),
            help="trip uploads received per campaign phase",
        ).labels(day.phase).inc(day.uploads)

    def _recover(self) -> "_Recovered":
        """Restore snapshot + replay the WAL; returns where to continue.

        One pass over the full WAL does double duty: the server replays
        every record above its restored watermark (idempotently skipping
        the rest), while the campaign reads the ``day_start``/``day_end``
        markers for day bookkeeping — completed :class:`DayStats`, the
        rider-counter position, and how many events of a half-finished
        day are already applied (the ``skip_events`` for its re-run).
        Campaign counters for day ends *above* the watermark are
        re-incremented here; those below it are already inside the
        restored registry.
        """
        server = self.world.server
        server.load_snapshot()
        completed: List[DayStats] = []
        open_day: Optional[Dict] = None
        open_events = 0
        rider_next = 0
        replayed = 0
        for record in server.store.wal_records():
            live = server.replay_record(record)
            replayed += int(live)
            kind = record.get("kind")
            if kind == "day_start":
                open_day = record
                open_events = 0
            elif kind == "day_end":
                stats = record["stats"]
                day = DayStats(
                    day_index=int(record["day"]),
                    phase=str(record["phase"]),
                    bus_trips=int(stats["bus_trips"]),
                    uploads=int(stats["uploads"]),
                    trips_mapped=int(stats["trips_mapped"]),
                    segments_updated=int(stats["segments_updated"]),
                    map_coverage=float(stats["map_coverage"]),
                )
                completed.append(day)
                rider_next = int(record["rider_next"])
                open_day = None
                open_events = 0
                if live:
                    self._count_day(day)
            elif open_day is not None:
                open_events += 1
        if open_day is not None:
            # Crashed mid-day: re-enter the day with the rider counter
            # and stats baseline it started with; the re-simulated event
            # stream skips the prefix the WAL already covered.
            self.world.rider_counter.reset(int(open_day["rider_next"]))
            stats = open_day["stats"]
            log_event(
                _log, "campaign_resume",
                completed_days=len(completed),
                resume_day=int(open_day["day"]),
                replayed_records=replayed,
                skip_events=open_events,
            )
            return _Recovered(
                completed=completed,
                next_day=int(open_day["day"]),
                skip_events=open_events,
                mid_day=True,
                prev_stats=_StatsSnapshot(
                    trips_received=int(stats["trips_received"]),
                    trips_mapped=int(stats["trips_mapped"]),
                    segments_updated=int(stats["segments_updated"]),
                ),
            )
        self.world.rider_counter.reset(rider_next)
        log_event(
            _log, "campaign_resume",
            completed_days=len(completed),
            resume_day=len(completed),
            replayed_records=replayed,
            skip_events=0,
        )
        return _Recovered(
            completed=completed,
            next_day=len(completed),
            skip_events=0,
            mid_day=False,
            prev_stats=_StatsSnapshot.capture(self.world),
        )


@dataclass(frozen=True)
class _Recovered:
    """What :meth:`Campaign._recover` pieced back together."""

    completed: List[DayStats]
    next_day: int
    skip_events: int
    mid_day: bool
    prev_stats: "_StatsSnapshot"


@dataclass(frozen=True)
class _StatsSnapshot:
    trips_received: int
    trips_mapped: int
    segments_updated: int

    @classmethod
    def capture(cls, world: World) -> "_StatsSnapshot":
        stats = world.server.stats
        return cls(
            trips_received=stats.trips_received,
            trips_mapped=stats.trips_mapped,
            segments_updated=stats.segments_updated,
        )
