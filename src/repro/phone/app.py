"""The data-collection app: ties sensing, filtering and recording together.

A :class:`PhoneAgent` is one participant's phone riding one bus trip.
It hears the IC-card beeps of every boarding passenger while onboard,
captures a cellular sample per detected beep, gates the trip on the
accelerometer filter, and emits the anonymous :class:`TripUpload` the
backend consumes.

Two DSP fidelities are offered:

* ``FAST`` — beep detection outcome drawn from the configured
  end-to-end detection probability (used by the large campaign
  simulations; the probability itself is validated against FULL mode).
* ``FULL`` — synthesise actual cabin audio around every stop and run
  the Goertzel sliding-window detector on it, plus a synthetic
  accelerometer trace through the variance filter (used by tests,
  examples and the DSP benches).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.city.stops import StopRegistry
from repro.config import SystemConfig
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.phone.accel import TransitModeFilter
from repro.phone.beep import BeepDetector
from repro.phone.cellular import CellularSampler
from repro.phone.trip_recorder import TripRecorder, TripUpload
from repro.radio.scanner import PendingScan
from repro.sim.audio import synthesize_cabin_audio, synthesize_motion
from repro.sim.bus import BusTripTrace, ParticipantRide, StopVisit
from repro.util.rng import SeedLike, ensure_rng


class DspMode(Enum):
    """Signal-processing fidelity of the agent."""

    FAST = "fast"
    FULL = "full"


#: Audio lead-in before the first tap of a stop so the detector's noise
#: statistics are warm (the detector needs ~0.8 s of ambience).
_AUDIO_LEAD_S = 1.5
_AUDIO_TAIL_S = 1.0

_log = get_logger(__name__)


class PhoneAgent:
    """One participant's phone during one bus ride."""

    def __init__(
        self,
        phone_id: str,
        sampler: CellularSampler,
        registry: StopRegistry,
        config: Optional[SystemConfig] = None,
        mode: DspMode = DspMode.FAST,
        rng: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.phone_id = phone_id
        self.sampler = sampler
        self.registry = registry
        self.config = config or SystemConfig()
        self.mode = mode
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._rng = ensure_rng(rng)

    def ride_and_record(
        self, trace: BusTripTrace, ride: ParticipantRide
    ) -> List[TripUpload]:
        """Ride the bus from boarding to alighting; return completed uploads."""
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
        # Walk the ride drawing each beep's scan noise in stream order; the
        # recorder reads only sample times and draws nothing, so the scans
        # are evaluated together afterwards and fed in the same order.
        pending: List[Tuple[float, PendingScan]] = []
        for visit in onboard_visits:
            pending.extend(self._draws_at_stop(trace, visit))
            self._maybe_false_draw(pending, trace, visit)
        for sample in self.sampler.evaluate(pending):
            recorder.on_beep(sample, looks_like_bus=looks_like_bus)

        if onboard_visits:
            # Ride over: the 10-minute silence timeout concludes the trip.
            last = max(v.depart_s for v in onboard_visits)
            recorder.on_tick(last + self.config.trip_recorder.trip_timeout_s)
        uploads = recorder.drain_completed()
        self.metrics.counter(
            "phone_uploads_total", help="trips completed by phone agents"
        ).inc(len(uploads))
        log_event(
            _log, "ride_recorded", level=logging.DEBUG,
            phone_id=self.phone_id, uploads=len(uploads),
            samples=sum(len(u.samples) for u in uploads),
        )
        return uploads

    # -- sensing ---------------------------------------------------------------

    def _motion_verdict(self) -> bool:
        """Accelerometer gate: does this ride move like a bus?"""
        if self.mode is DspMode.FAST:
            return True
        trace = synthesize_motion("bus", 60.0, self.config.accel, self._rng)
        return TransitModeFilter(self.config.accel).is_bus(trace.samples)

    def _draws_at_stop(
        self, trace: BusTripTrace, visit: StopVisit
    ) -> List[Tuple[float, PendingScan]]:
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
            (
                time_s,
                self.sampler.draw(
                    platform.position.offset(
                        float(self._rng.normal(0.0, 2.0)),
                        float(self._rng.normal(0.0, 2.0)),
                    ),
                    self._rng,
                ),
            )
            for time_s in sorted(detected_times)
        ]

    def _detect_with_dsp(self, tap_times: Sequence[float]) -> List[float]:
        """FULL mode: synthesise cabin audio and run the Goertzel detector."""
        start = min(tap_times) - _AUDIO_LEAD_S
        duration = max(tap_times) - start + _AUDIO_TAIL_S
        audio = synthesize_cabin_audio(
            duration_s=duration,
            beep_times_s=[t - start for t in tap_times],
            config=self.config.beep,
            rng=self._rng,
        )
        events = BeepDetector(self.config.beep).process(audio)
        return [start + e.time_s for e in events]

    def _maybe_false_draw(
        self,
        pending: List[Tuple[float, PendingScan]],
        trace: BusTripTrace,
        visit: StopVisit,
    ) -> None:
        """Occasionally a mid-road noise burst masquerades as a beep."""
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
        pending.append((when, self.sampler.draw(where, self._rng)))


def record_participant_trips(
    trace: BusTripTrace,
    registry: StopRegistry,
    sampler: CellularSampler,
    config: Optional[SystemConfig] = None,
    mode: DspMode = DspMode.FAST,
    rng: SeedLike = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[TripUpload]:
    """Run a phone agent for every participant on a bus trip."""
    rng = ensure_rng(rng)
    config = config or SystemConfig()
    uploads: List[TripUpload] = []
    for ride in trace.participants:
        agent = PhoneAgent(
            phone_id=f"rider-{ride.rider_id}",
            sampler=sampler,
            registry=registry,
            config=config,
            mode=mode,
            rng=rng,
            metrics=metrics,
        )
        uploads.extend(agent.ride_and_record(trace, ride))
    return uploads
