"""Tests for the phone agent (the data-collection app)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.phone.app import DspMode, PhoneAgent, record_participant_trips
from repro.obs.metrics import MetricsRegistry
from repro.sim.bus import simulate_bus_trip
from repro.testkit.oracles import OraclePhoneAgent
from repro.util.units import parse_hhmm


@pytest.fixture()
def trace(small_city, traffic):
    route = small_city.route_network.route("179-0")
    return simulate_bus_trip(
        route,
        parse_hhmm("08:00"),
        traffic,
        itertools.count(),
        rng=np.random.default_rng(6),
    )


def make_agent(small_city, sampler, config, mode=DspMode.FAST, seed=0):
    return PhoneAgent(
        phone_id="test-phone",
        sampler=sampler,
        registry=small_city.registry,
        config=config,
        mode=mode,
        rng=np.random.default_rng(seed),
    )


class TestFastMode:
    def test_produces_one_upload(self, small_city, sampler, config, trace):
        ride = trace.participants[0]
        agent = make_agent(small_city, sampler, config)
        uploads = agent.ride_and_record(trace, ride)
        assert len(uploads) == 1

    def test_samples_cover_onboard_stops(self, small_city, sampler, config, trace):
        ride = max(trace.participants, key=lambda p: p.alight_order - p.board_order)
        agent = make_agent(small_city, sampler, config)
        upload = agent.ride_and_record(trace, ride)[0]
        onboard = [
            v for v in trace.visits
            if ride.board_order <= v.stop_order <= ride.alight_order and v.served
        ]
        first, last = onboard[0], onboard[-1]
        assert upload.start_s >= first.arrival_s
        assert upload.end_s <= last.depart_s + 60.0

    def test_samples_time_ordered(self, small_city, sampler, config, trace):
        agent = make_agent(small_city, sampler, config)
        for ride in trace.participants[:3]:
            for upload in agent.ride_and_record(trace, ride):
                times = [s.time_s for s in upload.samples]
                assert times == sorted(times)

    def test_sample_count_tracks_heard_taps(self, small_city, sampler, config, trace):
        ride = max(trace.participants, key=lambda p: p.alight_order - p.board_order)
        agent = make_agent(small_city, sampler, config)
        upload = agent.ride_and_record(trace, ride)[0]
        heard = [
            t for t in trace.taps
            if ride.board_order <= t.stop_order <= ride.alight_order
        ]
        # Detection probability is high; a couple of misses are fine.
        assert len(upload.samples) >= 0.85 * len(heard)
        assert len(upload.samples) <= len(heard) + 3   # + rare false samples

    def test_record_participant_trips_covers_all(self, small_city, sampler, config, trace):
        uploads = record_participant_trips(
            trace, small_city.registry, sampler, config, rng=np.random.default_rng(1)
        )
        assert len(uploads) >= 0.9 * len(trace.participants)


class TestFullDspMode:
    def test_full_mode_close_to_fast_mode(self, small_city, sampler, config, trace):
        """FULL mode (real audio + Goertzel) finds nearly the same beeps."""
        ride = max(trace.participants, key=lambda p: p.alight_order - p.board_order)
        fast = make_agent(small_city, sampler, config, DspMode.FAST, seed=2)
        full = make_agent(small_city, sampler, config, DspMode.FULL, seed=2)
        fast_upload = fast.ride_and_record(trace, ride)[0]
        full_upload = full.ride_and_record(trace, ride)[0]
        assert len(full_upload.samples) >= 0.8 * len(fast_upload.samples)

    def test_full_mode_sample_times_near_taps(self, small_city, sampler, config, trace):
        ride = max(trace.participants, key=lambda p: p.alight_order - p.board_order)
        agent = make_agent(small_city, sampler, config, DspMode.FULL, seed=3)
        upload = agent.ride_and_record(trace, ride)[0]
        tap_times = np.array([
            t.time_s for t in trace.taps
            if ride.board_order <= t.stop_order <= ride.alight_order
        ])
        for sample in upload.samples:
            assert np.min(np.abs(tap_times - sample.time_s)) < 1.0


class TestAgainstPerBeepOracle:
    """The per-ride batch evaluation against one immediate scan per beep:
    same uploads (keys, times, tower ids, RSS floats), same counters and
    the same Generator state after every ride."""

    @staticmethod
    def _walk(cls, small_city, sampler, config, mode, rides, trace):
        rng = np.random.default_rng(11)
        metrics = MetricsRegistry()
        uploads = []
        for ride in rides:
            agent = cls(
                phone_id=f"rider-{ride.rider_id}",
                sampler=sampler,
                registry=small_city.registry,
                config=config,
                mode=mode,
                rng=rng,
                metrics=metrics,
            )
            uploads.append(agent.ride_and_record(trace, ride))
            uploads.append(rng.bit_generator.state)
        return uploads, metrics.as_dict()

    @pytest.mark.parametrize("false_sample_probability", [0.01, 0.5])
    @pytest.mark.parametrize("mode", [DspMode.FAST, DspMode.FULL])
    def test_equals_oracle(
        self, small_city, sampler, config, trace, mode, false_sample_probability
    ):
        config = dataclasses.replace(
            config,
            riders=dataclasses.replace(
                config.riders, false_sample_probability=false_sample_probability
            ),
        )
        rides = trace.participants if mode is DspMode.FAST else trace.participants[:3]
        batched = self._walk(PhoneAgent, small_city, sampler, config, mode, rides, trace)
        oracle = self._walk(
            OraclePhoneAgent, small_city, sampler, config, mode, rides, trace
        )
        assert batched == oracle
        assert sum(len(u.samples) for ups in batched[0][::2] for u in ups) > 0
        if false_sample_probability == 0.5:
            assert batched[1]["counters"]["phone_false_samples_total"] > 0
