"""WAL replay idempotence and campaign-resume semantics.

The durability contract is replay idempotence: the ``applied_seq``
watermark means *any* WAL prefix, replayed any number of times, with a
snapshot/restore round-trip inserted at any offset, lands the server on
exactly the state a straight single pass produces — duplicate-upload
counters included.  The hypothesis suite drives that with random repeat
counts and snapshot offsets; equality is exact, via the testkit's
canonical golden-trace renderer (stats + traffic map + whitelisted
metrics).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim.campaign import Campaign, CampaignPhase
from repro.sim.world import World
from repro.testkit.golden import render_trace, trace_from_server
from repro.testkit.memory_store import MemoryStateStore

START_S = 27000.0   # 07:30
END_S = 28200.0     # 07:50 — short day, ~30 trips
SEED = 11


def _world(small_city, store=None):
    return World(
        city=small_city,
        config=SystemConfig(),
        seed=SEED,
        registry=MetricsRegistry(),
        store=store,
    )


@pytest.fixture(scope="module")
def wal_case(small_city):
    """One journaled run: its WAL records, its golden trace, and a
    scratch world whose pristine state every example restores."""
    store = MemoryStateStore()
    world = _world(small_city, store=store)
    result = world.run(START_S, END_S, headway_s=1200.0,
                       with_official_feed=False)
    # Re-deliver two uploads (flaky-uplink retries): the duplicates are
    # journaled too, so replay must reproduce the duplicate counters.
    now = world.server.traffic_map.publish_times[-1] + 60.0
    for upload in result.uploads[:2]:
        world.server.receive_trip(upload, now_s=now)
    world.server.publish(now + 300.0)
    records = list(store.wal_records())
    golden = render_trace(trace_from_server(world.server))
    scratch = _world(small_city)
    pristine = scratch.server.state_dict()
    assert len(records) > 20
    return {
        "records": records,
        "golden": golden,
        "scratch": scratch,
        "pristine": pristine,
    }


def _replay_with(case, snapshot_offset, repeats):
    """Replay the whole WAL onto the pristine scratch server, round-
    tripping through a state snapshot at ``snapshot_offset`` and
    re-delivering record ``i`` ``repeats[i]`` times."""
    records = case["records"]
    server = case["scratch"].server
    server.restore_state(case["pristine"])
    for i, record in enumerate(records):
        if i == snapshot_offset:
            server.restore_state(server.state_dict())
        applied = server.replay_record(record)
        assert applied, f"first delivery of seq {record['seq']} must apply"
        for _ in range(repeats[i % len(repeats)] - 1):
            assert not server.replay_record(record)
    return server


@pytest.mark.property
class TestReplayIdempotence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_replay_schedule_lands_on_the_same_state(self, wal_case,
                                                         data):
        n = len(wal_case["records"])
        offset = data.draw(st.integers(min_value=0, max_value=n),
                           label="snapshot_offset")
        repeats = data.draw(
            st.lists(st.integers(min_value=1, max_value=3),
                     min_size=1, max_size=8),
            label="repeats",
        )
        server = _replay_with(wal_case, offset, repeats)
        assert render_trace(trace_from_server(server)) == wal_case["golden"]

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(min_value=2, max_value=4))
    def test_full_wal_replayed_k_times(self, wal_case, k):
        server = wal_case["scratch"].server
        server.restore_state(wal_case["pristine"])
        for round_no in range(k):
            applied = sum(
                server.replay_record(r) for r in wal_case["records"]
            )
            assert applied == (len(wal_case["records"]) if round_no == 0
                               else 0)
        assert render_trace(trace_from_server(server)) == wal_case["golden"]


class TestRecovery:
    def test_recover_from_wal_only(self, small_city, wal_case):
        store = MemoryStateStore()
        for record in wal_case["records"]:
            store.append_wal(dict(record))
        world = _world(small_city, store=store)
        replayed = world.server.recover()
        assert replayed == len(wal_case["records"])
        assert (render_trace(trace_from_server(world.server))
                == wal_case["golden"])

    @pytest.mark.parametrize("cut", [1, 7, -1])
    def test_recover_from_snapshot_plus_tail(self, small_city, wal_case,
                                             cut):
        records = wal_case["records"]
        cut = cut % len(records)
        store = MemoryStateStore()
        for record in records:
            store.append_wal(dict(record))
        # A first process applied a prefix and snapshotted at it...
        first = _world(small_city, store=store)
        for record in records[:cut]:
            first.server.replay_record(record)
        assert first.server.maybe_snapshot(force=True)
        # ...then a fresh process recovers: snapshot + tail replay.
        second = _world(small_city, store=store)
        replayed = second.server.recover()
        assert replayed == len(records) - cut
        assert (render_trace(trace_from_server(second.server))
                == wal_case["golden"])

    def test_snapshot_respects_cadence(self, small_city):
        config = SystemConfig(
            ingest=dataclasses.replace(
                SystemConfig().ingest, store_snapshot_every=5
            )
        )
        store = MemoryStateStore()
        world = World(city=small_city, config=config, seed=SEED, store=store)
        server = world.server
        for i in range(1, 5):
            server.journal_marker("day_start", day=i)
            assert not server.maybe_snapshot()
        server.journal_marker("day_start", day=5)
        assert server.maybe_snapshot()
        assert store.latest_snapshot()[0] == 5
        assert not server.maybe_snapshot()  # cadence counter reset


class TestCampaignResumeValidation:
    def _campaign(self, small_city, store):
        world = _world(small_city, store=store)
        return Campaign(world, start="08:00", end="08:20", headway_s=1200.0)

    def test_resume_without_store_rejected(self, small_city):
        campaign = self._campaign(small_city, store=None)
        phases = [CampaignPhase("sparse", 1, 0.05)]
        with pytest.raises(ValueError, match="requires a durable store"):
            campaign.run(phases, resume=True)

    def test_fresh_run_on_dirty_store_rejected(self, small_city):
        store = MemoryStateStore()
        phases = [CampaignPhase("sparse", 1, 0.05)]
        self._campaign(small_city, store).run(phases)
        with pytest.raises(ValueError, match="already holds campaign state"):
            self._campaign(small_city, store).run(phases)

    def test_resume_with_changed_config_rejected(self, small_city):
        store = MemoryStateStore()
        self._campaign(small_city, store).run(
            [CampaignPhase("sparse", 1, 0.05)]
        )
        with pytest.raises(ValueError, match="does not match the store"):
            self._campaign(small_city, store).run(
                [CampaignPhase("sparse", 1, 0.10)], resume=True
            )

    def test_resume_on_empty_store_is_fresh_start(self, small_city):
        store = MemoryStateStore()
        result = self._campaign(small_city, store).run(
            [CampaignPhase("sparse", 1, 0.05)], resume=True
        )
        assert len(result.days) == 1
        assert len(result.day_results) == 1

    def test_resume_after_completion_resimulates_nothing(self, small_city):
        store = MemoryStateStore()
        phases = [CampaignPhase("sparse", 1, 0.05),
                  CampaignPhase("intensive", 1, 0.2)]
        first = self._campaign(small_city, store).run(phases)
        golden = render_trace(trace_from_server(first.world.server))
        resumed = self._campaign(small_city, store).run(phases, resume=True)
        assert len(resumed.day_results) == 0      # nothing re-simulated
        assert [d.day_index for d in resumed.days] == [0, 1]
        assert resumed.days == first.days
        assert (render_trace(trace_from_server(resumed.world.server))
                == golden)

    def test_resume_restores_rider_counter(self, small_city):
        store = MemoryStateStore()
        phases = [CampaignPhase("sparse", 1, 0.05)]
        first = self._campaign(small_city, store).run(phases)
        position = first.world.rider_counter.value
        assert position > 0
        resumed = self._campaign(small_city, store).run(phases, resume=True)
        assert resumed.world.rider_counter.value == position
