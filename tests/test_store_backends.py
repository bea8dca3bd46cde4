"""Conformance matrix for the durable state tier.

The append log and the testkit's in-process fake must speak the same
:class:`~repro.store.base.StateStore` contract — WAL append/iterate with
strict seq monotonicity, latest-wins snapshots, metadata — and the
append log must survive a close + reopen of the same path.  It also
owns torn-write detection: a crash can only damage the tail of an
append-only file, and reopening must truncate exactly the bad suffix.
"""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.campaign import Campaign, CampaignPhase
from repro.store import FSYNC_POLICIES, NULL_STORE, NullStateStore, open_store
from repro.store.appendlog import _FRAME, AppendLogStateStore
from repro.testkit.memory_store import MemoryStateStore


def _memory_factory(tmp_path):
    store = MemoryStateStore()
    return lambda: store


def _appendlog_factory(tmp_path):
    path = str(tmp_path / "state")
    return lambda: AppendLogStateStore(path)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]

FACTORIES = {
    "memory": _memory_factory,
    "appendlog": _appendlog_factory,
}


@pytest.fixture(params=sorted(FACTORIES))
def factory(request, tmp_path):
    """Calling it opens the *same* store again (memory returns the same
    object; the append log reopens the path)."""
    return FACTORIES[request.param](tmp_path)


@pytest.fixture(params=["appendlog"])
def durable_factory(request, tmp_path):
    """Reopens the path: for the checks that state survives a close."""
    return FACTORIES[request.param](tmp_path)


class TestContract:
    def test_empty_store(self, factory):
        with factory() as store:
            assert store.last_seq() == 0
            assert list(store.wal_records()) == []
            assert store.latest_snapshot() is None
            assert store.get_meta("campaign") is None

    def test_append_and_read_back(self, factory):
        records = [
            {"seq": 1, "kind": "trip", "trip": {"key": "a#0"}},
            {"seq": 2, "kind": "publish", "at_s": 300.0},
            {"seq": 3, "kind": "day_end", "day": 0},
        ]
        with factory() as store:
            for record in records:
                assert store.append_wal(dict(record)) == record["seq"]
            assert store.last_seq() == 3
            assert list(store.wal_records()) == records
            assert list(store.wal_records(after_seq=2)) == records[2:]

    def test_seq_must_increase(self, factory):
        with factory() as store:
            store.append_wal({"seq": 5, "kind": "publish", "at_s": 1.0})
            for bad in (5, 4, 0, -1):
                with pytest.raises(ValueError, match="seq must increase"):
                    store.append_wal({"seq": bad, "kind": "publish"})
            store.append_wal({"seq": 6, "kind": "publish", "at_s": 2.0})

    def test_seq_must_be_int(self, factory):
        with factory() as store:
            for bad in (None, "7", 7.0, True):
                with pytest.raises(ValueError, match="integer 'seq'"):
                    store.append_wal({"seq": bad, "kind": "publish"})

    def test_snapshot_latest_wins(self, factory):
        with factory() as store:
            assert store.latest_snapshot() is None
            store.write_snapshot(10, {"v": 1, "n": 10})
            store.write_snapshot(25, {"v": 1, "n": 25})
            assert store.latest_snapshot() == (25, {"v": 1, "n": 25})

    def test_metadata_roundtrip(self, factory):
        with factory() as store:
            store.set_meta("campaign", "fingerprint-1")
            store.set_meta("campaign", "fingerprint-2")
            store.set_meta("other", "x")
            assert store.get_meta("campaign") == "fingerprint-2"
            assert store.get_meta("other") == "x"
            assert store.get_meta("missing") is None

    def test_float_payloads_roundtrip_exactly(self, factory):
        values = [0.1 + 0.2, 1e-17, 123456.789012345, -0.0]
        with factory() as store:
            store.append_wal({"seq": 1, "kind": "publish", "vals": values})
            (back,) = store.wal_records()
        assert back["vals"] == values
        assert [repr(v) for v in back["vals"]] == [repr(v) for v in values]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_wal_record_writes_nothing(self, factory, bad):
        with factory() as store:
            store.append_wal({"seq": 1, "kind": "publish", "at_s": 1.0})
            with pytest.raises(ValueError):
                store.append_wal({"seq": 2, "kind": "trip", "trip": {"t": [5.0, bad]}})
            assert store.last_seq() == 1
            assert [r["seq"] for r in store.wal_records()] == [1]
        if isinstance(store, AppendLogStateStore):
            with factory() as store:
                assert [r["seq"] for r in store.wal_records()] == [1]
                store.append_wal({"seq": 2, "kind": "publish", "at_s": 2.0})
                assert store.last_seq() == 2

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_snapshot_writes_nothing(self, factory, bad):
        with factory() as store:
            store.write_snapshot(1, {"v": 1, "speed": 3.5})
            with pytest.raises(ValueError):
                store.write_snapshot(2, {"v": 1, "speed": bad})
            assert store.latest_snapshot() == (1, {"v": 1, "speed": 3.5})
        with factory() as store:
            assert store.latest_snapshot() == (1, {"v": 1, "speed": 3.5})

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_campaign_meta_writes_nothing(self, factory, bad):
        """The campaign's configuration document is the meta the store
        keeps; a NaN headway must not reach it."""
        with factory() as store:
            world = SimpleNamespace(seed=7, server=SimpleNamespace(store=store))
            with pytest.raises(ValueError):
                Campaign(world, headway_s=bad)._check_meta(
                    [CampaignPhase("p", 1, 0.5)], resume=False
                )
            assert store.get_meta("campaign") is None

    def test_survives_reopen(self, durable_factory):
        with durable_factory() as store:
            store.append_wal({"seq": 1, "kind": "trip", "trip": {}})
            store.append_wal({"seq": 2, "kind": "publish", "at_s": 60.0})
            store.write_snapshot(1, {"v": 1, "watermark": 1})
            store.set_meta("campaign", "fp")
        with durable_factory() as store:
            assert store.last_seq() == 2
            assert len(list(store.wal_records())) == 2
            assert store.latest_snapshot() == (1, {"v": 1, "watermark": 1})
            assert store.get_meta("campaign") == "fp"
            # and the log keeps accepting appends where it left off
            store.append_wal({"seq": 3, "kind": "publish", "at_s": 120.0})
            assert store.last_seq() == 3

    def test_close_is_idempotent(self, factory):
        store = factory()
        store.append_wal({"seq": 1, "kind": "publish", "at_s": 0.5})
        store.sync()
        store.close()
        store.close()

    def test_observability_binding(self, factory):
        registry = MetricsRegistry()
        with factory() as store:
            assert store.bind_observability(registry=registry) is store
            store.append_wal({"seq": 1, "kind": "trip", "trip": {}})
            store.write_snapshot(1, {"v": 1})
        metrics = registry.as_dict()
        assert metrics["counters"]["store_wal_appends_total"] == 1
        assert metrics["counters"]["store_wal_bytes_total"] > 0
        assert metrics["counters"]["store_snapshots_total"] == 1
        assert metrics["histograms"]["store_wal_append_seconds"]["count"] == 1


class TestAppendLogTailRecovery:
    """Crash damage lands on the tail; reopening must cut exactly it."""

    def _seed_log(self, tmp_path, n=3):
        path = str(tmp_path / "state")
        with AppendLogStateStore(path) as store:
            for seq in range(1, n + 1):
                store.append_wal({"seq": seq, "kind": "publish", "at_s": seq})
        return path

    def test_clean_log_reports_no_truncation(self, tmp_path):
        path = self._seed_log(tmp_path)
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes == 0
            assert store.last_seq() == 3

    def test_torn_header_truncated(self, tmp_path):
        path = self._seed_log(tmp_path)
        wal = tmp_path / "state" / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"\x09\x00")  # half a header
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes == 2
            assert store.last_seq() == 3
            assert len(list(store.wal_records())) == 3

    def test_torn_payload_truncated(self, tmp_path):
        path = self._seed_log(tmp_path)
        wal = tmp_path / "state" / "wal.log"
        # A full header promising 100 payload bytes, then the crash.
        torn = _FRAME.pack(4, 100, 0) + b"{\"seq\":4"
        wal.write_bytes(wal.read_bytes() + torn)
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes == len(torn)
            assert store.last_seq() == 3

    def test_corrupt_crc_truncated(self, tmp_path):
        path = self._seed_log(tmp_path)
        wal = tmp_path / "state" / "wal.log"
        data = bytearray(wal.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the last record
        wal.write_bytes(bytes(data))
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes > 0
            assert store.last_seq() == 2
            assert len(list(store.wal_records())) == 2

    def test_non_monotone_garbage_frame_truncated(self, tmp_path):
        path = self._seed_log(tmp_path)
        wal = tmp_path / "state" / "wal.log"
        import zlib

        payload = b'{"kind":"publish","seq":2}'
        frame = _FRAME.pack(2, len(payload), zlib.crc32(payload))
        wal.write_bytes(wal.read_bytes() + frame + payload)
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes == len(frame) + len(payload)
            assert store.last_seq() == 3

    def test_append_continues_after_truncation(self, tmp_path):
        path = self._seed_log(tmp_path)
        wal = tmp_path / "state" / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"garbage-tail")
        with AppendLogStateStore(path) as store:
            store.append_wal({"seq": 4, "kind": "publish", "at_s": 4.0})
        with AppendLogStateStore(path) as store:
            assert store.recovered_truncated_bytes == 0
            assert [r["seq"] for r in store.wal_records()] == [1, 2, 3, 4]

    def test_unreadable_snapshot_falls_back_to_wal(self, tmp_path):
        path = self._seed_log(tmp_path)
        snap = tmp_path / "state" / "snapshot.json"
        snap.write_text("{not json", encoding="utf-8")
        with AppendLogStateStore(path) as store:
            assert store.latest_snapshot() is None
            assert store.last_seq() == 3


class TestOpenStore:
    def test_appendlog_default(self, tmp_path):
        with open_store(str(tmp_path / "campaign-state")) as store:
            assert store.backend == "appendlog"

    def test_bad_fsync_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fsync policy"):
            open_store(str(tmp_path / "x"), fsync="sometimes")

    def test_existing_file_rejected(self, tmp_path):
        path = tmp_path / "state.db"
        path.write_bytes(b"not a store")
        with pytest.raises(ValueError, match="not a directory"):
            open_store(str(path))
        assert path.read_bytes() == b"not a store"

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    @pytest.mark.parametrize("backend", ["appendlog"])
    def test_fsync_policies_accepted(self, tmp_path, backend, policy):
        path = str(tmp_path / f"s-{policy}")
        with open_store(path, fsync=policy) as store:
            assert store.backend == backend
            store.append_wal({"seq": 1, "kind": "publish", "at_s": 1.0})
            store.sync()
            assert store.last_seq() == 1


class TestNullStore:
    def test_everything_is_a_noop(self):
        assert isinstance(NULL_STORE, NullStateStore)
        NULL_STORE.append_wal({"seq": 1})
        NULL_STORE.write_snapshot(1, {"v": 1})
        NULL_STORE.set_meta("k", "v")
        assert NULL_STORE.last_seq() == 0
        assert list(NULL_STORE.wal_records()) == []
        assert NULL_STORE.latest_snapshot() is None
        assert NULL_STORE.get_meta("k") is None
        NULL_STORE.sync()
        NULL_STORE.close()
