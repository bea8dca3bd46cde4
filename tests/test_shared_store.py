"""Array-side tests of the matcher: kernel, incidence plan, pickling.

The module keeps the name it had when it tested the shared-memory
fingerprint store, so these test ids stay stable.  That store and its
process pool are gone; what remains on the array side, and is tested
here, is the skewed Smith-Waterman kernel (bit-exact against the scalar
oracle, hypothesis included), the dense tower × station incidence plan
that replaced the flat fingerprint arrays, the padding sentinels, and
the matcher's plain pickling.
"""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatchingConfig
from repro.core import BackendServer
from repro.core.match_index import MatchIndex
from repro.core.matching import SampleMatcher, batch_smith_waterman
from repro.obs import MetricsRegistry
from repro.phone import record_participant_trips
from repro.sim.bus import simulate_bus_trip
from repro.testkit import OracleMatcher
from repro.testkit import oracle_smith_waterman as smith_waterman
from repro.util.units import parse_hhmm

FINGERPRINTS = {
    11: (1, 2, 3),
    12: (2, 3, 4, 5),
    13: (7, 8),
    14: (-3, 1, 9),          # negative ids exercise the sentinel rule
    15: (6,),
}


@pytest.fixture(scope="module")
def batch(small_city, traffic, sampler, config):
    """Uploads from two bus routes: a real multi-trip ingest batch."""
    rider_ids = itertools.count()
    uploads = []
    for k, route_id in enumerate(("179-0", "199-0")):
        route = small_city.route_network.route(route_id)
        trace = simulate_bus_trip(
            route, parse_hhmm("08:10") + 120.0 * k, traffic, rider_ids,
            rng=np.random.default_rng(21 + k),
        )
        uploads.extend(record_participant_trips(
            trace, small_city.registry, sampler, config,
            rng=np.random.default_rng(31 + k),
        ))
    assert len(uploads) >= 4
    return uploads


def make_server(small_city, database, config, registry=None):
    return BackendServer(
        small_city.network, small_city.route_network, database, config,
        registry=registry,
    )


# -- vectorized kernel: differential parity vs the scalar reference ----------


signed_seq = st.lists(
    st.integers(min_value=-40, max_value=40), min_size=0, max_size=9
)


class TestVectorizedParity:
    @pytest.mark.property
    @settings(deadline=None)
    @given(
        st.lists(st.tuples(signed_seq, signed_seq), min_size=0, max_size=8)
    )
    def test_batch_matches_scalar_exactly(self, pairs):
        """Bit-exact equality, not approx: same elementwise float ops."""
        cfg = MatchingConfig()
        uploads = [p[0] for p in pairs]
        databases = [p[1] for p in pairs]
        got = batch_smith_waterman(uploads, databases, cfg)
        want = [smith_waterman(u, d, cfg) for u, d in pairs]
        assert list(got) == want

    def test_empty_sequences_and_all_padding_rows(self):
        # One long pair forces heavy padding on every other row; empty
        # rows become all-padding rows inside the padded matrices.
        uploads = [[], [5], list(range(1, 10)), []]
        databases = [[1, 2], [], list(range(1, 12)), []]
        got = batch_smith_waterman(uploads, databases)
        want = [smith_waterman(u, d) for u, d in zip(uploads, databases)]
        assert list(got) == want

    def test_sentinel_collision_ids(self):
        # Ids one and two below the batch minimum — exactly where the
        # padding sentinels are derived — must still score correctly.
        uploads = [[-2, -1, 0], [-2, -1, 0]]
        databases = [[-2, -1, 0], [-4, -3]]
        got = batch_smith_waterman(uploads, databases)
        assert got[0] == smith_waterman(uploads[0], databases[0])
        assert got[1] == smith_waterman(uploads[1], databases[1])

    def test_long_batch_is_chunked_exactly(self, monkeypatch):
        """Kernel chunking (the memory bound) changes no score."""
        import repro.core.matching as matching

        rng = np.random.default_rng(5)
        uploads = [list(rng.integers(0, 9, size=rng.integers(0, 12)))
                   for _ in range(50)]
        databases = [list(rng.integers(0, 9, size=rng.integers(0, 12)))
                     for _ in range(50)]
        whole = batch_smith_waterman(uploads, databases)
        monkeypatch.setattr(matching, "_KERNEL_CELLS", 1)
        assert list(batch_smith_waterman(uploads, databases)) == list(whole)

    def test_matcher_pending_path_matches_per_sample(self):
        """match_many's array-gather scoring equals one-by-one match."""
        batch_m = SampleMatcher(FINGERPRINTS)
        serial_m = SampleMatcher(FINGERPRINTS)
        samples = [
            (1, 2, 3), (5, 4, 3), (-3, 9), (8, 7), (42,), (), (6,),
            (1, 2, 3),                       # within-batch repeat
        ]
        got = batch_m.match_many(samples)
        want = [serial_m.match(s) for s in samples]
        assert got == want


# -- the dense incidence plan -------------------------------------------------


class TestFingerprintArrays:
    def test_round_trips_the_database(self):
        """The incidence columns hold exactly each fingerprint's ids."""
        index = MatchIndex(FINGERPRINTS)
        assert index.station_ids.tolist() == sorted(FINGERPRINTS)
        assert len(index) == len(FINGERPRINTS)
        assert index.towers[0] == -3
        for column, sid in enumerate(index.station_ids.tolist()):
            ids = index.towers[index.incidence[:, column] > 0].tolist()
            assert ids == sorted(FINGERPRINTS[sid]), sid
        assert set(np.unique(index.incidence).tolist()) == {0.0, 1.0}

    def test_ref_pad_survives_full_width_first_row(self):
        # The longest fingerprint sorts first: its row has no padding,
        # and the sample ids 3 and 4 sit exactly on the two sentinels
        # (min id − 2 and − 1); none of them may score as a match, so
        # (5, 6, 3, 4) must not outscore station 1 on station 2's pads.
        fingerprints = {1: (5, 6, 7, 8), 2: (5, 6)}
        matcher = SampleMatcher(fingerprints)
        oracle = OracleMatcher(fingerprints)
        for probe in [(5, 6, 7, 8), (3, 4), (5, 6, 3, 4), (5, 6, 4, 3),
                      (4, 5, 6), (3, 5, 6, 7), (8, 7, 6, 5)]:
            assert matcher.match(probe) == oracle.match(probe), probe
        assert matcher.match((5, 6, 7, 8)).score == 4.0
        assert matcher.match((5, 6, 3, 4)).station_id == 1

    def test_candidates_agree_with_dict_index(self):
        """The product-planned pools equal a plain posting-list index."""
        postings = {}
        for sid, towers in FINGERPRINTS.items():
            for tower in towers:
                postings.setdefault(tower, set()).add(sid)
        index = MatchIndex(FINGERPRINTS)
        probes = [(1,), (2, 3), (9, -3), (99,), (), (6, 7, 1), (2, 2, 5)]
        for probe in probes:
            want = set().union(*(postings.get(t, set()) for t in probe))
            assert index.candidates(probe) == want, probe
        for tower in (1, 2, 6, 7, 99):
            assert index.stations_for(tower) == tuple(
                sorted(postings.get(tower, ()))
            )
        assert index.tower_count == len(postings)

    def test_store_backed_matcher_equals_dict_matcher(self):
        """A database handed over as int arrays matches like the tuples."""
        arrays = {
            np.int64(sid): np.asarray(towers, dtype=np.int64)
            for sid, towers in FINGERPRINTS.items()
        }
        shared = SampleMatcher(arrays)
        plain = SampleMatcher(FINGERPRINTS)
        for probe in [(1, 2, 3), (4, 5), (9,), (), (7, 8, 6)]:
            assert shared.match(probe) == plain.match(probe)
            assert type(shared.match(probe).station_id) in (int, type(None))


# -- pickling and batch-split accounting -------------------------------------
# (The class and test names date from the verdict memo's on/off switch.)


class TestMatcherPickleConfig:
    def test_disabled_cache_survives_pickle(self):
        matcher = SampleMatcher(FINGERPRINTS, MatchingConfig(gap_penalty=0.5))
        clone = pickle.loads(pickle.dumps(matcher))
        assert clone.config == matcher.config
        for probe in [(1, 2, 3), (5, 4, 3), (42,), ()]:
            assert clone.match(probe) == matcher.match(probe)

    def test_disabled_cache_counters_stay_zero_serial_vs_sharded(
        self, small_city, database, config, batch
    ):
        """A batch ingested in one call or in shards of two uploads
        records the same matcher counters, and no other match family."""
        serial_reg = MetricsRegistry()
        serial = make_server(small_city, database, config, registry=serial_reg)
        serial.receive_trips(batch)
        sharded_reg = MetricsRegistry()
        sharded = make_server(small_city, database, config,
                              registry=sharded_reg)
        for lo in range(0, len(batch), 2):
            sharded.receive_trips(batch[lo: lo + 2])
        serial_counters = serial_reg.as_dict()["counters"]
        sharded_counters = sharded_reg.as_dict()["counters"]
        assert sharded_counters["matcher_samples_total"] == \
            serial_counters["matcher_samples_total"] > 0
        assert sharded_counters["matcher_pairs_scored"] == \
            serial_counters["matcher_pairs_scored"]
        for snapshot in (serial_reg.as_dict(), sharded_reg.as_dict()):
            names = [*snapshot["counters"], *snapshot["gauges"],
                     *snapshot["histograms"]]
            assert not [n for n in names if n.startswith("match_cache_")]
