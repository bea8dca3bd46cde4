"""Property-based tests (hypothesis) on core algorithms and invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.city.geometry import Point, Polyline
from repro.config import ClusteringConfig, FusionConfig, MatchingConfig
from repro.core.clustering import MatchedSample, cluster_trip_samples
from repro.core.fusion import BayesianSpeedFuser
from repro.core.matching import SampleMatcher, batch_smith_waterman
from repro.core.traffic_model import TrafficModel
from repro.eval.metrics import Cdf
from repro.phone.cellular import CellularSample
from repro.core.matching import MatchResult
from repro.sim.events import Simulator
from repro.testkit import oracle_cluster_trip_samples
from repro.testkit import oracle_smith_waterman as smith_waterman

# -- strategies ----------------------------------------------------------------

cell_sequences = st.lists(
    st.integers(min_value=0, max_value=30), min_size=0, max_size=8, unique=True
)
nonempty_cells = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=8, unique=True
)
signed_cells = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=0, max_size=8, unique=True
)
signed_nonempty_cells = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=1, max_size=8, unique=True
)


class TestSmithWatermanProperties:
    @given(cell_sequences, cell_sequences)
    def test_non_negative(self, a, b):
        assert smith_waterman(a, b) >= 0.0

    @given(cell_sequences, cell_sequences)
    def test_symmetric(self, a, b):
        assert smith_waterman(a, b) == pytest.approx(smith_waterman(b, a))

    @given(nonempty_cells)
    def test_self_similarity_equals_length(self, a):
        assert smith_waterman(a, a) == pytest.approx(float(len(a)))

    @given(cell_sequences, cell_sequences)
    def test_bounded_by_min_length(self, a, b):
        assert smith_waterman(a, b) <= min(len(a), len(b)) + 1e-9

    @given(cell_sequences, cell_sequences)
    def test_disjoint_is_zero(self, a, b):
        b_shifted = [x + 100 for x in b]
        assert smith_waterman(a, b_shifted) == 0.0

    @given(st.lists(st.tuples(cell_sequences, cell_sequences), max_size=12))
    def test_batch_equals_scalar(self, pairs):
        uploads = [p[0] for p in pairs]
        dbs = [p[1] for p in pairs]
        batch = batch_smith_waterman(uploads, dbs)
        for upload, db, score in zip(uploads, dbs, batch):
            assert score == pytest.approx(smith_waterman(upload, db))

    @given(nonempty_cells, nonempty_cells, nonempty_cells)
    def test_subsequence_monotonicity(self, a, b, extra):
        """Appending fresh ids to the database never lowers the score."""
        extension = [x + 100 for x in extra]
        assert smith_waterman(a, b + extension) >= smith_waterman(a, b) - 1e-9

    @pytest.mark.property
    @given(st.lists(st.tuples(signed_cells, signed_cells), max_size=12))
    def test_batch_equals_scalar_signed_alphabet(self, pairs):
        """Batch == scalar over alphabets containing negative tower ids
        (the padding sentinels must never collide with real ids)."""
        uploads = [p[0] for p in pairs]
        dbs = [p[1] for p in pairs]
        batch = batch_smith_waterman(uploads, dbs)
        for upload, db, score in zip(uploads, dbs, batch):
            assert score == pytest.approx(smith_waterman(upload, db))


@pytest.mark.property
class TestMatcherBoundaryProperties:
    """`match` vs `match_many` parity, pinned at the γ acceptance boundary.

    The vectorised path must agree with the scalar path not only on
    well-separated scores but when a candidate's score lands *exactly*
    on γ (and one float step either side of it), where any rounding
    difference between the two DP implementations would flip a verdict.
    """

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=6), nonempty_cells,
            min_size=1, max_size=5,
        ),
        st.lists(nonempty_cells, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_match_many_parity_at_gamma_boundary(self, db, samples, pick):
        fingerprints = {sid: tuple(seq) for sid, seq in db.items()}
        probe = SampleMatcher(fingerprints)
        achieved = sorted({
            score
            for sample in samples
            for score in probe.scores(sample).values()
            if score > 0.0
        })
        gammas = [MatchingConfig().accept_threshold]
        if achieved:
            boundary = achieved[pick % len(achieved)]
            gammas += [
                boundary,                           # score == γ: rejected
                float(np.nextafter(boundary, -np.inf)),  # just under: accepted
                float(np.nextafter(boundary, np.inf)),   # just over: rejected
            ]
        for gamma in gammas:
            matcher = SampleMatcher(
                fingerprints, MatchingConfig(accept_threshold=float(gamma))
            )
            singles = [matcher.match(s) for s in samples]
            batch = matcher.match_many(samples)
            assert [m.accepted for m in batch] == [m.accepted for m in singles]
            assert [m.station_id for m in batch] == [
                m.station_id for m in singles
            ]
            assert [m.common_ids for m in batch] == [
                m.common_ids for m in singles
            ]
            assert [m.score for m in batch] == pytest.approx(
                [m.score for m in singles]
            )


@pytest.mark.property
class TestIndexedMatcherOracleEquivalence:
    """Candidate-pruned matching ≡ the full-matrix oracle.

    The incidence plan only skips stations that cannot reach γ, and a
    repeat sample is scored again, so the production matcher must equal
    the spec-literal :class:`OracleMatcher` *exactly* (``==`` on floats)
    on every random database, including negative tower ids (index keys
    below the padding-sentinel range) and γ pinned on an achieved score
    where one ULP of drift would flip a verdict.
    """

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=8), signed_nonempty_cells,
            min_size=1, max_size=6,
        ),
        st.lists(signed_cells, min_size=1, max_size=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_indexed_cached_equals_oracle_at_gamma_boundary(
        self, db, samples, pick
    ):
        from repro.testkit.oracles import OracleMatcher

        fingerprints = {sid: tuple(seq) for sid, seq in db.items()}
        achieved = sorted({
            score
            for result in OracleMatcher(
                fingerprints, MatchingConfig(accept_threshold=0.0)
            ).match_many(samples)
            for score in [result.score]
            if score > 0.0
        })
        gammas = [MatchingConfig().accept_threshold]
        if achieved:
            boundary = achieved[pick % len(achieved)]
            gammas += [
                boundary,
                float(np.nextafter(boundary, -np.inf)),
                float(np.nextafter(boundary, np.inf)),
            ]
        # Replay every sample twice: a repeat, in a batch or across
        # calls, must get the verdict it got the first time.
        replayed = samples + samples
        for gamma in gammas:
            config = MatchingConfig(accept_threshold=float(gamma))
            matcher = SampleMatcher(fingerprints, config)
            oracle = OracleMatcher(fingerprints, config)
            expected = oracle.match_many(replayed)
            assert [matcher.match(s) for s in replayed] == expected
            assert matcher.match_many(replayed) == expected

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=8), signed_nonempty_cells,
            min_size=1, max_size=6,
        ),
        st.lists(signed_cells, min_size=1, max_size=8),
    )
    def test_candidate_pool_never_drops_a_scoring_station(self, db, samples):
        """Pruning soundness: any station with a positive Smith-Waterman
        score against the sample shares a cell id, so it is in the pool."""
        fingerprints = {sid: tuple(seq) for sid, seq in db.items()}
        matcher = SampleMatcher(fingerprints, MatchingConfig())
        for sample in samples:
            pool = matcher.candidate_stations(sample)
            for station_id, fingerprint in fingerprints.items():
                if smith_waterman(sample, fingerprint) > 0.0:
                    assert station_id in pool


def _matched(t, station, score):
    return MatchedSample(
        sample=CellularSample(time_s=t, tower_ids=(1,)),
        match=MatchResult(station_id=station, score=score, common_ids=1),
    )


class TestClusteringProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=2.0, max_value=7.0),
            ),
            max_size=25,
        )
    )
    def test_partition(self, entries):
        """Clustering is a partition: every sample in exactly one cluster."""
        samples = [_matched(t, s, sc) for t, s, sc in entries]
        clusters = cluster_trip_samples(samples)
        flattened = [m for c in clusters for m in c.samples]
        assert len(flattened) == len(samples)
        assert {id(m) for m in flattened} == {id(m) for m in samples}

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=25,
        )
    )
    def test_clusters_time_ordered(self, entries):
        samples = [_matched(t, s, 5.0) for t, s in entries]
        clusters = cluster_trip_samples(samples)
        arrivals = [c.arrival_s for c in clusters]
        assert arrivals == sorted(arrivals)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=500.0),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_candidate_probabilities_sum_to_at_most_one(self, entries):
        samples = [_matched(t, s, 5.0) for t, s in entries]
        for cluster in cluster_trip_samples(samples):
            total = sum(c.probability for c in cluster.candidates())
            assert total <= 1.0 + 1e-9


_T0 = ClusteringConfig().max_interval_s

#: Gaps between consecutive sample times: repeats, the ±t0 edge of the
#: time term, both sides of the 2·t0 staleness prune, and a free draw.
_cluster_gaps = st.one_of(
    st.sampled_from([
        0.0, 1.0, 5.0, 20.0, _T0, math.nextafter(_T0, 0.0),
        math.nextafter(_T0, math.inf),
        math.nextafter(2 * _T0, 0.0), 2 * _T0,
        math.nextafter(2 * _T0, math.inf),
    ]),
    st.floats(min_value=0.0, max_value=90.0),
)
_cluster_entries = st.lists(
    st.tuples(
        _cluster_gaps,
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.one_of(
            st.sampled_from([0.0, 3.5, 7.0]),
            st.floats(min_value=0.0, max_value=7.0),
        ),
    ),
    max_size=30,
)


@pytest.mark.property
class TestClusteringDifferential:
    @given(_cluster_entries, st.randoms(use_true_random=False))
    # An older cluster absorbs a late sample after a newer one formed,
    # so departures are not monotone over the clusters list.
    @example(
        [(0.0, 1, 5.0), (20.0, 2, 5.0), (5.0, 1, 5.0), (20.0, 1, 5.0),
         (40.0, 1, 5.0)],
        None,
    )
    def test_equals_quadratic_oracle(self, entries, shuffle):
        """The pruned, call-free scan clusters exactly like the O(n²)
        oracle, member for member, and tracks each departure."""
        samples = []
        t = 0.0
        for gap, station, score in entries:
            t += gap
            samples.append(_matched(t, station, score))
        if shuffle is not None:
            shuffle.shuffle(samples)
        clusters = cluster_trip_samples(samples)
        oracle = oracle_cluster_trip_samples(samples)
        assert [[id(m) for m in c.samples] for c in clusters] == [
            [id(m) for m in members] for members in oracle
        ]
        for cluster in clusters:
            assert cluster.depart_s == cluster.samples[-1].time_s


class TestFusionProperties:
    @given(
        st.lists(st.floats(min_value=5.0, max_value=90.0), min_size=1, max_size=30)
    )
    def test_mean_stays_within_observation_hull(self, speeds):
        fuser = BayesianSpeedFuser(FusionConfig(staleness_inflation_kmh_per_hr=0.0))
        for k, speed in enumerate(speeds):
            belief = fuser.update("seg", speed, t=float(k))
        assert min(speeds) - 1e-6 <= belief.mean_kmh <= max(speeds) + 1e-6

    @given(
        st.lists(st.floats(min_value=5.0, max_value=90.0), min_size=2, max_size=30)
    )
    def test_variance_monotone_without_staleness(self, speeds):
        fuser = BayesianSpeedFuser(FusionConfig(staleness_inflation_kmh_per_hr=0.0))
        variances = []
        for k, speed in enumerate(speeds):
            variances.append(fuser.update("seg", speed, t=float(k)).variance)
        assert all(b <= a + 1e-9 for a, b in zip(variances, variances[1:]))


class TestTrafficModelProperties:
    @given(
        st.floats(min_value=30.0, max_value=600.0),
        st.floats(min_value=100.0, max_value=1000.0),
        st.floats(min_value=8.0, max_value=25.0),
    )
    def test_att_monotone_in_btt(self, btt, length, free_speed):
        model = TrafficModel()
        att_a = model.estimate_att_s(btt, length, free_speed)
        att_b = model.estimate_att_s(btt * 1.5, length, free_speed)
        assert att_b >= att_a - 1e-9

    @given(
        st.floats(min_value=30.0, max_value=600.0),
        st.floats(min_value=100.0, max_value=1000.0),
        st.floats(min_value=8.0, max_value=25.0),
    )
    def test_speed_within_clamps(self, btt, length, free_speed):
        model = TrafficModel()
        estimate = model.estimate(btt, length, free_speed)
        assert model.config.min_speed_ms - 1e-9 <= estimate.speed_ms
        assert estimate.speed_ms <= model.config.max_speed_ms + 1e-9


class TestPolylineProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e4, max_value=1e4),
                st.floats(min_value=-1e4, max_value=1e4),
            ),
            min_size=2,
            max_size=10,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_point_at_lies_within_bounding_box(self, coords, fraction):
        line = Polyline([Point(x, y) for x, y in coords])
        point = line.point_at(fraction * line.length)
        xs = [p.x for p in line.points]
        ys = [p.y for p in line.points]
        assert min(xs) - 1e-6 <= point.x <= max(xs) + 1e-6
        assert min(ys) - 1e-6 <= point.y <= max(ys) + 1e-6


class TestSimulatorProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50)
    )
    def test_events_fire_in_nondecreasing_time(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule(t, lambda s: fired.append(s.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestWireProperties:
    @given(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e7),
                st.lists(st.integers(min_value=0, max_value=10**7),
                         min_size=1, max_size=7, unique=True),
            ),
            max_size=20,
        ),
    )
    def test_trip_codec_round_trips(self, key, entries):
        from repro.phone.trip_recorder import TripUpload
        from repro.wire import trip_from_dict, trip_to_dict

        entries.sort(key=lambda e: e[0])
        upload = TripUpload(
            trip_key=key,
            samples=tuple(
                CellularSample(time_s=t, tower_ids=tuple(cells))
                for t, cells in entries
            ),
        )
        decoded = trip_from_dict(trip_to_dict(upload))
        assert decoded.trip_key == upload.trip_key
        assert [s.tower_ids for s in decoded.samples] == [
            s.tower_ids for s in upload.samples
        ]
        assert [s.time_s for s in decoded.samples] == [
            s.time_s for s in upload.samples
        ]


class TestUplinkProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_delivery_conserves_and_orders(self, ready_times, loss, seed):
        import numpy as np

        from repro.config import UplinkConfig
        from repro.phone.trip_recorder import TripUpload
        from repro.sim.uplink import UplinkChannel

        channel = UplinkChannel(
            UplinkConfig(loss_probability=loss),
            rng=np.random.default_rng(seed),
        )
        offered = [
            (t, TripUpload(trip_key=f"t{i}", samples=()))
            for i, t in enumerate(ready_times)
        ]
        delivered = channel.transmit_all(offered)
        # No duplication, no invention, arrival ≥ ready + base delay.
        assert len(delivered) <= len(offered)
        arrivals = [t for t, _ in delivered]
        assert arrivals == sorted(arrivals)
        ready_by_key = {u.trip_key: t for t, u in offered}
        for arrival, upload in delivered:
            assert arrival >= ready_by_key[upload.trip_key] + channel.config.base_delay_s
        assert channel.stats.delivered + channel.stats.lost == len(offered)


class TestCdfProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
        )
    )
    def test_fraction_below_monotone(self, values):
        cdf = Cdf.of(values)
        points = sorted([min(values), max(values), 0.0])
        fractions = [cdf.fraction_below(p) for p in points]
        assert fractions == sorted(fractions)
        assert cdf.fraction_below(max(values)) == 1.0
