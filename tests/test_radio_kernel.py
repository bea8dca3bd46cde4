"""Differential tests: the vectorized radio scan against its scalar oracle.

``CellularScanner`` evaluates a scan's candidate towers in one numpy pass
over a lattice memo; :class:`repro.testkit.oracles.OracleScanner` does
one tower and one ``field_rng`` Generator per lattice corner at a time.
They must agree exactly: same tower ids, same ``rss_dbm`` and the same
amount of noise stream consumed.

``scan_many`` is held to successive oracle scans too, down to the
Generator state, including candidates whose RSS sits within 1e-9 dB of
the sensitivity floor, where the pruning by the numpy RSS must not decide
anything the scalar formula would not.  So are scans drawn one at a time
between other uses of the Generator and evaluated later in a batch.

The batched lattice draw is checked on its own too: its literal
ziggurat tables against numpy, its values bit for bit against
``field_rng`` (scalar fallback included), and the numpy key hashes
against ``stable_hash``.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio import CellTower, CellularScanner, PropagationModel, deploy_towers
from repro.radio.scanner import SCAN_CHUNK
from repro.testkit.oracles import OracleScanner
from repro.testkit.ziggurat import RABS_LIMIT, probe_tables
from repro.util import rng as rng_module
from repro.util.rng import _keyed_normals, field_normals, field_rng, stable_hash

WIDTH, HEIGHT = 3000.0, 2000.0
TOWERS = deploy_towers(WIDTH, HEIGHT, seed=3)

seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64),
)
# Inside the city, in its tower margin, and far enough out that no tower
# clears the prefilter.
coords = st.tuples(
    st.floats(-9000.0, WIDTH + 9000.0, allow_nan=False),
    st.floats(-9000.0, HEIGHT + 9000.0, allow_nan=False),
)
inside = st.tuples(st.floats(0.0, WIDTH), st.floats(0.0, HEIGHT))
FAR = (-50_000.0, 0.0)  # no tower within the 4 km prefilter
# Scan lists up to two chunks and a bit long, over a few distinct points
# (so repeats are common), possibly empty.
scan_lists = st.lists(
    st.one_of(coords, inside, st.just(FAR)), min_size=1, max_size=4
).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), max_size=2 * SCAN_CHUNK + 9)
)


def _pair(seed):
    radio = RadioConfig()
    scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=seed), radio)
    return scanner, OracleScanner(TOWERS, radio, seed=seed)


def _fast_oracle(towers, radio, seed):
    """An :class:`OracleScanner` that draws each lattice corner once.

    A corner value is a pure function of its key, so caching it changes
    no result, only how long a scan of many repeated points takes.
    """
    oracle = OracleScanner(towers, radio, seed=seed)
    oracle._corner = functools.lru_cache(maxsize=None)(oracle._corner)
    return oracle


def _assert_scan_many_equals_oracle(scanner, oracle, points, rng_seed):
    fast_rng = np.random.default_rng(rng_seed)
    slow_rng = np.random.default_rng(rng_seed)
    fast = scanner.scan_many(points, fast_rng)
    slow = [oracle.scan(where, slow_rng) for where in points]
    assert [o.tower_ids for o in fast] == [o.tower_ids for o in slow]
    assert [o.rss_dbm for o in fast] == [o.rss_dbm for o in slow]
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def _assert_same_scan(scanner, oracle, where, rng_seed, temporal):
    fast_rng = np.random.default_rng(rng_seed)
    slow_rng = np.random.default_rng(rng_seed)
    if temporal:
        fast = scanner.scan(where, fast_rng)
    else:
        fast = scanner.mean_scan(where)
    slow = oracle.scan(where, slow_rng, temporal=temporal)
    assert fast.tower_ids == slow.tower_ids
    assert fast.rss_dbm == slow.rss_dbm
    assert all(type(v) is float for v in fast.rss_dbm)
    assert all(type(t) is int for t in fast.tower_ids)
    # Same stream consumed: the next draw after the scan is the same.
    assert fast_rng.standard_normal() == slow_rng.standard_normal()


@pytest.mark.property
class TestScanAgainstOracle:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds, st.one_of(coords, inside), st.integers(0, 2**31), st.booleans())
    def test_single_scan(self, seed, xy, rng_seed, temporal):
        scanner, oracle = _pair(seed)
        _assert_same_scan(scanner, oracle, Point(*xy), rng_seed, temporal)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seeds,
        st.lists(st.tuples(inside, st.booleans()), min_size=2, max_size=6),
        st.integers(0, 2**31),
    )
    def test_scans_sharing_the_lattice_memo(self, seed, walk, rng_seed):
        # Later scans hit corners the earlier ones drew, and draw the rest.
        scanner, oracle = _pair(seed)
        for step, (xy, temporal) in enumerate(walk):
            _assert_same_scan(scanner, oracle, Point(*xy), rng_seed + step, temporal)

    @pytest.mark.parametrize(
        "xy", [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, float("-inf"))]
    )
    def test_non_finite_receiver_raises(self, xy):
        # A receiver's lattice corner is math.floor of its position, which
        # rejects NaN and infinity, so a bad position cannot key the memo.
        scanner, _ = _pair(7)
        with pytest.raises((ValueError, OverflowError)):
            scanner.scan(Point(*xy), np.random.default_rng(0))
        with pytest.raises((ValueError, OverflowError)):
            scanner.scan_many([Point(100.0, 100.0), Point(*xy)], 0)
        with pytest.raises((ValueError, OverflowError)):
            scanner.mean_scan(Point(*xy))
        with pytest.raises((ValueError, OverflowError)):
            scanner.evaluate([scanner.draw(Point(*xy), 0)])

    def test_no_candidate_tower_is_an_empty_scan(self):
        scanner, oracle = _pair(7)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert len(scanner.scan(Point(-50_000.0, 0.0), rng)) == 0
        assert rng.bit_generator.state == before
        _assert_same_scan(scanner, oracle, Point(-50_000.0, 0.0), 0, True)


@pytest.mark.property
class TestScanManyAgainstOracle:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds, scan_lists, st.integers(0, 2**31))
    def test_equals_successive_oracle_scans(self, seed, xys, rng_seed):
        radio = RadioConfig()
        scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=seed), radio)
        oracle = _fast_oracle(TOWERS, radio, seed)
        _assert_scan_many_equals_oracle(
            scanner, oracle, [Point(*xy) for xy in xys], rng_seed
        )

    def test_longer_than_a_chunk(self):
        radio = RadioConfig()
        scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=4), radio)
        oracle = _fast_oracle(TOWERS, radio, 4)
        grid = [
            Point(150.0 + 340.0 * i, 90.0 + 230.0 * j) for i in range(9) for j in range(9)
        ]
        points = grid + [Point(*FAR)] + grid[::-1] + grid[:3]
        assert len(points) > 2 * SCAN_CHUNK
        _assert_scan_many_equals_oracle(scanner, oracle, points, 11)

    def test_empty_list_draws_nothing(self):
        radio = RadioConfig()
        scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=4), radio)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert scanner.scan_many([], rng) == []
        assert rng.bit_generator.state == before

    def test_lattice_memo_equals_one_scan_at_a_time(self):
        radio = RadioConfig()
        points = [Point(97.0 * k % WIDTH, 61.0 * k % HEIGHT) for k in range(150)]
        batched = PropagationModel(radio, seed=8)
        single = PropagationModel(radio, seed=8)
        CellularScanner(TOWERS, batched, radio).scan_many(points, 1)
        scanner = CellularScanner(TOWERS, single, radio)
        rng = np.random.default_rng(1)
        for where in points:
            scanner.scan(where, rng)
        assert list(batched._row) == list(single._row)
        used = len(single._row)
        assert batched._memo[:used].tobytes() == single._memo[:used].tobytes()


# One step of a walk over a shared Generator: a draw the phone makes
# between scans, a scan at a point, or the end of a ride (evaluate what
# is pending).
walk_steps = st.one_of(
    st.sampled_from(["random", "normal", "uniform", "end_ride"]),
    st.tuples(st.just("scan"), st.one_of(inside, st.just(FAR))),
)


def _other_draw(rng, step):
    if step == "random":
        return rng.random()
    if step == "normal":
        return float(rng.normal(0.0, 2.0))
    return float(rng.uniform(0.2, 0.8))


def _deferred_walk(scanner, steps, rng):
    """Draw each scan in the walk, evaluate a ride's scans at its end."""
    observations, pending, others = [], [], []
    for step in steps + ["end_ride"]:
        if step == "end_ride":
            observations.extend(scanner.evaluate(pending))
            pending = []
        elif isinstance(step, tuple):
            pending.append(scanner.draw(Point(*step[1]), rng))
        else:
            others.append(_other_draw(rng, step))
    return observations, others


def _immediate_walk(oracle, steps, rng):
    observations, others = [], []
    for step in steps:
        if isinstance(step, tuple):
            observations.append(oracle.scan(Point(*step[1]), rng))
        elif step != "end_ride":
            others.append(_other_draw(rng, step))
    return observations, others


def _assert_deferred_equals_oracle(seed, steps, rng_seed):
    radio = RadioConfig()
    scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=seed), radio)
    oracle = _fast_oracle(TOWERS, radio, seed)
    fast_rng = np.random.default_rng(rng_seed)
    slow_rng = np.random.default_rng(rng_seed)
    fast, fast_others = _deferred_walk(scanner, steps, fast_rng)
    slow, slow_others = _immediate_walk(oracle, steps, slow_rng)
    assert [o.tower_ids for o in fast] == [o.tower_ids for o in slow]
    assert [o.rss_dbm for o in fast] == [o.rss_dbm for o in slow]
    assert fast_others == slow_others
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@pytest.mark.property
class TestDeferredScansAgainstOracle:
    """``draw`` at the scan's place in the stream, ``evaluate`` later."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds, st.lists(walk_steps, max_size=60), st.integers(0, 2**31))
    def test_interleaved_walk_equals_immediate_scans(self, seed, steps, rng_seed):
        _assert_deferred_equals_oracle(seed, steps, rng_seed)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seeds,
        st.lists(st.one_of(inside, st.just(FAR)), min_size=1, max_size=3),
        st.integers(SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 9),
        st.integers(0, 2**31),
    )
    def test_ride_longer_than_a_chunk(self, seed, distinct, length, rng_seed):
        steps = []
        for k in range(length):
            steps += ["normal", "normal", ("scan", distinct[k % len(distinct)])]
            if k % 5 == 4:
                steps.append("random")
        _assert_deferred_equals_oracle(seed, steps, rng_seed)

    def test_far_point_draws_nothing(self):
        scanner, _ = _pair(7)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        pending = scanner.draw(Point(*FAR), rng)
        assert len(pending.towers) == len(pending.noise) == 0
        assert rng.bit_generator.state == before
        assert scanner.evaluate([pending]) == [scanner.scan(Point(*FAR), 0)]

    def test_evaluate_nothing(self):
        scanner, _ = _pair(7)
        assert scanner.evaluate([]) == []

    def test_evaluation_order_does_not_matter(self):
        # The field is keyed, not drawn: evaluating a later draw first
        # gives every scan the same observation.
        scanner, oracle = _pair(5)
        points = [Point(300.0 + 170.0 * k, 200.0 + 90.0 * k) for k in range(6)]
        rng = np.random.default_rng(4)
        pending = [scanner.draw(where, rng) for where in points]
        backwards = scanner.evaluate(pending[::-1])[::-1]
        rng = np.random.default_rng(4)
        assert backwards == [oracle.scan(where, rng) for where in points]


class TestSensitivityFloorEdge:
    """A tower tuned to within 1e-9 dB of the floor: reported exactly
    when the oracle reports it, for the mean field and for a noisy scan."""

    @pytest.mark.parametrize("temporal", [False, True])
    @pytest.mark.parametrize("offset_db", [-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
    def test_floor_edge(self, offset_db, temporal):
        radio = RadioConfig()
        floor = radio.rx_sensitivity_dbm
        where = Point(1234.5, 876.25)
        plain = OracleScanner(TOWERS, radio, seed=6)
        # The noise the oracle adds to each candidate, in candidate order.
        candidates = [
            t
            for t in TOWERS
            if np.hypot(t.position.x - where.x, t.position.y - where.y) < 4000.0
        ]
        noise = np.random.default_rng(2).normal(
            0.0, radio.temporal_sigma_db, size=len(candidates)
        )
        k = len(candidates) // 2
        tower = candidates[k]
        rss = plain.mean_rss_dbm(tower, where) + (noise[k] if temporal else 0.0)
        tuned = dataclasses.replace(
            tower, tx_power_dbm=tower.tx_power_dbm + (floor + offset_db - rss)
        )
        towers = [tuned if t is tower else t for t in TOWERS]
        oracle = OracleScanner(towers, radio, seed=6)
        tuned_rss = oracle.mean_rss_dbm(tuned, where) + (noise[k] if temporal else 0.0)
        assert abs(tuned_rss - floor) <= 1e-9 + 1e-12
        scanner = CellularScanner(towers, PropagationModel(radio, seed=6), radio)
        _assert_same_scan(scanner, oracle, where, 2, temporal)
        fast = scanner.scan(where, 2) if temporal else scanner.mean_scan(where)
        assert (tuned.tower_id in fast.tower_ids) == (tuned_rss >= floor)


class TestScalarApi:
    def test_scalar_rss_matches_oracle(self):
        model = PropagationModel(RadioConfig(), seed=11)
        oracle = OracleScanner(TOWERS, RadioConfig(), seed=11)
        for tower in TOWERS[:20]:
            where = Point(tower.position.x + 137.5, tower.position.y - 61.25)
            assert model.mean_rss_dbm(tower, where) == oracle.mean_rss_dbm(tower, where)

    def test_new_tower_widens_memo_rows(self):
        # A scan fills lattice rows one column per deployed tower; a tower
        # registered afterwards must still get its own draws there.
        radio = RadioConfig()
        model = PropagationModel(radio, seed=5)
        scanner = CellularScanner(TOWERS, model, radio)
        where = Point(1234.5, 876.25)
        scanner.mean_scan(where)
        extra = CellTower(tower_id=99, position=Point(1300.0, 900.0))
        oracle = OracleScanner(TOWERS, radio, seed=5)
        assert model.mean_rss_dbm(extra, where) == oracle.mean_rss_dbm(extra, where)
        assert scanner.mean_scan(where) == oracle.scan(where, None, temporal=False)

    def test_integer_coordinates(self):
        model = PropagationModel(RadioConfig(), seed=11)
        oracle = OracleScanner([], RadioConfig(), seed=11)
        tower = CellTower(tower_id=1, position=Point(0, 0))
        for where in (Point(0, 0), Point(500, 300), Point(-700, 20)):
            assert model.mean_rss_dbm(tower, where) == oracle.mean_rss_dbm(tower, where)


@pytest.mark.property
class TestBatchedCornerDraws:
    keys = st.lists(
        st.tuples(
            st.just("shadow"),
            st.integers(0, 10**6),
            st.integers(-10**4, 10**4),
            st.integers(-10**4, 10**4),
        ),
        max_size=40,
    )

    @given(st.one_of(st.none(), seeds), keys)
    def test_equals_field_rng(self, seed, keys):
        expected = [field_rng(seed, *key).standard_normal() for key in keys]
        assert field_normals(seed, keys).tolist() == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.one_of(
                st.integers(0, 2**32 - 1),       # high word 0: shorter entropy
                st.integers(2**32, 2**64 - 1),
                st.sampled_from([0, 1, 2**32, 2**64 - 1]),
            ),
            max_size=40,
        ),
    )
    def test_short_and_long_entropy(self, base, hashes):
        expected = [
            np.random.default_rng((base, h)).standard_normal() for h in hashes
        ]
        assert _keyed_normals(base, hashes).tolist() == expected

    def test_seed_above_32_bits_is_masked_like_field_rng(self):
        keys = [("shadow", 1000 + i, i, -i) for i in range(50)]
        big = 2**32 + 7
        expected = [field_rng(big, *key).standard_normal() for key in keys]
        assert field_normals(big, keys).tolist() == expected
        assert expected == [field_rng(7, *key).standard_normal() for key in keys]

    def test_empty_batch(self):
        assert field_normals(3, []).shape == (0,)

    def test_rejects_live_generator(self):
        with pytest.raises(TypeError):
            field_normals(np.random.default_rng(0), [("shadow", 1, 0, 0)])


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _expected(seed, keys) -> list:
    return _bits([field_rng(seed, *key).standard_normal() for key in keys])


class TestZigguratTables:
    def test_literal_tables_equal_numpys(self):
        """``wi``/``ki`` as the installed numpy's ``standard_normal`` uses
        them, re-derived from crafted PCG64 states."""
        wi, ki = probe_tables()
        assert _bits(wi) == _bits(rng_module._WI)
        assert ki == np.minimum(rng_module._KI, RABS_LIMIT).tolist()
        assert ki[1] == 0


@pytest.mark.property
class TestBatchedDrawBits:
    shadow_keys = st.lists(
        st.tuples(
            st.just("shadow"),
            st.integers(0, 2**64),
            st.integers(-10**6, 10**6),
            st.integers(-10**6, 10**6),
        ),
        max_size=60,
    )

    @given(st.one_of(st.none(), seeds), shadow_keys)
    def test_bits_equal_field_rng(self, seed, keys):
        assert _bits(field_normals(seed, keys)) == _expected(seed, keys)

    def test_rejected_words_take_the_scalar_fallback(self, monkeypatch):
        """A batch whose first words include every kind of ziggurat
        rejection: strip 1 (``ki[1] == 0``), the base strip's tail and
        another strip's wedge.  Each goes through the scalar fallback and
        still equals ``field_rng`` bit for bit."""
        seed = 7
        keys = [
            ("shadow", 40 + i % 97, i // 97 - 50, 11 - i % 13) for i in range(20000)
        ]
        rejected = []
        redraw = rng_module._redraw

        def spy(values, indices, *state):
            rejected.extend(indices.tolist())
            return redraw(values, indices, *state)

        monkeypatch.setattr(rng_module, "_redraw", spy)
        assert _bits(field_normals(seed, keys)) == _expected(seed, keys)
        words = [
            field_rng(seed, *keys[i]).bit_generator.random_raw() for i in rejected
        ]
        strips = {word & 0xFF for word in words}
        assert {0, 1} <= strips and len(strips) > 2
        # The fallback stays the exception (~1.5% of words); a broken
        # table would still be exact here, but slow.
        assert 0.005 < len(rejected) / len(keys) < 0.03


def _hashes_at_every_point(model, points, columns) -> list:
    """``model``'s key hashes of every column in ``columns`` at every point."""
    at = np.repeat(np.arange(len(points)), len(columns))
    return model._key_hashes(points, at, np.tile(columns, len(points))).tolist()


class TestResumedKeyHashes:
    @given(
        st.lists(st.integers(-2**63, 2**64), min_size=1, max_size=6, unique=True),
        st.lists(
            st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_equal_stable_hash(self, tower_ids, points):
        model = PropagationModel(RadioConfig(), seed=3)
        columns = model.columns(tower_ids)
        got = _hashes_at_every_point(model, points, columns)
        expected = [
            stable_hash("shadow", tower_id, ix, iy)
            for ix, iy in points
            for tower_id in tower_ids
        ]
        assert got == expected

    def test_fixed_cases(self):
        model = PropagationModel(RadioConfig(), seed=3)
        tower_ids = [0, 7, 12345, 2**40 + 3, -5]
        points = [(0, 0), (-1, 1), (-12, 345), (10**6, -10**6)]
        columns = model.columns(tower_ids)
        got = _hashes_at_every_point(model, points, columns[::-1])
        assert got == [
            stable_hash("shadow", t, ix, iy)
            for ix, iy in points
            for t in tower_ids[::-1]
        ]

    def test_tower_registered_after_tables_built(self):
        # The per-length column tables are built on first use; a tower
        # registered afterwards must get (and widen) them too.
        model = PropagationModel(RadioConfig(), seed=3)
        points = [(0, 0), (-7, 12), (-123456, 98765), (4, -3)]
        first = model.columns([5, 60, 700])
        assert _hashes_at_every_point(model, points, first) == [
            stable_hash("shadow", t, ix, iy) for ix, iy in points for t in (5, 60, 700)
        ]
        columns = model.columns([8000, 5, 90000])
        assert _hashes_at_every_point(model, points, columns) == [
            stable_hash("shadow", t, ix, iy)
            for ix, iy in points
            for t in (8000, 5, 90000)
        ]

    def test_large_tower_ids_at_negative_corners_match_oracle(self):
        radio = RadioConfig()
        towers = [
            CellTower(tower_id=10**12 + k, position=Point(-800.0 * k, -350.0 * k))
            for k in range(4)
        ]
        model = PropagationModel(radio, seed=9)
        oracle = OracleScanner(towers, radio, seed=9)
        for where in (Point(-1234.5, -987.25), Point(-3.0, 4500.5)):
            for tower in towers:
                expected = oracle.mean_rss_dbm(tower, where)
                assert model.mean_rss_dbm(tower, where) == expected
