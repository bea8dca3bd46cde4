"""Differential tests: the vectorized radio scan against its scalar oracle.

``CellularScanner`` evaluates a scan's candidate towers in one numpy pass
over a lattice memo; :class:`repro.testkit.oracles.OracleScanner` does
one tower and one ``field_rng`` Generator per lattice corner at a time.
They must agree exactly: same tower ids, same ``rss_dbm`` and the same
amount of noise stream consumed.

The batched lattice draw is checked on its own too: its literal
ziggurat tables against numpy, its values bit for bit against
``field_rng`` (scalar fallback included), and the resumed key hashes
against ``stable_hash``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio import CellTower, CellularScanner, PropagationModel, deploy_towers
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


def _pair(seed):
    radio = RadioConfig()
    scanner = CellularScanner(TOWERS, PropagationModel(radio, seed=seed), radio)
    return scanner, OracleScanner(TOWERS, radio, seed=seed)


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

    def test_no_candidate_tower_is_an_empty_scan(self):
        scanner, oracle = _pair(7)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert len(scanner.scan(Point(-50_000.0, 0.0), rng)) == 0
        assert rng.bit_generator.state == before
        _assert_same_scan(scanner, oracle, Point(-50_000.0, 0.0), 0, True)


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
        got = model._key_hashes(points, [columns] * len(points))
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
        got = model._key_hashes(points, [columns[::-1]] * len(points))
        assert got == [
            stable_hash("shadow", t, ix, iy)
            for ix, iy in points
            for t in tower_ids[::-1]
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
