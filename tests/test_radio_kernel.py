"""Differential tests: the vectorized radio scan against its scalar oracle.

``CellularScanner`` evaluates a scan's candidate towers in one numpy pass
over a lattice memo; :class:`repro.testkit.oracles.OracleScanner` does
one tower and one ``field_rng`` Generator per lattice corner at a time.
They must agree exactly: same tower ids, same ``rss_dbm`` and the same
amount of noise stream consumed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio import CellTower, CellularScanner, PropagationModel, deploy_towers
from repro.testkit.oracles import OracleScanner
from repro.util.rng import _keyed_normals, field_normals, field_rng

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
