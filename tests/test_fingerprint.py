"""Tests for the fingerprint database."""

import functools

import numpy as np
import pytest

from repro.city.geometry import Point
from repro.city.stops import Station, StopRegistry
from repro.core.fingerprint import MEDOID_PAIRS, FingerprintDatabase
from repro.radio import towers_for_city
from repro.radio.scanner import SCAN_CHUNK
from repro.testkit.oracles import OracleScanner, oracle_survey


class TestBasics:
    def test_set_and_get(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10, 11, 12))
        assert db.fingerprint(1) == (10, 11, 12)
        assert 1 in db
        assert len(db) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FingerprintDatabase().set_fingerprint(1, ())

    def test_rejects_duplicate_ids_within_fingerprint(self):
        with pytest.raises(ValueError):
            FingerprintDatabase().set_fingerprint(1, (10, 10, 11))

    def test_overwrite(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10, 11))
        db.set_fingerprint(1, (12, 13))
        assert db.fingerprint(1) == (12, 13)

    def test_as_dict_is_copy(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10,))
        exported = db.as_dict()
        exported[2] = (99,)
        assert 2 not in db


class TestMedoidSelection:
    def test_single_sample(self):
        db = FingerprintDatabase()
        db.set_from_samples(1, [(10, 11, 12)])
        assert db.fingerprint(1) == (10, 11, 12)

    def test_medoid_rejects_outlier(self):
        db = FingerprintDatabase()
        samples = [
            (10, 11, 12, 13),
            (10, 11, 13, 12),
            (10, 12, 11, 13),
            (90, 91, 92, 93),          # outlier scan
        ]
        db.set_from_samples(1, samples)
        assert db.fingerprint(1) != (90, 91, 92, 93)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            FingerprintDatabase().set_from_samples(1, [])

    def test_all_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            FingerprintDatabase().set_from_samples(1, [(), ()])


class TestSurvey:
    def test_covers_every_station(self, small_city, database):
        assert len(database) == len(small_city.registry.stations)

    def test_fingerprint_lengths_in_band(self, database, config):
        for station_id in database.station_ids:
            assert 1 <= len(database.fingerprint(station_id)) <= config.radio.max_visible

    def test_deterministic_given_rng_seed(self, small_city, scanner, config):
        a = FingerprintDatabase.survey(
            small_city.registry, scanner, 3, config.matching,
            rng=np.random.default_rng(5),
        )
        b = FingerprintDatabase.survey(
            small_city.registry, scanner, 3, config.matching,
            rng=np.random.default_rng(5),
        )
        assert a.as_dict() == b.as_dict()

    def test_rejects_bad_sample_count(self, small_city, scanner):
        with pytest.raises(ValueError):
            FingerprintDatabase.survey(small_city.registry, scanner, 0)


class TestSurveyAgainstOracle:
    """The batched survey against one oracle scan and one medoid at a time."""

    @pytest.fixture(scope="class")
    def registry(self, small_city):
        registry = StopRegistry()
        for station in small_city.registry.stations[:20]:
            registry.add_station(station)
        # A station with no platforms is surveyed at its own position.
        registry.add_station(Station(9999, "bare", Point(1510.0, 980.0)))
        # At five samples a stop the survey spans two scan chunks and
        # several medoid kernel calls.
        assert len(registry.stations) * 5 > SCAN_CHUNK
        assert len(registry.stations) * 5 * 4 > 2 * MEDOID_PAIRS
        return registry

    @pytest.fixture(scope="class")
    def oracle(self, small_city, config):
        towers = towers_for_city(small_city, seed=5)
        oracle = OracleScanner(towers, config.radio, seed=5)
        # Corner values are pure functions of their keys: caching them
        # changes nothing but the oracle's speed.
        oracle._corner = functools.lru_cache(maxsize=None)(oracle._corner)
        return oracle

    @pytest.mark.parametrize("samples_per_stop", [1, 2, 5])
    def test_equals_oracle_survey(
        self, registry, oracle, scanner, config, samples_per_stop
    ):
        fast_rng = np.random.default_rng(17)
        slow_rng = np.random.default_rng(17)
        fast = FingerprintDatabase.survey(
            registry, scanner, samples_per_stop, config.matching, rng=fast_rng
        )
        slow = oracle_survey(
            registry, oracle, samples_per_stop, slow_rng, config.matching
        )
        assert list(fast.as_dict().items()) == list(slow.as_dict().items())
        assert 9999 in fast
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestOnlineUpdate:
    def test_bootstrap_unknown_station(self):
        db = FingerprintDatabase()
        assert db.update_online(5, (1, 2, 3))
        assert db.fingerprint(5) == (1, 2, 3)

    def test_adopts_longer_similar_sample(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10, 11, 12, 13))
        assert db.update_online(1, (10, 11, 12, 13, 14), min_score=3.5)
        assert db.fingerprint(1) == (10, 11, 12, 13, 14)

    def test_rejects_dissimilar_sample(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10, 11, 12, 13))
        assert not db.update_online(1, (90, 91, 92, 93, 94))
        assert db.fingerprint(1) == (10, 11, 12, 13)

    def test_rejects_shorter_sample(self):
        db = FingerprintDatabase()
        db.set_fingerprint(1, (10, 11, 12, 13))
        assert not db.update_online(1, (10, 11, 12))
