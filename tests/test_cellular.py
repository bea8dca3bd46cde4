"""Tests for the phone-side cellular sampling layer."""

import numpy as np
import pytest

from repro.phone.cellular import CellularSample, CellularSampler
from repro.radio.scanner import Observation


class TestCellularSample:
    def test_from_observation(self):
        obs = Observation(tower_ids=(9, 4), rss_dbm=(-50.0, -60.0))
        sample = CellularSample.from_observation(123.0, obs)
        assert sample == CellularSample(time_s=123.0, tower_ids=(9, 4))
        assert len(sample) == 2

    def test_immutable(self):
        sample = CellularSample(time_s=0.0, tower_ids=(1,))
        with pytest.raises(AttributeError):
            sample.time_s = 5.0


class TestCellularSampler:
    def test_sample_carries_time_and_order(self, small_city, sampler, scanner):
        where = small_city.registry.stations[0].stops[0].position
        sample = sampler.sample(where, 456.0, np.random.default_rng(5))
        assert sample.time_s == 456.0
        assert len(sample.tower_ids) >= 1
        # The scan's RSS order, which is all that is left of the RSS.
        scan = scanner.scan(where, np.random.default_rng(5))
        assert sample.tower_ids == scan.tower_ids

    def test_repeated_samples_share_strongest_cell_mostly(
        self, small_city, sampler
    ):
        where = small_city.registry.stations[5].stops[0].position
        rng = np.random.default_rng(7)
        serving = [
            sampler.sample(where, float(k), rng).tower_ids[0] for k in range(10)
        ]
        most_common = max(set(serving), key=serving.count)
        assert serving.count(most_common) >= 7

    def test_deferred_samples_equal_immediate_ones(self, small_city, sampler):
        stops = [s.stops[0].position for s in small_city.registry.stations[:4]]
        rng = np.random.default_rng(3)
        pending = [(10.0 * k, sampler.draw(where, rng)) for k, where in enumerate(stops)]
        rng_ref = np.random.default_rng(3)
        expected = [
            sampler.sample(where, 10.0 * k, rng_ref) for k, where in enumerate(stops)
        ]
        assert sampler.evaluate(pending) == expected
        assert rng.bit_generator.state == rng_ref.bit_generator.state
