"""Experiment metrics and fingertip-profile tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.fingertip import FingertipProfile
from repro.experiments.metrics import (
    empirical_cdf,
    median_absolute_error,
    percentile_absolute_error,
)


class TestMetrics:
    def test_cdf_sorted_and_normalised(self):
        values, probabilities = empirical_cdf([3.0, -1.0, 2.0])
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(probabilities, [1 / 3, 2 / 3, 1.0])

    def test_cdf_uses_absolute_errors(self):
        values, _ = empirical_cdf([-5.0])
        assert values[0] == 5.0

    def test_median(self):
        assert median_absolute_error([1.0, -2.0, 3.0]) == 2.0

    def test_percentile(self):
        errors = np.arange(1, 101, dtype=float)
        assert percentile_absolute_error(errors, 90.0) == pytest.approx(90.1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])
        with pytest.raises(ConfigurationError):
            median_absolute_error([])

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile_absolute_error([1.0], 150.0)


class TestFingertipProfile:
    def test_sample_count(self, rng):
        profile = FingertipProfile(levels=(1.0, 2.0), samples_per_level=5,
                                   rng=rng)
        assert len(profile.generate()) == 10

    def test_levels_visited_in_order(self, rng):
        profile = FingertipProfile(rng=rng)
        presses = profile.generate()
        indices = [press.level_index for press in presses]
        assert indices == sorted(indices)

    def test_forces_near_targets(self, rng):
        profile = FingertipProfile(levels=(2.0,), samples_per_level=50,
                                   tremor_std=0.1, rng=rng)
        forces = [press.state.force for press in profile.generate()]
        assert np.mean(forces) == pytest.approx(2.0, abs=0.15)

    def test_location_jitter_bounded(self, rng):
        profile = FingertipProfile(placement_std=1e-3, rng=rng)
        locations = [press.state.location for press in profile.generate()]
        assert np.std(locations) < 4e-3

    def test_forces_always_positive(self, rng):
        profile = FingertipProfile(levels=(0.3,), tremor_std=1.0, rng=rng)
        assert all(press.state.force > 0.0 for press in profile.generate())

    def test_rejects_bad_levels(self, rng):
        with pytest.raises(ConfigurationError):
            FingertipProfile(levels=(), rng=rng)
        with pytest.raises(ConfigurationError):
            FingertipProfile(levels=(-1.0,), rng=rng)

    def test_rejects_bad_samples(self, rng):
        with pytest.raises(ConfigurationError):
            FingertipProfile(samples_per_level=0, rng=rng)
