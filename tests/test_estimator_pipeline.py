"""Estimator inversion and end-to-end reader pipeline tests."""

import numpy as np
import pytest

from repro.core.calibration import harmonic_differential_phases
from repro.core.estimator import ForceLocationEstimator
from repro.core.pipeline import WiForceReader
from repro.errors import EstimationError, ReaderError
from repro.experiments.scenarios import build_wireless_scenario
from repro.sensor.tag import TagState


@pytest.fixture(scope="module")
def estimator(model_900):
    return ForceLocationEstimator(model_900)


@pytest.fixture(scope="module")
def wireless_reader():
    reader = build_wireless_scenario(900e6, seed=77, fast=True)
    reader.capture_baseline()
    return reader


class TestEstimator:
    @pytest.mark.parametrize("force,location", [
        (1.5, 0.025), (3.0, 0.040), (5.0, 0.050), (7.0, 0.058),
    ])
    def test_noiseless_inversion_accurate(self, estimator, tag, force,
                                          location):
        phases = harmonic_differential_phases(tag, 900e6, force, location)
        estimate = estimator.invert(*phases)
        assert estimate.touched
        # The phase-force curve saturates at high force, so a fixed
        # model error costs proportionally more newtons there.
        assert estimate.force == pytest.approx(force,
                                               abs=max(0.35, 0.12 * force))
        assert estimate.location == pytest.approx(location, abs=1.5e-3)

    def test_small_phases_mean_no_touch(self, estimator):
        estimate = estimator.invert(0.01, -0.02)
        assert not estimate.touched
        assert estimate.force == 0.0

    def test_location_hint_restricts_search(self, estimator, tag):
        phases = harmonic_differential_phases(tag, 900e6, 4.0, 0.040)
        estimate = estimator.invert(*phases, location_hint=0.040)
        assert estimate.location == pytest.approx(0.040, abs=1.5e-3)

    def test_bad_hint_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.invert(1.0, 1.0, location_hint=0.5)

    def test_residual_small_at_optimum(self, estimator, tag):
        phases = harmonic_differential_phases(tag, 900e6, 3.0, 0.040)
        estimate = estimator.invert(*phases)
        assert estimate.residual < np.radians(3.0)

    def test_rejects_bad_threshold(self, model_900):
        with pytest.raises(EstimationError):
            ForceLocationEstimator(model_900, touch_threshold_deg=-1.0)


class TestWiForceReader:
    def test_read_requires_baseline_or_rebaselines(self):
        reader = build_wireless_scenario(900e6, seed=3, fast=True)
        reading = reader.read(TagState(3.0, 0.040))  # auto-baselines
        assert reading.estimate.touched

    def test_untouched_reads_as_no_force(self, wireless_reader):
        reading = wireless_reader.read(TagState())
        assert not reading.estimate.touched
        assert reading.force == 0.0

    def test_end_to_end_accuracy(self, wireless_reader):
        """The headline loop: wireless reading matches the press."""
        reading = wireless_reader.read(TagState(3.0, 0.040),
                                       rebaseline=True)
        assert reading.force == pytest.approx(3.0, abs=0.5)
        assert reading.location == pytest.approx(0.040, abs=1.5e-3)

    def test_drift_rates_fitted(self, wireless_reader):
        rates = wireless_reader.drift_rates
        assert set(rates) == {1e3, 4e3}
        # 20 ppm on a 1 kHz clock is 2 pi * 0.02 rad/s at the tone.
        assert rates[1e3] == pytest.approx(2 * np.pi * 0.02, abs=0.08)

    def test_drift_scales_with_tone(self, wireless_reader):
        rates = wireless_reader.drift_rates
        assert rates[4e3] == pytest.approx(4 * rates[1e3], abs=0.15)

    def test_elapsed_advances(self, wireless_reader):
        before = wireless_reader.elapsed
        wireless_reader.read(TagState(2.0, 0.04))
        assert wireless_reader.elapsed > before

    def test_frames_per_capture(self, wireless_reader):
        assert wireless_reader.frames_per_capture == (
            wireless_reader.extractor.group_length
            * wireless_reader.groups_per_capture)

    def test_rejects_bad_groups(self, model_900, wireless_reader):
        with pytest.raises(ReaderError):
            WiForceReader(wireless_reader.sounder, model_900,
                          groups_per_capture=0)

    def test_rejects_bad_baseline_groups(self, model_900, wireless_reader):
        with pytest.raises(ReaderError):
            WiForceReader(wireless_reader.sounder, model_900,
                          baseline_groups=1)
