"""Fabrication-tolerance, calibration-transfer and campaign tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import montecarlo
from repro.experiments.parallel import CampaignExecutor
from repro.experiments.runners import run_form_factor
from repro.sensor.fabrication import (
    FabricationTolerances,
    perturbed_design,
    scaled_design,
    tolerance_report,
)
from repro.sensor.geometry import default_sensor_design


class TestPerturbedDesign:
    def test_zero_tolerance_is_nominal(self, rng):
        tolerances = FabricationTolerances(0.0, 0.0, 0.0, 0.0)
        unit = perturbed_design(tolerances=tolerances, rng=rng)
        nominal = default_sensor_design()
        assert unit.line.height == nominal.line.height
        assert unit.line.width == nominal.line.width
        assert (unit.soft_material.youngs_modulus
                == nominal.soft_material.youngs_modulus)

    def test_units_differ(self):
        rng = np.random.default_rng(3)
        first = perturbed_design(rng=rng)
        second = perturbed_design(rng=rng)
        assert first.line.height != second.line.height

    def test_deviations_bounded(self):
        rng = np.random.default_rng(9)
        tolerances = FabricationTolerances()
        nominal = default_sensor_design()
        for _ in range(50):
            unit = perturbed_design(tolerances=tolerances, rng=rng)
            ratio = unit.line.height / nominal.line.height
            assert 1 - 3 * tolerances.gap_height <= ratio
            assert ratio <= 1 + 3 * tolerances.gap_height

    def test_rejects_huge_tolerance(self):
        with pytest.raises(ConfigurationError):
            FabricationTolerances(gap_height=0.6)


class TestToleranceReport:
    def test_batch_stays_matched(self):
        """Even a sloppy batch keeps S11 below -10 dB: the RF design
        point is logarithmically insensitive to geometry."""
        report = tolerance_report(units=40, seed=1)
        assert report.worst_mismatch_db < -10.0

    def test_impedance_spread_small(self):
        report = tolerance_report(units=40, seed=1)
        mean, std = report.impedance_spread
        assert mean == pytest.approx(50.0, abs=3.0)
        assert std < 3.0

    def test_rejects_tiny_batch(self):
        with pytest.raises(ConfigurationError):
            tolerance_report(units=1)


class TestScaledDesign:
    def test_scales_geometry(self):
        half = scaled_design(0.5)
        nominal = default_sensor_design()
        assert half.line.length == pytest.approx(nominal.line.length / 2)
        assert half.line.height == pytest.approx(nominal.line.height / 2)
        assert half.soft_thickness == pytest.approx(
            nominal.soft_thickness / 2)

    def test_impedance_scale_invariant(self):
        """Z0 depends only on the h/w ratio, so scaling preserves it."""
        nominal = default_sensor_design().line.characteristic_impedance
        half = scaled_design(0.5).line.characteristic_impedance
        assert half == pytest.approx(nominal, abs=0.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            scaled_design(0.0)


@pytest.mark.integration
class TestFormFactor:
    def test_miniaturisation_preserves_relative_accuracy(self):
        """Paper section 7: a half-size sensor read at twice the
        carrier keeps its phase swing and relative localization."""
        result = run_form_factor(scales=(1.0, 0.5))
        full, half = result.phase_swing_deg
        assert half > 0.6 * full
        rel_full, rel_half = result.relative_location_medians
        assert rel_half < 3.0 * rel_full
        # Absolute accuracy of the mini sensor stays sub-millimetre.
        assert result.location_medians_m[1] < 1e-3


@pytest.mark.integration
class TestCampaigns:
    def test_environment_robustness(self):
        """Accuracy holds across random indoor environments, and the
        same trials through a process pool give the serial medians."""
        result = montecarlo.environment_campaign(
            trials=4, fast=True, executor=CampaignExecutor(workers=1))
        assert result.worst_force_median < 1.0
        assert result.worst_location_median < 2e-3
        sharded = montecarlo.environment_campaign(
            trials=4, fast=True, executor=CampaignExecutor(workers=2))
        assert np.array_equal(sharded.force_medians, result.force_medians)
        assert np.array_equal(sharded.location_medians,
                              result.location_medians)

    def test_calibration_transfer_vs_per_unit(self):
        """Transferring the nominal calibration to toleranced units
        costs accuracy; per-unit calibration recovers it."""
        transfer = montecarlo.calibration_transfer_campaign(units=3)
        per_unit = montecarlo.per_unit_calibration_campaign(units=3)
        assert (per_unit.force_medians.mean()
                <= transfer.force_medians.mean() + 1e-9)
        # Per-unit trimming keeps every unit sub-newton.
        assert per_unit.worst_force_median < 1.0
