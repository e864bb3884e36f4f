"""Reading-uncertainty propagation tests."""

import numpy as np
import pytest

from repro.core.calibration import harmonic_differential_phases
from repro.core.estimator import ForceLocationEstimate, ForceLocationEstimator
from repro.core.uncertainty import model_jacobian, reading_uncertainty
from repro.errors import EstimationError


def touched(force, location):
    return ForceLocationEstimate(force=force, location=location,
                                 residual=0.0, touched=True)


class TestJacobian:
    def test_shape_and_signs(self, model_900):
        jacobian = model_jacobian(model_900, 3.0, 0.040)
        assert jacobian.shape == (2, 2)
        # More force rotates both phases the same way at the centre.
        assert np.sign(jacobian[0, 0]) == np.sign(jacobian[1, 0])
        # Moving the press toward port 2 moves the two phases in
        # opposite directions.
        assert np.sign(jacobian[0, 1]) != np.sign(jacobian[1, 1])

    def test_force_sensitivity_drops_at_high_force(self, model_900):
        """The saturation regime: less phase per newton."""
        low = model_jacobian(model_900, 1.5, 0.040)
        high = model_jacobian(model_900, 7.5, 0.040)
        assert abs(high[0, 0]) < abs(low[0, 0])

    def test_boundary_pin_rejected(self, model_900):
        low, high = model_900.force_range
        with pytest.raises(EstimationError):
            model_jacobian(model_900, high + 10.0, 0.040,
                           force_step=1e-9)


class TestReadingUncertainty:
    def test_reasonable_magnitudes(self, model_900):
        result = reading_uncertainty(model_900, touched(3.0, 0.040),
                                     phase_std_rad=np.radians(0.5))
        # 0.5 deg of phase noise should map to sub-newton, sub-mm bars
        # (the paper's operating point).
        assert 0.0 < result.force_std < 1.0
        assert 0.0 < result.location_std < 2e-3

    def test_scales_linearly_with_phase_noise(self, model_900):
        small = reading_uncertainty(model_900, touched(3.0, 0.040),
                                    np.radians(0.25))
        large = reading_uncertainty(model_900, touched(3.0, 0.040),
                                    np.radians(1.0))
        assert large.force_std == pytest.approx(4 * small.force_std,
                                                rel=1e-6)

    def test_high_force_bars_wider(self, model_900):
        """Same phase noise costs more newtons in the saturating
        regime — the error structure seen in the accuracy CDFs."""
        mid = reading_uncertainty(model_900, touched(2.0, 0.040),
                                  np.radians(0.5))
        high = reading_uncertainty(model_900, touched(7.5, 0.040),
                                   np.radians(0.5))
        assert high.force_std > mid.force_std

    def test_untouched_rejected(self, model_900):
        estimate = ForceLocationEstimate(0.0, 0.0, 0.0, touched=False)
        with pytest.raises(EstimationError):
            reading_uncertainty(model_900, estimate, 0.01)

    def test_negative_phase_std_rejected(self, model_900):
        with pytest.raises(EstimationError):
            reading_uncertainty(model_900, touched(3.0, 0.040), -0.1)

    def test_consistency_with_monte_carlo(self, model_900, tag):
        """The propagated sigma matches the scatter of noisy
        inversions — the error bars mean what they claim."""
        rng = np.random.default_rng(17)
        estimator = ForceLocationEstimator(model_900)
        truth = harmonic_differential_phases(tag, 900e6, 3.0, 0.040)
        sigma = np.radians(0.8)
        forces = []
        for _ in range(80):
            phi1 = truth[0] + rng.normal(0.0, sigma)
            phi2 = truth[1] + rng.normal(0.0, sigma)
            forces.append(estimator.invert(phi1, phi2).force)
        empirical = float(np.std(forces))
        predicted = reading_uncertainty(
            model_900, touched(3.0, 0.040), sigma).force_std
        assert empirical == pytest.approx(predicted, rel=0.5)
