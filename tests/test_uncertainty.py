"""Reading-uncertainty propagation tests: error bars from the Jacobian
the solver steps on (:meth:`ForceLocationEstimator.error_bars`)."""

import numpy as np
import pytest

from repro.core.calibration import harmonic_differential_phases
from repro.core.estimator import (
    BatchForceLocationEstimate,
    ForceLocationEstimate,
    ForceLocationEstimator,
)
from repro.errors import EstimationError


@pytest.fixture(scope="module")
def estimator(model_900):
    return ForceLocationEstimator(model_900)


def touched(force, location):
    return ForceLocationEstimate(force=force, location=location,
                                 residual=0.0, touched=True)


def batch(forces, locations):
    count = len(forces)
    return BatchForceLocationEstimate(
        force=np.array(forces, dtype=float),
        location=np.array(locations, dtype=float),
        residual=np.zeros(count), touched=np.ones(count, dtype=bool))


def jacobian(model, force, location):
    """``SensorModel.linearize`` at one point: rows are the ports,
    columns (d/dF [rad/N], d/dx [rad/m])."""
    return model.linearize(np.array([force]), np.array([location]))[1][0]


class TestJacobian:
    def test_shape_and_signs(self, model_900):
        slopes = jacobian(model_900, 3.0, 0.040)
        assert slopes.shape == (2, 2)
        # More force rotates both phases the same way at the centre.
        assert np.sign(slopes[0, 0]) == np.sign(slopes[1, 0])
        # Moving the press toward port 2 moves the two phases in
        # opposite directions.
        assert np.sign(slopes[0, 1]) != np.sign(slopes[1, 1])

    def test_force_sensitivity_drops_at_high_force(self, model_900):
        """The saturation regime: less phase per newton."""
        low = jacobian(model_900, 1.5, 0.040)
        high = jacobian(model_900, 7.5, 0.040)
        assert abs(high[0, 0]) < abs(low[0, 0])


class TestReadingUncertainty:
    def test_reasonable_magnitudes(self, estimator):
        result = estimator.error_bars(touched(3.0, 0.040),
                                      phase_std_rad=np.radians(0.5))
        # 0.5 deg of phase noise should map to sub-newton, sub-mm bars
        # (the paper's operating point).
        assert 0.0 < result.force_std < 1.0
        assert 0.0 < result.location_std < 2e-3
        assert all(type(value) is float for value in (
            result.force_std, result.location_std, result.conditioning))

    def test_scales_linearly_with_phase_noise(self, estimator):
        small = estimator.error_bars(touched(3.0, 0.040), np.radians(0.25))
        large = estimator.error_bars(touched(3.0, 0.040), np.radians(1.0))
        assert large.force_std == pytest.approx(4 * small.force_std,
                                                rel=1e-6)
        assert large.location_std == pytest.approx(4 * small.location_std,
                                                   rel=1e-6)
        assert large.conditioning == small.conditioning

    def test_high_force_bars_wider(self, estimator):
        """Same phase noise costs more newtons in the saturating
        regime — the error structure seen in the accuracy CDFs."""
        mid = estimator.error_bars(touched(2.0, 0.040), np.radians(0.5))
        high = estimator.error_bars(touched(7.5, 0.040), np.radians(0.5))
        assert high.force_std > mid.force_std

    def test_untouched_rejected(self, estimator):
        estimate = ForceLocationEstimate(0.0, 0.0, 0.0, touched=False)
        with pytest.raises(EstimationError):
            estimator.error_bars(estimate, 0.01)
        readings = batch([3.0, 3.0], [0.040, 0.040])
        readings.touched[1] = False
        with pytest.raises(EstimationError):
            estimator.error_bars(readings, 0.01)

    def test_negative_phase_std_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.error_bars(touched(3.0, 0.040), -0.1)

    @pytest.mark.parametrize("edge, column, nudge", [
        (1, 0, 1e-9), (0, 0, -1e-9), (1, 1, 1e-12), (0, 1, -1e-12),
        (1, 0, 10.0)])
    def test_outside_domain_rejected(self, estimator, edge, column,
                                     nudge):
        """``linearize`` extrapolates outside the calibrated domain, so
        no error bars are attached there."""
        force, location = 3.0, 0.040
        if column == 0:
            force = estimator.model.force_range[edge] + nudge
        else:
            location = estimator.location_span()[edge] + nudge
        with pytest.raises(EstimationError, match="calibrated"):
            estimator.error_bars(touched(force, location), 0.01)
        with pytest.raises(EstimationError, match="calibrated"):
            estimator.error_bars(batch([3.0, force], [0.040, location]),
                                 0.01)

    def test_domain_edges_accepted(self, estimator):
        """The domain is inclusive: the solver's clipped estimates on
        its edges get error bars."""
        force_low, force_high = estimator.model.force_range
        location_low, location_high = estimator.location_span()
        result = estimator.error_bars(
            batch([force_low, force_high, force_low, force_high],
                  [location_low, location_high, location_high,
                   location_low]), np.radians(0.5))
        assert np.all(np.isfinite(result.force_std))
        assert np.all(result.location_std > 0.0)

    def test_singular_jacobian_rejected(self, estimator, monkeypatch):
        """Two ports that move together cannot tell force from
        location: no error bars."""
        def collinear(points):
            count = points.shape[0]
            return (np.zeros((count, 2)),
                    np.broadcast_to([[1.0, 2.0], [2.0, 4.0]],
                                    (count, 2, 2)).copy())

        monkeypatch.setattr(estimator, "_linearize", collinear)
        with pytest.raises(EstimationError, match="degenerate"):
            estimator.error_bars(touched(3.0, 0.040), 0.01)

    def test_batch_rows_equal_scalar_calls(self, estimator):
        """Row n of a batch is the call on ``batch[n]``, bit for bit."""
        rng = np.random.default_rng(5)
        forces = np.concatenate([[0.5, 8.0], rng.uniform(0.5, 8.0, 40)])
        locations = np.concatenate([[0.020, 0.060],
                                    rng.uniform(0.020, 0.060, 40)])
        readings = batch(forces, locations)
        sigma = np.radians(0.7)
        result = estimator.error_bars(readings, sigma)
        for field in ("force_std", "location_std", "conditioning"):
            assert getattr(result, field).shape == (42,)
        for index, reading in enumerate(readings):
            alone = estimator.error_bars(reading, sigma)
            assert alone.force_std == result.force_std[index]
            assert alone.location_std == result.location_std[index]
            assert alone.conditioning == result.conditioning[index]

    def test_conditioning_is_domain_scaled_singular_value_ratio(
            self, estimator, model_900):
        """The conditioning is unit-free: the singular-value ratio of
        the Jacobian with force over its range and location over its
        span."""
        force_low, force_high = estimator.model.force_range
        location_low, location_high = estimator.location_span()
        rng = np.random.default_rng(9)
        forces = rng.uniform(force_low, force_high, 25)
        locations = rng.uniform(location_low, location_high, 25)
        result = estimator.error_bars(batch(forces, locations), 0.01)
        scale = np.array([force_high - force_low,
                          location_high - location_low])
        for index, (force, location) in enumerate(zip(forces, locations)):
            values = np.linalg.svd(jacobian(model_900, force, location)
                                   * scale, compute_uv=False)
            assert result.conditioning[index] == pytest.approx(
                values[0] / values[1], rel=1e-9)

    def test_matches_covariance_of_the_physical_jacobian(self, estimator,
                                                         model_900):
        """The domain scaling changes the units the solve runs in, not
        the bars: sigma^2 (J^T J)^-1 in rad/N and rad/m agrees."""
        sigma = np.radians(0.5)
        result = estimator.error_bars(touched(4.0, 0.035), sigma)
        slopes = jacobian(model_900, 4.0, 0.035)
        covariance = sigma ** 2 * np.linalg.inv(slopes.T @ slopes)
        assert result.force_std == pytest.approx(
            np.sqrt(covariance[0, 0]), rel=1e-9)
        assert result.location_std == pytest.approx(
            np.sqrt(covariance[1, 1]), rel=1e-9)

    def test_consistency_with_monte_carlo(self, estimator, tag):
        """The propagated sigma matches the scatter of noisy
        inversions — the error bars mean what they claim."""
        rng = np.random.default_rng(17)
        truth = harmonic_differential_phases(tag, 900e6, 3.0, 0.040)
        sigma = np.radians(0.8)
        forces = []
        for _ in range(80):
            phi1 = truth[0] + rng.normal(0.0, sigma)
            phi2 = truth[1] + rng.normal(0.0, sigma)
            forces.append(estimator.invert(phi1, phi2).force)
        empirical = float(np.std(forces))
        predicted = estimator.error_bars(touched(3.0, 0.040),
                                         sigma).force_std
        assert empirical == pytest.approx(predicted, rel=0.5)
