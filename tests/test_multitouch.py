"""Multi-touch ambiguity tests (paper section 7's deferred problem)."""

import numpy as np
import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.errors import SensorError
from repro.sensor.multitouch import (
    TwoPressState,
    ambiguity_report,
    effective_shorting_points,
    two_press_phases,
)


@pytest.fixture(scope="module")
def estimator(model_900):
    return ForceLocationEstimator(model_900)


class TestTwoPressState:
    def test_valid_state(self):
        state = TwoPressState(2.0, 0.025, 3.0, 0.055)
        assert state.force_a == 2.0

    def test_rejects_wrong_order(self):
        with pytest.raises(SensorError):
            TwoPressState(2.0, 0.055, 3.0, 0.025)

    def test_rejects_zero_force(self):
        with pytest.raises(SensorError):
            TwoPressState(0.0, 0.025, 3.0, 0.055)


class TestEffectiveShorting:
    def test_outermost_edges(self, tag):
        state = TwoPressState(3.0, 0.025, 3.0, 0.055)
        points = effective_shorting_points(tag, state)
        assert points is not None
        patch_a = tag.transducer.contact(3.0, 0.025)
        patch_b = tag.transducer.contact(3.0, 0.055)
        assert points[0] == pytest.approx(patch_a.left)
        assert points[1] == pytest.approx(patch_b.right)

    def test_interior_edges_shadowed(self, tag):
        """The region between the presses is invisible: moving press
        b's force barely changes port 1's edge."""
        light = TwoPressState(3.0, 0.025, 1.0, 0.055)
        heavy = TwoPressState(3.0, 0.025, 7.0, 0.055)
        p_light = effective_shorting_points(tag, light)
        p_heavy = effective_shorting_points(tag, heavy)
        assert p_light[0] == pytest.approx(p_heavy[0], abs=1e-6)

    def test_single_contact_fallback(self, tag):
        state = TwoPressState(0.05, 0.025, 4.0, 0.055)  # a below contact
        points = effective_shorting_points(tag, state)
        patch_b = tag.transducer.contact(4.0, 0.055)
        assert points[0] == pytest.approx(patch_b.left)


class TestAmbiguity:
    def test_phases_have_single_press_dimensionality(self, tag):
        phi = two_press_phases(tag, 900e6, TwoPressState(3.0, 0.025,
                                                         3.0, 0.055))
        assert len(phi) == 2
        assert all(abs(p) > np.radians(5.0) for p in phi)

    def test_close_presses_are_ambiguous(self, tag, estimator):
        """The core negative result: nearby presses fit a single-press
        hypothesis within noise — genuinely ambiguous, which is why
        the paper defers multi-touch."""
        state = TwoPressState(3.0, 0.035, 3.0, 0.045)
        result = ambiguity_report(tag, estimator, 900e6, state)
        assert result.residual_deg < 5.0

    def test_close_presses_misread_as_one_strong_press(self, tag,
                                                       estimator):
        state = TwoPressState(3.0, 0.035, 3.0, 0.045)
        result = ambiguity_report(tag, estimator, 900e6, state)
        # The inferred single press sits between the two true presses
        # and misattributes the summed force.
        assert 0.035 < result.inferred_location < 0.045
        misattribution = (abs(result.inferred_force
                                  - result.total_true_force)
                              / result.total_true_force)
        assert misattribution > 0.2

    def test_far_presses_are_detectable(self, tag, estimator):
        """Widely separated presses imply an edge spread no single
        press can make: the residual blows up, so the reader can
        refuse the reading instead of mis-reporting it."""
        state = TwoPressState(3.0, 0.020, 3.0, 0.060)
        result = ambiguity_report(tag, estimator, 900e6, state)
        assert result.residual_deg > 15.0

    def test_residual_grows_with_separation(self, tag, estimator):
        separations = [(0.035, 0.045), (0.030, 0.050), (0.025, 0.055)]
        residuals = [
            ambiguity_report(tag, estimator, 900e6,
                             TwoPressState(3.0, a, 3.0, b)).residual_deg
            for a, b in separations
        ]
        assert residuals[0] < residuals[1] < residuals[2]

    def test_no_contact_reports_zero(self, tag):
        state = TwoPressState(0.01, 0.025, 0.01, 0.055)
        phi = two_press_phases(tag, 900e6, state)
        assert phi == (0.0, 0.0)
