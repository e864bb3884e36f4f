"""Differential-phase extraction tests (paper Eqns. 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.harmonics import HarmonicMatrix
from repro.core.phase import (
    differential_phase,
    harmonic_snr_db,
    phase_stability_deg,
    phase_trajectory,
)
from repro.errors import EstimationError


def vector(phase, k=8, amplitude=1.0):
    subcarrier_phases = np.linspace(0.0, 1.0, k)  # air-propagation slope
    return amplitude * np.exp(1j * (subcarrier_phases + phase))


class TestDifferentialPhase:
    def test_recovers_common_rotation(self):
        assert differential_phase(vector(0.0), vector(0.4)) == pytest.approx(
            0.4)

    def test_air_phase_cancels(self):
        """The subcarrier-dependent propagation phase must drop out."""
        reference = vector(0.0)
        rotated = vector(0.3)
        # Multiply both by an arbitrary per-subcarrier channel.
        channel = np.exp(1j * np.linspace(-2.0, 2.0, 8)) * 0.01
        assert differential_phase(reference * channel,
                                  rotated * channel) == pytest.approx(0.3)

    def test_wraps_correctly(self):
        assert differential_phase(vector(3.0), vector(-3.0)) == pytest.approx(
            2 * np.pi - 6.0, abs=1e-9)

    def test_averaging_beats_single_subcarrier(self):
        rng = np.random.default_rng(7)
        errors_single = []
        errors_avg = []
        for _ in range(200):
            noise = 0.2 * (rng.normal(size=8) + 1j * rng.normal(size=8))
            observed = vector(0.3) + noise
            errors_avg.append(differential_phase(vector(0.0), observed) - 0.3)
            errors_single.append(
                np.angle(observed[0] * np.conj(vector(0.0)[0])) - 0.3)
        assert np.std(errors_avg) < 0.6 * np.std(errors_single)

    def test_weighting_by_power(self):
        # A dead subcarrier should not corrupt the average.
        reference = vector(0.0)
        observed = vector(0.5)
        reference[3] = 1e-12
        observed[3] = -1e-12  # opposite phase but negligible power
        assert differential_phase(reference, observed) == pytest.approx(
            0.5, abs=1e-3)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(EstimationError):
            differential_phase(vector(0.0), vector(0.0, k=4))

    def test_rejects_zero_energy(self):
        zeros = np.zeros(8, dtype=complex)
        with pytest.raises(EstimationError):
            differential_phase(zeros, zeros)

    @settings(max_examples=40, deadline=None)
    @given(phase=st.floats(min_value=-3.0, max_value=3.0))
    def test_exact_for_noiseless_rotation(self, phase):
        assert differential_phase(vector(0.2), vector(0.2 + phase)
                                  ) == pytest.approx(phase, abs=1e-9)


class TestPhaseTrajectory:
    def make_matrix(self, phases):
        values = np.stack([vector(p) for p in phases])
        return HarmonicMatrix(tone=1e3, values=values,
                              group_times=np.arange(len(phases)) * 0.036)

    def test_relative_to_reference(self):
        matrix = self.make_matrix([0.1, 0.3, 0.6])
        trajectory = phase_trajectory(matrix)
        np.testing.assert_allclose(trajectory, [0.0, 0.2, 0.5], atol=1e-9)

    def test_unwraps_beyond_pi(self):
        phases = np.linspace(0.0, 3 * np.pi, 13)
        trajectory = phase_trajectory(self.make_matrix(phases))
        np.testing.assert_allclose(trajectory, phases, atol=1e-9)

    def test_reference_group_choice(self):
        matrix = self.make_matrix([0.1, 0.3, 0.6])
        trajectory = phase_trajectory(matrix, reference_group=1)
        assert trajectory[1] == pytest.approx(0.0)
        assert trajectory[2] == pytest.approx(0.3)

    def test_rejects_bad_reference(self):
        matrix = self.make_matrix([0.1, 0.3])
        with pytest.raises(EstimationError):
            phase_trajectory(matrix, reference_group=5)


class TestStabilityAndSnr:
    def test_constant_phase_is_stable(self):
        values = np.stack([vector(0.5)] * 6)
        matrix = HarmonicMatrix(1e3, values, np.arange(6) * 0.036)
        assert phase_stability_deg(matrix) == pytest.approx(0.0, abs=1e-9)

    def test_noisy_phase_less_stable(self, rng):
        noisy = np.stack([vector(0.5) + 0.1 * rng.normal(size=8)
                          for _ in range(12)])
        matrix = HarmonicMatrix(1e3, noisy, np.arange(12) * 0.036)
        assert phase_stability_deg(matrix) > 0.1

    def test_stability_needs_two_groups(self):
        matrix = HarmonicMatrix(1e3, vector(0.1)[None, :], np.zeros(1))
        with pytest.raises(EstimationError):
            phase_stability_deg(matrix)

    def test_snr_infinite_for_clean(self):
        values = np.stack([vector(0.5)] * 4)
        matrix = HarmonicMatrix(1e3, values, np.arange(4) * 0.036)
        assert harmonic_snr_db(matrix) == float("inf")

    def test_snr_finite_for_noisy(self, rng):
        noisy = np.stack([vector(0.5) + 0.05 * rng.normal(size=8)
                          for _ in range(12)])
        matrix = HarmonicMatrix(1e3, noisy, np.arange(12) * 0.036)
        snr = harmonic_snr_db(matrix)
        assert 10.0 < snr < 60.0
