"""Microstrip model tests (paper section 4.1 / Appendix / Fig. 19)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rf.microstrip import (
    MicrostripLine,
    air_microstrip_impedance,
    synthesize_ratio_for_impedance,
    wide_ground_effective_width,
)
from repro.units import SPEED_OF_LIGHT


class TestImpedanceFormula:
    def test_narrower_trace_higher_impedance(self):
        assert (air_microstrip_impedance(1e-3, 1e-3)
                > air_microstrip_impedance(1e-3, 5e-3))

    def test_taller_line_higher_impedance(self):
        assert (air_microstrip_impedance(2e-3, 2e-3)
                > air_microstrip_impedance(1e-3, 2e-3))

    def test_five_to_one_near_fifty_ohm(self):
        """The Appendix claim: w/h ~ 5 gives ~50 ohm for an air line."""
        impedance = air_microstrip_impedance(1e-3, 4.9e-3)
        assert impedance == pytest.approx(50.0, abs=1.0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigurationError):
            air_microstrip_impedance(0.0, 1e-3)
        with pytest.raises(ConfigurationError):
            air_microstrip_impedance(1e-3, -1e-3)


class TestWideGround:
    def test_wide_ground_widens_effective_trace(self):
        effective = wide_ground_effective_width(2.5e-3, 0.63e-3, 6e-3)
        assert effective > 2.5e-3

    def test_no_overhang_no_widening(self):
        effective = wide_ground_effective_width(2.5e-3, 0.63e-3, 2.5e-3)
        assert effective == pytest.approx(2.5e-3)

    def test_widening_saturates(self):
        wide = wide_ground_effective_width(2.5e-3, 0.63e-3, 10e-3)
        wider = wide_ground_effective_width(2.5e-3, 0.63e-3, 100e-3)
        assert wider - wide < 0.05e-3

    def test_rejects_ground_narrower_than_trace(self):
        with pytest.raises(ConfigurationError):
            wide_ground_effective_width(2.5e-3, 0.63e-3, 1e-3)


class TestRatioSynthesis:
    def test_narrow_ground_ratio_near_five(self):
        """Fig. 19 / Appendix: ideal ratio ~5:1 with narrow ground."""
        ratio = synthesize_ratio_for_impedance(50.0, 1.0)
        assert ratio == pytest.approx(5.0, abs=0.4)

    def test_wide_ground_ratio_near_four(self):
        """Fig. 19: ratio shifts to ~4:1 once the ground is widened."""
        ratio = synthesize_ratio_for_impedance(50.0, 2.4)
        assert ratio == pytest.approx(4.0, abs=0.4)

    def test_synthesis_inverts_analysis(self):
        height = 0.63e-3
        ratio = synthesize_ratio_for_impedance(60.0, 1.0, height)
        width = ratio * height
        assert air_microstrip_impedance(
            height, wide_ground_effective_width(width, height, width)
        ) == pytest.approx(60.0, abs=0.01)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ConfigurationError):
            synthesize_ratio_for_impedance(0.0)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ConfigurationError):
            synthesize_ratio_for_impedance(50.0, 0.5)


class TestMicrostripLine:
    def test_prototype_impedance_near_fifty(self, line):
        """The paper's 2.5 mm / 6 mm / 0.63 mm prototype is ~50 ohm."""
        assert line.characteristic_impedance == pytest.approx(50.0, abs=2.0)

    def test_air_substrate_velocity_is_c(self, line):
        assert line.phase_velocity == pytest.approx(SPEED_OF_LIGHT)

    def test_phase_constant_formula(self, line):
        beta = line.phase_constant(900e6)
        assert beta == pytest.approx(2 * np.pi * 900e6 / SPEED_OF_LIGHT)

    def test_phase_constant_vectorized(self, line):
        beta = line.phase_constant(np.array([900e6, 2.4e9]))
        assert beta.shape == (2,)
        assert beta[1] > beta[0]

    def test_phase_sensitivity_at_2_4ghz(self, line):
        """~5.8 deg of round-trip phase per mm of shorting-point shift."""
        per_mm = np.degrees(2.0 * line.phase_constant(2.4e9) * 1e-3)
        assert per_mm == pytest.approx(5.76, abs=0.1)

    def test_loss_grows_with_frequency(self, line):
        assert (line.attenuation_constant(2.4e9)
                > line.attenuation_constant(900e6))

    def test_loss_small_over_sensor_length(self, line):
        # The 80 mm air line loses well under 1 dB at 3 GHz.
        nepers = float(line.attenuation_constant(3e9)) * line.length
        assert nepers * 8.686 < 1.0

    def test_propagation_constant_combines(self, line):
        gamma = line.propagation_constant(900e6)
        assert gamma.real == pytest.approx(
            float(line.attenuation_constant(900e6)))
        assert gamma.imag == pytest.approx(float(line.phase_constant(900e6)))

    def test_rejects_ground_narrower_than_trace(self):
        with pytest.raises(ConfigurationError):
            MicrostripLine(width=5e-3, ground_width=2e-3)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ConfigurationError):
            MicrostripLine(height=0.0)
