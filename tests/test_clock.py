"""Duty-cycled clocking tests (paper section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClockingError, ConfigurationError
from repro.sensor.clock import (
    ClockingScheme,
    DutyCycleClock,
    naive_clocking,
    wiforce_clocking,
)


class TestDutyCycleClock:
    def test_on_fraction_matches_duty(self):
        clock = DutyCycleClock(1e3, duty=0.25)
        t = (np.arange(40000) + 0.5) * (4e-3 / 40000)
        assert clock.is_on(t).mean() == pytest.approx(0.25, abs=1e-3)

    def test_phase_shifts_window(self):
        clock = DutyCycleClock(1e3, duty=0.25, phase=0.5)
        assert not clock.is_on(0.0)
        assert clock.is_on(0.55e-3)

    def test_period(self):
        assert DutyCycleClock(2e3, 0.25).period == pytest.approx(0.5e-3)

    def test_dc_coefficient_is_duty(self):
        clock = DutyCycleClock(1e3, duty=0.25)
        assert clock.fourier_coefficient(0) == pytest.approx(0.25)

    def test_fourier_against_fft(self):
        """Analytic coefficients match a numerical FFT of the indicator."""
        clock = DutyCycleClock(1e3, duty=0.25, phase=0.5)
        n = 65536
        t = (np.arange(n) + 0.5) / (n * clock.frequency)
        indicator = clock.is_on(t).astype(float)
        spectrum = np.fft.fft(indicator) / n
        for harmonic in (1, 2, 3, 5):
            expected = clock.fourier_coefficient(harmonic)
            assert spectrum[harmonic] == pytest.approx(expected, abs=2e-4)

    def test_quarter_duty_nulls_fourth_harmonic(self):
        """The duty-cycle null the whole scheme is built on."""
        clock = DutyCycleClock(1e3, duty=0.25)
        assert abs(clock.fourier_coefficient(4)) < 1e-12
        assert abs(clock.fourier_coefficient(8)) < 1e-12
        assert abs(clock.fourier_coefficient(1)) > 0.1

    def test_half_duty_nulls_even_harmonics(self):
        clock = DutyCycleClock(1e3, duty=0.5)
        assert abs(clock.fourier_coefficient(2)) < 1e-12
        assert abs(clock.fourier_coefficient(3)) > 0.05

    def test_rejects_bad_duty(self):
        with pytest.raises(ConfigurationError):
            DutyCycleClock(1e3, duty=0.0)
        with pytest.raises(ConfigurationError):
            DutyCycleClock(1e3, duty=1.0)

    def test_rejects_bad_phase(self):
        with pytest.raises(ConfigurationError):
            DutyCycleClock(1e3, duty=0.25, phase=1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ConfigurationError):
            DutyCycleClock(0.0, 0.25)

    @settings(max_examples=25, deadline=None)
    @given(duty=st.floats(min_value=0.05, max_value=0.95),
           phase=st.floats(min_value=0.0, max_value=0.99))
    def test_coefficient_magnitude_independent_of_phase(self, duty, phase):
        base = DutyCycleClock(1e3, duty=duty, phase=0.0)
        shifted = DutyCycleClock(1e3, duty=duty, phase=phase)
        assert abs(shifted.fourier_coefficient(1)) == pytest.approx(
            abs(base.fourier_coefficient(1)), abs=1e-12)


class TestWiForceScheme:
    def test_on_windows_disjoint(self):
        """The core requirement: both switches never on together."""
        scheme = wiforce_clocking(1e3)
        assert scheme.overlap_fraction() == 0.0

    def test_validates(self):
        wiforce_clocking(1e3).validate()

    def test_readout_tones(self):
        scheme = wiforce_clocking(1e3)
        assert scheme.readout_port1 == 1e3
        assert scheme.readout_port2 == 4e3

    def test_port2_tone_not_nulled(self):
        scheme = wiforce_clocking(1e3)
        harmonic = int(round(scheme.readout_port2
                             / scheme.clock_port2.frequency))
        assert abs(scheme.clock_port2.fourier_coefficient(harmonic)) > 0.05

    def test_port1_clock_has_no_energy_at_port2_tone(self):
        scheme = wiforce_clocking(1e3)
        assert abs(scheme.clock_port1.fourier_coefficient(4)) < 1e-12

    def test_scales_with_base_frequency(self):
        scheme = wiforce_clocking(2e3)
        assert scheme.readout_port2 == 8e3
        scheme.validate()

    def test_states_shape(self):
        scheme = wiforce_clocking(1e3)
        t = np.linspace(0.0, 1e-3, 100)
        on1, on2 = scheme.states(t)
        assert on1.shape == on2.shape == (100,)


class TestNaiveScheme:
    def test_overlaps(self):
        assert naive_clocking(1e3).overlap_fraction() > 0.2

    def test_validate_raises(self):
        with pytest.raises(ClockingError):
            naive_clocking(1e3).validate()


class TestSchemeValidation:
    def test_rejects_non_harmonic_tone(self):
        scheme = ClockingScheme(
            clock_port1=DutyCycleClock(1e3, 0.25, 0.0),
            clock_port2=DutyCycleClock(2e3, 0.25, 0.5),
            readout_port1=1.5e3,
            readout_port2=4e3,
        )
        with pytest.raises(ClockingError):
            scheme.validate()

    def test_rejects_nulled_tone(self):
        scheme = ClockingScheme(
            clock_port1=DutyCycleClock(1e3, 0.25, 0.0),
            clock_port2=DutyCycleClock(2e3, 0.25, 0.5),
            readout_port1=4e3,  # nulled by the 25% duty
            readout_port2=4e3,
        )
        with pytest.raises(ClockingError):
            scheme.validate()
