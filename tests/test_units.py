"""Unit-conversion and constants tests."""

import math

import pytest

from repro import units


class TestLengthAndFrequency:
    def test_mm_is_metres(self):
        assert units.mm(1.0) == pytest.approx(1e-3)

    def test_us(self):
        assert units.us(57.6) == pytest.approx(57.6e-6)


class TestDecibels:
    def test_db_of_ten(self):
        assert units.db(10.0) == pytest.approx(10.0)

    def test_db_of_zero_is_neg_inf(self):
        assert units.db(0.0) == -math.inf

    def test_from_db_roundtrip(self):
        assert units.from_db(units.db(123.0)) == pytest.approx(123.0)

    def test_from_db_amplitude_roundtrip(self):
        assert units.from_db_amplitude(
            20.0 * math.log10(0.3)) == pytest.approx(0.3)

    def test_dbm_zero_is_one_milliwatt(self):
        assert units.dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_roundtrip(self):
        assert units.watts_to_dbm(units.dbm_to_watts(10.0)) == pytest.approx(10.0)

    def test_watts_to_dbm_of_zero(self):
        assert units.watts_to_dbm(0.0) == -math.inf


class TestWavelength:
    def test_900mhz_wavelength(self):
        assert units.wavelength(900e6) == pytest.approx(0.333, rel=1e-2)

    def test_dielectric_shortens_wavelength(self):
        assert units.wavelength(1e9, 4.0) == pytest.approx(
            units.wavelength(1e9) / 2.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            units.wavelength(0.0)

    def test_rejects_nonpositive_permittivity(self):
        with pytest.raises(ValueError):
            units.wavelength(1e9, 0.0)


class TestThermalNoise:
    def test_ktb_at_reference(self):
        power = units.thermal_noise_power(1.0)
        assert power == pytest.approx(units.BOLTZMANN * 290.0)

    def test_noise_figure_scales(self):
        base = units.thermal_noise_power(1e6)
        with_nf = units.thermal_noise_power(1e6, noise_figure_db=3.0)
        assert with_nf / base == pytest.approx(10 ** 0.3)

    def test_bandwidth_scales_linearly(self):
        assert units.thermal_noise_power(2e6) == pytest.approx(
            2 * units.thermal_noise_power(1e6))

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            units.thermal_noise_power(0.0)


class TestConstants:
    def test_free_space_impedance(self):
        assert units.ETA_0 == pytest.approx(376.73, rel=1e-4)

    def test_speed_of_light(self):
        assert units.SPEED_OF_LIGHT == pytest.approx(2.998e8, rel=1e-3)

    def test_eps0_mu0_consistency(self):
        c = 1.0 / math.sqrt(units.EPSILON_0 * units.MU_0)
        assert c == pytest.approx(units.SPEED_OF_LIGHT, rel=1e-6)
