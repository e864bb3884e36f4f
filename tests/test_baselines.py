"""Baseline-system tests (RFID touch, RSS strain)."""

import numpy as np
import pytest

from repro.baselines.rfid_touch import RFIDTouchArray
from repro.baselines.strain_rss import NotchReader, NotchStrainSensor
from repro.channel.multipath import indoor_channel
from repro.errors import ConfigurationError


class TestRFIDTouchArray:
    def test_touch_detected(self, rng):
        array = RFIDTouchArray(rng=rng)
        reading = array.read(2.0, 0.040)
        assert reading.touched

    def test_no_touch_without_force(self, rng):
        array = RFIDTouchArray(rng=rng)
        misfires = sum(array.read(0.0, 0.040).touched for _ in range(50))
        assert misfires <= 2

    def test_location_quantised_to_pitch(self, rng):
        array = RFIDTouchArray(tag_pitch=25e-3, rng=rng)
        reading = array.read(2.0, 0.040)
        assert reading.location in array._centres

    def test_errors_are_centimetre_class(self, rng):
        """The paper's comparison point: cm-level localization."""
        array = RFIDTouchArray(tag_pitch=25e-3, rng=rng)
        locations = list(np.linspace(0.005, 0.075, 15)) * 4
        errors = array.location_errors(locations)
        assert np.median(errors) > 2e-3

    def test_force_insensitive(self, rng):
        """Binary-touch nature: soft and hard presses read the same."""
        array = RFIDTouchArray(rng=rng)
        soft = [array.read(0.5, 0.040).tag_index for _ in range(20)]
        hard = [array.read(8.0, 0.040).tag_index for _ in range(20)]
        assert set(soft) == set(hard)

    def test_rejects_bad_pitch(self):
        with pytest.raises(ConfigurationError):
            RFIDTouchArray(length=10e-3, tag_pitch=25e-3)

    def test_rejects_location_outside(self, rng):
        with pytest.raises(ConfigurationError):
            RFIDTouchArray(rng=rng).read(1.0, 0.5)


class TestNotchStrainSensing:
    def test_notch_moves_with_strain(self):
        sensor = NotchStrainSensor()
        assert sensor.notch_frequency(0.05) < sensor.notch_frequency(0.0)

    def test_inversion_roundtrip(self):
        sensor = NotchStrainSensor()
        for strain in (0.01, 0.05, 0.1):
            notch = sensor.notch_frequency(strain)
            assert sensor.strain_from_notch(notch) == pytest.approx(strain)

    def test_transmission_minimum_at_notch(self):
        sensor = NotchStrainSensor()
        frequency = np.linspace(800e6, 950e6, 2001)
        response = sensor.transmission(frequency, 0.05)
        dip = frequency[np.argmin(response)]
        assert dip == pytest.approx(sensor.notch_frequency(0.05), rel=1e-3)

    def test_clean_channel_reads_accurately(self, rng):
        sensor = NotchStrainSensor()
        reader = NotchReader(sensor, 0.8e9, 0.95e9, rng=rng)
        errors = reader.strain_errors(np.linspace(0.02, 0.08, 8))
        assert np.median(errors) < 0.01

    def test_multipath_breaks_rss_sensing(self, rng):
        """The paper's section 8 critique, measured: indoor fading
        creates spurious minima that masquerade as notches."""
        sensor = NotchStrainSensor()
        reader = NotchReader(sensor, 0.8e9, 0.95e9, rng=rng)
        strains = np.linspace(0.02, 0.08, 8)
        clean = np.median(reader.strain_errors(strains))
        channel = indoor_channel(900e6, path_count=8,
                                 clutter_to_direct_db=3.0, rng=rng)
        faded = np.median(reader.strain_errors(strains, channel))
        assert faded > 3.0 * max(clean, 1e-4)

    def test_rejects_negative_strain(self):
        with pytest.raises(ConfigurationError):
            NotchStrainSensor().notch_frequency(-0.1)

    def test_rejects_bad_sweep(self, rng):
        with pytest.raises(ConfigurationError):
            NotchReader(NotchStrainSensor(), 1e9, 0.5e9, rng=rng)
