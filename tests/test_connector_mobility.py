"""Moving-clutter model tests."""

import pytest

from repro.channel.mobility import (
    clutter_rejection_db,
    doppler_shift,
    equivalent_speed,
    walking_person_clutter,
)
from repro.errors import ChannelError
from repro.units import SPEED_OF_LIGHT


class TestDopplerEquivalence:
    def test_doppler_formula(self):
        assert doppler_shift(1.0, 900e6) == pytest.approx(
            2 * 900e6 / SPEED_OF_LIGHT)

    def test_equivalent_speed_enormous(self):
        """Section 3.3: the 1 kHz tone equals a reflector at ~170 m/s
        — two orders of magnitude beyond indoor motion."""
        speed = equivalent_speed(1e3, 900e6)
        assert speed > 100.0

    def test_inverse_relation(self):
        speed = equivalent_speed(1e3, 900e6)
        assert doppler_shift(speed, 900e6) == pytest.approx(1e3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ChannelError):
            equivalent_speed(0.0, 900e6)
        with pytest.raises(ChannelError):
            doppler_shift(1.0, 0.0)


class TestWalkingClutter:
    def test_not_static(self, rng):
        clutter = walking_person_clutter(900e6, rng=rng)
        assert any(path.doppler != 0.0 for path in clutter.paths)

    def test_dopplers_are_low_frequency(self, rng):
        """Human motion stays far below the kHz readout tones."""
        clutter = walking_person_clutter(900e6, speed=2.0, rng=rng)
        assert all(abs(path.doppler) < 100.0 for path in clutter.paths)

    def test_total_amplitude(self, rng):
        clutter = walking_person_clutter(900e6,
                                         reflection_amplitude=1e-3,
                                         rng=rng)
        total = sum(abs(path.gain) for path in clutter.paths)
        assert total == pytest.approx(1e-3, rel=1e-6)

    def test_rejects_negative_speed(self, rng):
        with pytest.raises(ChannelError):
            walking_person_clutter(900e6, speed=-1.0, rng=rng)


class TestClutterRejection:
    def test_strong_rejection_at_tone(self):
        """A 10 Hz walker is >40 dB down in the 1 kHz bin for the
        paper's 625-snapshot groups."""
        rejection = clutter_rejection_db(1e3, 10.0, 625, 57.6e-6)
        assert rejection > 40.0

    def test_zero_offset_no_rejection(self):
        assert clutter_rejection_db(1e3, 1e3, 625, 57.6e-6) == pytest.approx(
            0.0, abs=0.1)

    def test_rejection_improves_with_group_length(self):
        short = clutter_rejection_db(1e3, 100.0, 125, 57.6e-6)
        long = clutter_rejection_db(1e3, 100.0, 1250, 57.6e-6)
        assert long > short

    def test_rejects_bad_group(self):
        with pytest.raises(ChannelError):
            clutter_rejection_db(1e3, 10.0, 1, 57.6e-6)
