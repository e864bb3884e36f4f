"""RF switch model tests."""

import pytest

from repro.errors import ConfigurationError
from repro.rf.switch import ABSORPTIVE_SWITCH, HMC544AE, RFSwitch


class TestRFSwitch:
    def test_hmc544_is_reflective(self):
        assert HMC544AE.is_reflective

    def test_absorptive_is_not(self):
        assert not ABSORPTIVE_SWITCH.is_reflective

    def test_off_reflection_magnitude(self):
        assert abs(HMC544AE.off_reflection) == pytest.approx(0.95)

    def test_branch_off_reflection_small(self):
        assert abs(HMC544AE.branch_off_reflection) == pytest.approx(
            10 ** (-30.0 / 20.0))

    def test_through_gain_from_insertion_loss(self):
        switch = RFSwitch(insertion_loss_db=6.0)
        assert switch.through_gain == pytest.approx(0.501, rel=1e-3)

    def test_max_toggle_frequency(self):
        switch = RFSwitch(switching_time=100e-9)
        assert switch.max_toggle_frequency(0.01) == pytest.approx(50e3)

    def test_kilohertz_clocks_feasible(self):
        """The paper's 1-2 kHz clocks are far below the switch limit."""
        assert HMC544AE.max_toggle_frequency() > 10e3

    def test_rejects_negative_insertion_loss(self):
        with pytest.raises(ConfigurationError):
            RFSwitch(insertion_loss_db=-1.0)

    def test_rejects_bad_off_magnitude(self):
        with pytest.raises(ConfigurationError):
            RFSwitch(off_reflection_magnitude=1.5)

    def test_rejects_bad_settle_fraction(self):
        with pytest.raises(ConfigurationError):
            RFSwitch().max_toggle_frequency(settle_fraction=2.0)
