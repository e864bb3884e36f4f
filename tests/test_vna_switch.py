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

    def test_rejects_negative_insertion_loss(self):
        with pytest.raises(ConfigurationError):
            RFSwitch(insertion_loss_db=-1.0)

    def test_rejects_bad_off_magnitude(self):
        with pytest.raises(ConfigurationError):
            RFSwitch(off_reflection_magnitude=1.5)
