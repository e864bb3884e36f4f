"""Power-budget tests (paper's <1 uW claim and the Fig. 3 contrast)."""

import pytest

from repro.baselines.digital_backscatter import digital_backscatter_power_budget
from repro.errors import ConfigurationError
from repro.sensor.power import (
    cmos_switching_power,
    wiforce_power_budget,
)


class TestCmosSwitchingPower:
    def test_cv2f(self):
        assert cmos_switching_power(1e-12, 1.0, 1e6) == pytest.approx(1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            cmos_switching_power(-1e-12, 1.0, 1e6)


class TestWiForceBudget:
    def test_under_one_microwatt(self):
        """The paper's headline power claim (sections 1, 4.3)."""
        assert wiforce_power_budget().total_uw < 1.0

    def test_total_sums_parts(self):
        budget = wiforce_power_budget()
        assert budget.total == pytest.approx(
            budget.clock_generation + budget.switch_drive + budget.leakage)

    def test_scales_with_clock(self):
        slow = wiforce_power_budget(clock_frequency=1e3)
        fast = wiforce_power_budget(clock_frequency=10e3)
        assert fast.total > slow.total

    def test_leakage_floor(self):
        budget = wiforce_power_budget(clock_frequency=1.0, leakage=50e-9)
        assert budget.total >= 50e-9

    def test_rejects_bad_supply(self):
        with pytest.raises(ConfigurationError):
            wiforce_power_budget(supply_voltage=0.0)

    def test_rejects_negative_leakage(self):
        with pytest.raises(ConfigurationError):
            wiforce_power_budget(leakage=-1e-9)


class TestDigitalBudget:
    def test_digital_order_of_magnitude_higher(self):
        """Fig. 3's architectural contrast, quantified."""
        wiforce = wiforce_power_budget()
        digital = digital_backscatter_power_budget()
        assert digital.total / wiforce.total > 10.0

    def test_mcu_dominates(self):
        budget = digital_backscatter_power_budget()
        assert budget.mcu > budget.adc
        assert budget.mcu > budget.modulator

    def test_rejects_bad_duty(self):
        with pytest.raises(ConfigurationError):
            digital_backscatter_power_budget(mcu_duty=1.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            digital_backscatter_power_budget(sample_rate=0.0)

