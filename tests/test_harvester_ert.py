"""Energy-harvesting budget tests."""

import pytest

from repro.errors import ConfigurationError
from repro.sensor.harvester import EnergyHarvester, Rectifier
from repro.sensor.power import wiforce_power_budget


class TestRectifier:
    def test_efficiency_zero_at_zero_power(self):
        assert Rectifier().efficiency(0.0) == 0.0

    def test_efficiency_monotone(self):
        rectifier = Rectifier()
        powers = [1e-7, 1e-6, 1e-5, 1e-4]
        efficiencies = [rectifier.efficiency(p) for p in powers]
        assert all(b > a for a, b in zip(efficiencies, efficiencies[1:]))

    def test_efficiency_bounded_by_peak(self):
        rectifier = Rectifier(peak_efficiency=0.45)
        assert rectifier.efficiency(1.0) <= 0.45

    def test_half_point(self):
        rectifier = Rectifier(peak_efficiency=0.4,
                              half_efficiency_dbm=-10.0)
        assert rectifier.efficiency(1e-4) == pytest.approx(0.2, abs=1e-3)

    def test_rejects_bad_peak(self):
        with pytest.raises(ConfigurationError):
            Rectifier(peak_efficiency=0.0)


class TestEnergyHarvester:
    def test_incident_power_inverse_square(self):
        harvester = EnergyHarvester()
        near = harvester.incident_power(10.0, 6.0, 0.5, 900e6)
        far = harvester.incident_power(10.0, 6.0, 1.0, 900e6)
        assert near / far == pytest.approx(4.0, rel=1e-6)

    def test_battery_free_feasible_at_paper_geometry(self):
        """Section 6's claim: the sub-uW tag can run off the reader's
        own 10 dBm excitation at the Fig. 12 half-metre geometry."""
        harvester = EnergyHarvester()
        report = harvester.report(wiforce_power_budget(), 10.0, 6.0, 0.5,
                                  900e6)
        assert report.feasible
        assert report.margin > 2.0

    def test_infeasible_far_away(self):
        harvester = EnergyHarvester()
        report = harvester.report(wiforce_power_budget(), 10.0, 6.0, 40.0,
                                  900e6)
        assert not report.feasible

    def test_break_even_range_bracketed(self):
        harvester = EnergyHarvester()
        budget = wiforce_power_budget()
        rng = harvester.break_even_range(budget, 10.0, 6.0, 900e6)
        assert 0.5 < rng < 50.0
        at_range = harvester.report(budget, 10.0, 6.0, rng, 900e6)
        assert at_range.margin == pytest.approx(1.0, rel=0.05)

    def test_more_tx_power_more_range(self):
        harvester = EnergyHarvester()
        budget = wiforce_power_budget()
        low = harvester.break_even_range(budget, 10.0, 6.0, 900e6)
        high = harvester.break_even_range(budget, 20.0, 6.0, 900e6)
        assert high > low
