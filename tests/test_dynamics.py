"""Beam-dynamics tests: the phase-group stationarity argument."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanics.dynamics import (
    modal_summary,
    natural_frequencies,
    settling_time,
)


class TestNaturalFrequencies:
    def test_ascending(self, composite_beam):
        frequencies = natural_frequencies(composite_beam, modes=4)
        assert all(b > a for a, b in zip(frequencies, frequencies[1:]))

    def test_mode_scaling_without_foundation(self, composite_beam):
        """Euler-Bernoulli modes scale as n^2."""
        frequencies = natural_frequencies(composite_beam, modes=3)
        assert frequencies[1] / frequencies[0] == pytest.approx(4.0,
                                                                rel=1e-9)
        assert frequencies[2] / frequencies[0] == pytest.approx(9.0,
                                                                rel=1e-9)

    def test_foundation_raises_frequencies(self, composite_beam):
        bare = natural_frequencies(composite_beam, 1)[0]
        stiffened = natural_frequencies(composite_beam, 1,
                                        foundation_stiffness=3e3)[0]
        assert stiffened > bare

    def test_fundamental_in_tens_of_hz(self, composite_beam):
        """The sensor's mechanics live at tens of Hz — three orders of
        magnitude below the kHz switching, as the paper argues."""
        fundamental = natural_frequencies(composite_beam, 1,
                                          foundation_stiffness=3e3)[0]
        assert 5.0 < fundamental < 200.0

    def test_rejects_zero_modes(self, composite_beam):
        with pytest.raises(ConfigurationError):
            natural_frequencies(composite_beam, 0)


class TestSettlingTime:
    def test_formula(self):
        assert settling_time(10.0, 0.1) == pytest.approx(
            -np.log(0.02) / (0.1 * 2 * np.pi * 10.0))

    def test_more_damping_settles_faster(self):
        assert settling_time(10.0, 0.3) < settling_time(10.0, 0.1)

    def test_rejects_bad_damping(self):
        with pytest.raises(ConfigurationError):
            settling_time(10.0, 1.5)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            settling_time(10.0, 0.1, band=2.0)


class TestStationarity:
    def test_settling_much_slower_than_groups(self, composite_beam):
        """The section 3.3 assumption: forces settle over ~0.1-1 s
        while a phase group lasts 36 ms."""
        summary = modal_summary(composite_beam, foundation_stiffness=3e3)
        assert summary.settling_time / 0.036 > 2.0

    def test_summary_fields(self, composite_beam):
        summary = modal_summary(composite_beam, foundation_stiffness=3e3)
        assert summary.fundamental == summary.natural_frequencies[0]
        assert summary.settling_time > 0.0

