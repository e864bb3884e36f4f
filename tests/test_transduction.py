"""Force-to-phase transduction tests (paper section 3.1, Figs. 4-5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SensorError
from repro.sensor.geometry import (
    SensorDesign,
    thin_trace_design,
)


class TestSensorDesign:
    def test_default_dimensions_match_paper(self, design):
        assert design.line.width == pytest.approx(2.5e-3)
        assert design.line.ground_width == pytest.approx(6e-3)
        assert design.line.height == pytest.approx(0.63e-3)
        assert design.length == pytest.approx(80e-3)

    def test_default_switch_is_reflective(self, design):
        assert design.switch.is_reflective

    def test_composite_beam_layers(self, design):
        beam = design.composite_beam()
        assert len(beam.layers) == 2
        assert beam.length == design.length

    def test_foundation_positive(self, design):
        assert design.foundation_stiffness() > 0.0

    def test_thin_trace_kernel_narrow(self):
        thin = thin_trace_design()
        assert thin.pressure_kernel().half_width(8.0) < 2e-3

    def test_rejects_bad_soft_thickness(self):
        with pytest.raises(ConfigurationError):
            SensorDesign(soft_thickness=0.0)

    def test_rejects_bad_contact_resistance(self):
        with pytest.raises(ConfigurationError):
            SensorDesign(contact_resistance=-1.0)

    def test_contact_solver_uses_design_gap(self, design):
        solver = design.contact_solver(nodes=41)
        assert solver.gap == design.line.height


class TestDifferentialPhases:
    def test_no_force_no_phase(self, transducer):
        phases = transducer.differential_phases(900e6, 0.0, 0.04)
        assert not phases.in_contact
        assert phases.port1 == 0.0
        assert phases.port2 == 0.0

    def test_contact_produces_phase_jump(self, transducer):
        phases = transducer.differential_phases(900e6, 3.0, 0.04)
        assert phases.in_contact
        assert abs(phases.port1) > np.radians(5.0)

    def test_centre_press_symmetric(self, transducer):
        """Fig. 5: a centre press shows the same phase at both ports."""
        phases = transducer.differential_phases(2.4e9, 3.0, 0.04)
        assert phases.port1 == pytest.approx(phases.port2, abs=np.radians(3.0))

    def test_mirrored_presses_swap_ports(self, transducer):
        left = transducer.differential_phases(2.4e9, 3.0, 0.025)
        right = transducer.differential_phases(2.4e9, 3.0, 0.055)
        assert left.port1 == pytest.approx(right.port2, abs=np.radians(4.0))
        assert left.port2 == pytest.approx(right.port1, abs=np.radians(4.0))

    def test_phase_varies_with_force(self, transducer):
        low = transducer.differential_phases(2.4e9, 1.0, 0.04)
        high = transducer.differential_phases(2.4e9, 7.0, 0.04)
        assert abs(high.port1 - low.port1) > np.radians(10.0)

    def test_phase_varies_with_location(self, transducer):
        a = transducer.differential_phases(2.4e9, 3.0, 0.030)
        b = transducer.differential_phases(2.4e9, 3.0, 0.050)
        assert abs(a.port1 - b.port1) > np.radians(10.0)

    def test_higher_carrier_more_phase_sensitivity(self, transducer):
        """The paper's explanation for the 2.4 GHz accuracy win."""
        low = [transducer.differential_phases(900e6, f, 0.04).port1
               for f in (2.0, 6.0)]
        high = [transducer.differential_phases(2.4e9, f, 0.04).port1
                for f in (2.0, 6.0)]
        assert abs(high[1] - high[0]) > 1.5 * abs(low[1] - low[0])

    def test_rejects_negative_force(self, transducer):
        with pytest.raises(SensorError):
            transducer.differential_phases(900e6, -1.0, 0.04)


class TestShortingPoints:
    def test_none_without_force(self, transducer):
        assert transducer.shorting_points(0.0, 0.04) is None

    def test_ordered_points(self, transducer):
        points = transducer.shorting_points(4.0, 0.04)
        assert points is not None
        assert points[0] < points[1]

    def test_spread_grows_with_force(self, transducer):
        small = transducer.shorting_points(2.0, 0.04)
        large = transducer.shorting_points(7.0, 0.04)
        assert (large[1] - large[0]) > (small[1] - small[0])

    def test_touched_twoport_blocks_transmission(self, transducer):
        network = transducer.touched_twoport(np.array([900e6]), 4.0, 0.04)
        assert abs(network.s21[0]) < 0.1

    def test_untouched_twoport_transparent(self, transducer):
        network = transducer.untouched_twoport(np.array([900e6]))
        assert abs(network.s21[0]) > 0.9

    def test_port_reflections_magnitudes(self, transducer):
        gamma1, gamma2 = transducer.port_reflections(np.array([900e6]),
                                                     4.0, 0.04)
        assert abs(gamma1[0]) > 0.8
        assert abs(gamma2[0]) > 0.8

    def test_max_force_property(self, transducer):
        assert transducer.max_force >= 8.0
