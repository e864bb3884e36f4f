"""Gap-contact solver tests: the heart of the force transduction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.mechanics.beam import BeamSection, CompositeBeam
from repro.mechanics.contact import (
    ContactMap,
    ContactPatch,
    GapContactSolver,
    PressureKernel,
    _assembled_operator,
)
from repro.mechanics.materials import COPPER
from repro.sensor.fabrication import perturbed_design
from repro.sensor.geometry import default_sensor_design
from tests.oracles.fd_operator import dense_operator, to_banded

GAP = 0.63e-3


@pytest.fixture(scope="module")
def solver():
    design = default_sensor_design()
    return design.contact_solver(nodes=161)


class TestPressureKernel:
    def test_integrates_to_force(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        x = np.linspace(0.0, 0.08, 2001)
        pressure = kernel.pressure(x, 0.04, 3.0)
        assert np.trapezoid(pressure, x) == pytest.approx(3.0, rel=1e-6)

    def test_integrates_to_force_even_clipped_at_edge(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        x = np.linspace(0.0, 0.08, 2001)
        pressure = kernel.pressure(x, 0.002, 3.0)
        assert np.trapezoid(pressure, x) == pytest.approx(3.0, rel=1e-6)

    def test_zero_force_zero_pressure(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        x = np.linspace(0.0, 0.08, 101)
        assert np.all(kernel.pressure(x, 0.04, 0.0) == 0.0)

    def test_half_width_grows_with_force(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        assert kernel.half_width(8.0) > kernel.half_width(1.0)

    def test_pressure_centred_on_location(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        x = np.linspace(0.0, 0.08, 2001)
        pressure = kernel.pressure(x, 0.03, 2.0)
        assert abs(x[np.argmax(pressure)] - 0.03) < 1e-4

    def test_rejects_negative_force(self):
        kernel = PressureKernel.for_soft_layer(10e-3)
        with pytest.raises(ConfigurationError):
            kernel.half_width(-1.0)

    def test_rejects_bad_base_width(self):
        with pytest.raises(ConfigurationError):
            PressureKernel(base_half_width=0.0)


class TestContactPatch:
    def test_no_contact_width_zero(self):
        patch = ContactPatch(1.0, 0.04, None, None, 0.0)
        assert not patch.in_contact
        assert patch.width == 0.0

    def test_contact_width(self):
        patch = ContactPatch(1.0, 0.04, 0.03, 0.05, GAP)
        assert patch.in_contact
        assert patch.width == pytest.approx(0.02)


class TestGapContactSolver:
    def test_zero_force_no_contact(self, solver):
        patch = solver.solve(0.0, 0.04)
        assert not patch.in_contact
        assert patch.max_deflection == 0.0

    def test_large_force_makes_contact(self, solver):
        assert solver.solve(4.0, 0.04).in_contact

    def test_contact_edges_straddle_press_point(self, solver):
        patch = solver.solve(4.0, 0.04)
        assert patch.left < 0.04 < patch.right

    def test_contact_width_grows_with_force(self, solver):
        widths = [solver.solve(f, 0.04).width for f in (2.0, 4.0, 8.0)]
        assert widths[0] < widths[1] < widths[2]

    def test_centre_press_symmetric(self, solver):
        patch = solver.solve(4.0, 0.04)
        left_margin = 0.04 - patch.left
        right_margin = patch.right - 0.04
        assert left_margin == pytest.approx(right_margin, abs=1.5e-3)

    def test_off_centre_press_mirrors(self, solver):
        left_patch = solver.solve(4.0, 0.025)
        right_patch = solver.solve(4.0, 0.055)
        assert left_patch.left == pytest.approx(0.08 - right_patch.right,
                                                abs=1.5e-3)
        assert left_patch.right == pytest.approx(0.08 - right_patch.left,
                                                 abs=1.5e-3)

    def test_deflection_capped_near_gap(self, solver):
        patch = solver.solve(6.0, 0.04)
        assert patch.max_deflection <= solver.gap * 1.01

    def test_supports_never_in_contact(self, solver):
        patch = solver.solve(8.0, 0.04)
        assert patch.left > 0.0
        assert patch.right < solver.beam.length

    def test_rejects_negative_force(self, solver):
        with pytest.raises(ConfigurationError):
            solver.solve(-1.0, 0.04)

    def test_rejects_location_outside(self, solver):
        with pytest.raises(ConfigurationError):
            solver.solve(1.0, 0.2)

    def test_rejects_too_few_nodes(self, composite_beam):
        with pytest.raises(ConfigurationError):
            GapContactSolver(composite_beam, GAP,
                             PressureKernel.for_soft_layer(10e-3), nodes=8)

    def test_rejects_nonpositive_gap(self, composite_beam):
        with pytest.raises(ConfigurationError):
            GapContactSolver(composite_beam, 0.0,
                             PressureKernel.for_soft_layer(10e-3))

    def test_grid_is_readonly(self, solver):
        with pytest.raises(ValueError):
            solver.grid[0] = 1.0

    @settings(max_examples=20, deadline=None)
    @given(force=st.floats(min_value=1.0, max_value=8.0),
           location=st.floats(min_value=0.015, max_value=0.065))
    def test_contact_region_contains_press(self, solver, force, location):
        # At low force near the beam ends first contact can form a few
        # millimetres inboard of the press (global bending), so allow a
        # tolerance of half the soft-layer spread.
        patch = solver.solve(force, location)
        if patch.in_contact:
            assert patch.left - 5e-3 <= location <= patch.right + 5e-3

    @settings(max_examples=12, deadline=None)
    @given(location=st.floats(min_value=0.02, max_value=0.06))
    def test_width_monotone_in_force(self, solver, location):
        small = solver.solve(2.0, location).width
        large = solver.solve(7.0, location).width
        assert large >= small


class TestOperatorAssembly:
    def test_equal_solvers_share_one_operator(self):
        """The bending operator depends only on (grid, EI, k_f), so
        equal discretisations reuse one assembly across instances."""
        design = default_sensor_design()
        a = design.contact_solver(nodes=161)
        b = design.contact_solver(nodes=161)
        assert a._banded is b._banded

    def test_shared_operator_is_read_only(self):
        design = default_sensor_design()
        solver = design.contact_solver(nodes=161)
        with pytest.raises(ValueError):
            solver._banded[0, 0] = 1.0

    @pytest.mark.parametrize("nodes, dx, bending_stiffness, foundation", [
        (16, 80e-3 / 15, 0.0004195193030043192, 0.0),
        (161, 0.0005, 0.0004195193030043192, 3000.0),
        (321, 0.00025, 0.0004195193030043192, 3000.0),
        (321, 0.00025, 2.7e-6, 37.5e3),
        (1001, 1e-4, 1.3e-2, 1e9),
    ])
    def test_banded_assembly_matches_dense_oracle(self, nodes, dx,
                                                  bending_stiffness,
                                                  foundation):
        """The (5, n) operator assembled in place holds the numbers the
        dense matrix packed diagonal by diagonal did, bit for bit."""
        banded = _assembled_operator.__wrapped__(nodes, dx,
                                                 bending_stiffness,
                                                 foundation)
        reference = to_banded(dense_operator(nodes, dx, bending_stiffness,
                                             foundation))
        assert banded.shape == (5, nodes)
        assert banded.dtype == reference.dtype
        assert banded.tobytes() == reference.tobytes()

    def test_toleranced_units_hold_no_dense_operator(self):
        """A Monte-Carlo campaign builds a solver per fabricated unit,
        each with its own (EI, k_f): the cached operators stay a few
        kilobytes each instead of one dense n x n matrix per unit."""
        rng = np.random.default_rng(24)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solvers = [perturbed_design(rng=rng).contact_solver()
                       for _ in range(80)]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len({id(solver._banded) for solver in solvers}) == 80
        assert grown < 4 * 1024 * 1024

    def test_distinct_grids_get_distinct_operators(self):
        design = default_sensor_design()
        a = design.contact_solver(nodes=161)
        b = design.contact_solver(nodes=321)
        assert a._banded is not b._banded

    def test_solves_unchanged_by_sharing(self, solver):
        """Interleaved solves on two solvers sharing one operator
        match a fresh solver's results exactly."""
        design = default_sensor_design()
        other = design.contact_solver(nodes=161)
        first = solver.solve(3.0, 0.045)
        other.solve(7.0, 0.02)
        second = solver.solve(3.0, 0.045)
        assert first == second


class TestThinTraceContrast:
    def test_thin_trace_contact_barely_moves(self):
        """The Fig. 4 claim: without the soft beam the shorting points
        are nearly force-invariant."""
        trace = CompositeBeam(
            [BeamSection(COPPER, width=2.5e-3, thickness=35e-6)],
            length=80e-3)
        point_like = PressureKernel(base_half_width=0.2e-3,
                                    hertz_coefficient=0.0)
        solver = GapContactSolver(trace, GAP, point_like,
                                  nodes=161, foundation_stiffness=37.5e3)
        soft_solver = default_sensor_design().contact_solver(nodes=161)
        thin_travel = (solver.solve(6.0, 0.04).width
                       - solver.solve(1.0, 0.04).width)
        soft_travel = (soft_solver.solve(6.0, 0.04).width
                       - soft_solver.solve(1.0, 0.04).width)
        assert soft_travel > 4.0 * max(thin_travel, 1e-6)


class TestContactMap:
    @pytest.fixture(scope="class")
    def contact_map(self, solver=None):
        design = default_sensor_design()
        return ContactMap(design.contact_solver(nodes=161), max_force=9.0,
                          force_points=12, location_points=13)

    def test_interpolation_close_to_exact(self, contact_map):
        design = default_sensor_design()
        solver = design.contact_solver(nodes=161)
        exact = solver.solve(3.0, 0.045)
        approx = contact_map.edges(3.0, 0.045)
        assert approx.left == pytest.approx(exact.left, abs=1.5e-3)
        assert approx.right == pytest.approx(exact.right, abs=1.5e-3)

    def test_zero_force_no_contact(self, contact_map):
        assert not contact_map.edges(0.0, 0.04).in_contact

    def test_below_threshold_no_contact(self, contact_map):
        assert not contact_map.edges(1e-4, 0.04).in_contact

    def test_clips_to_grid(self, contact_map):
        patch = contact_map.edges(50.0, 0.04)
        assert patch.in_contact
        assert patch.width <= 0.08

    def test_rejects_negative_force(self, contact_map):
        with pytest.raises(ConfigurationError):
            contact_map.edges(-1.0, 0.04)
