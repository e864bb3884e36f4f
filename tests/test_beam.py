"""Composite-beam section tests."""

import pytest

from repro.errors import ConfigurationError
from repro.mechanics.beam import BeamSection, CompositeBeam
from repro.mechanics.materials import COPPER, ECOFLEX_0030


class TestBeamSection:
    def test_area(self):
        section = BeamSection(COPPER, width=2e-3, thickness=1e-3)
        assert section.area == pytest.approx(2e-6)

    def test_self_inertia(self):
        section = BeamSection(COPPER, width=12e-3, thickness=1e-3)
        assert section.self_inertia == pytest.approx(1e-12)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            BeamSection(COPPER, width=0.0, thickness=1e-3)

    def test_rejects_negative_thickness(self):
        with pytest.raises(ConfigurationError):
            BeamSection(COPPER, width=1e-3, thickness=-1e-3)


class TestCompositeBeam:
    def test_single_layer_matches_ei(self):
        section = BeamSection(COPPER, width=10e-3, thickness=2e-3)
        beam = CompositeBeam([section], length=0.1)
        expected = COPPER.youngs_modulus * section.self_inertia
        assert beam.bending_stiffness == pytest.approx(expected)

    def test_composite_stiffer_than_either_layer(self, composite_beam):
        copper_only = CompositeBeam(
            [BeamSection(COPPER, width=2.5e-3, thickness=35e-6)], length=80e-3)
        soft_only = CompositeBeam(
            [BeamSection(ECOFLEX_0030, width=10e-3, thickness=10e-3)],
            length=80e-3)
        assert composite_beam.bending_stiffness > copper_only.bending_stiffness
        assert composite_beam.bending_stiffness > soft_only.bending_stiffness

    def test_mass_per_length_positive(self, composite_beam):
        assert composite_beam.mass_per_length > 0.0

    def test_rejects_empty_layers(self):
        with pytest.raises(ConfigurationError):
            CompositeBeam([], length=0.1)

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            CompositeBeam(
                [BeamSection(COPPER, width=1e-3, thickness=1e-3)], length=0.0)

    def test_layers_exposed_as_tuple(self, composite_beam):
        assert len(composite_beam.layers) == 2

