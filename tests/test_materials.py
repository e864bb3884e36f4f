"""Material database tests."""

import pytest

from repro.errors import ConfigurationError
from repro.mechanics.materials import (
    COPPER,
    ECOFLEX_0030,
    ECOFLEX_0050,
    GELATIN_PHANTOM,
    Material,
)


class TestMaterialValidation:
    def test_rejects_zero_modulus(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 0.0, 0.3, 1000.0)

    def test_rejects_negative_modulus(self):
        with pytest.raises(ConfigurationError):
            Material("bad", -1e9, 0.3, 1000.0)

    def test_rejects_poisson_half(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 1e9, 0.5, 1000.0)

    def test_rejects_negative_poisson(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 1e9, -0.1, 1000.0)

    def test_rejects_zero_density(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 1e9, 0.3, 0.0)

    def test_valid_material_constructs(self):
        material = Material("ok", 1e9, 0.3, 1000.0)
        assert material.youngs_modulus == 1e9


class TestLibraryValues:
    def test_copper_much_stiffer_than_ecoflex(self):
        assert COPPER.youngs_modulus / ECOFLEX_0030.youngs_modulus > 1e5

    def test_ecoflex_50_stiffer_than_30(self):
        assert ECOFLEX_0050.youngs_modulus > ECOFLEX_0030.youngs_modulus

    def test_ecoflex_nearly_incompressible(self):
        assert ECOFLEX_0030.poisson_ratio > 0.45

    def test_gelatin_soft(self):
        assert GELATIN_PHANTOM.youngs_modulus < 100e3

    def test_materials_are_frozen(self):
        with pytest.raises(Exception):
            COPPER.youngs_modulus = 1.0
