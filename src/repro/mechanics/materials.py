"""Material property database for the sensor mechanics.

Properties are quoted at room temperature.  Elastomer moduli are
small-strain tangent moduli; the contact solver only needs relative
stiffness ratios and a load-spreading length scale, so a linear-elastic
description is sufficient for the force range of the paper (0-8 N).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Material:
    """Linear-elastic material.

    Attributes:
        name: Human-readable identifier.
        youngs_modulus: Young's modulus E [Pa].
        poisson_ratio: Poisson's ratio (dimensionless, in [0, 0.5)).
        density: Mass density [kg/m^3].
    """

    name: str
    youngs_modulus: float
    poisson_ratio: float
    density: float

    def __post_init__(self) -> None:
        if self.youngs_modulus <= 0.0:
            raise ConfigurationError(
                f"{self.name}: Young's modulus must be positive, "
                f"got {self.youngs_modulus}"
            )
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ConfigurationError(
                f"{self.name}: Poisson ratio must be in [0, 0.5), "
                f"got {self.poisson_ratio}"
            )
        if self.density <= 0.0:
            raise ConfigurationError(
                f"{self.name}: density must be positive, got {self.density}"
            )

#: Smooth-On Ecoflex 00-30, the soft beam material of the prototype.
ECOFLEX_0030 = Material(
    name="ecoflex-00-30",
    youngs_modulus=125e3,
    poisson_ratio=0.49,
    density=1070.0,
)

#: Stiffer Ecoflex grade, used in ablations of beam softness.
ECOFLEX_0050 = Material(
    name="ecoflex-00-50",
    youngs_modulus=290e3,
    poisson_ratio=0.49,
    density=1070.0,
)

#: Rolled copper foil of the signal/ground traces.
COPPER = Material(
    name="copper",
    youngs_modulus=117e9,
    poisson_ratio=0.34,
    density=8960.0,
)

#: FR-4 used for rigid mock-ups in ablation experiments.
FR4 = Material(
    name="fr4",
    youngs_modulus=24e9,
    poisson_ratio=0.14,
    density=1850.0,
)

#: Gelatin tissue phantom bulk (mechanical, for indenter-through-phantom
#: scenarios; the RF properties live in repro.channel.tissue).
GELATIN_PHANTOM = Material(
    name="gelatin-phantom",
    youngs_modulus=20e3,
    poisson_ratio=0.45,
    density=1030.0,
)
