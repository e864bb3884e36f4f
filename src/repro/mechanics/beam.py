"""Euler-Bernoulli beam models for the sensor's top structure.

The sensor's top structure is a composite beam: a thin copper signal
trace bonded under a thick soft elastomer beam.  The composite bends
under a contact force and its underside (the trace) closes the air gap
to the ground trace.  This module provides the section properties and
the composite's bending stiffness; the finite-difference contact
solver (:mod:`repro.mechanics.contact`) computes the deflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.mechanics.materials import Material


@dataclass(frozen=True)
class BeamSection:
    """One rectangular layer of a laminated beam cross-section.

    Attributes:
        material: Layer material.
        width: Layer width [m] (transverse to the beam axis).
        thickness: Layer thickness [m] (stacking direction).
    """

    material: Material
    width: float
    thickness: float

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.thickness <= 0.0:
            raise ConfigurationError(
                f"beam section dimensions must be positive, got "
                f"width={self.width}, thickness={self.thickness}"
            )

    @property
    def area(self) -> float:
        """Cross-section area [m^2]."""
        return self.width * self.thickness

    @property
    def self_inertia(self) -> float:
        """Second moment of area about the layer's own centroid [m^4]."""
        return self.width * self.thickness ** 3 / 12.0


class CompositeBeam:
    """Laminated (layered) beam with transformed-section bending stiffness.

    Layers are stacked bottom-up in the order given.  The effective
    bending stiffness EI is computed with the transformed-section method
    about the modulus-weighted neutral axis, which is the standard way
    to treat a metal trace bonded to an elastomer slab.
    """

    def __init__(self, layers: Iterable[BeamSection], length: float):
        self._layers: List[BeamSection] = list(layers)
        if not self._layers:
            raise ConfigurationError("a composite beam needs at least one layer")
        if length <= 0.0:
            raise ConfigurationError(f"beam length must be positive, got {length}")
        self._length = float(length)
        self._bending_stiffness = self._transformed_section()

    def _transformed_section(self) -> float:
        """EI [N m^2] about the modulus-weighted neutral axis."""
        heights = []
        z = 0.0
        for layer in self._layers:
            heights.append((z, z + layer.thickness))
            z += layer.thickness
        weights = [
            layer.material.youngs_modulus * layer.area for layer in self._layers
        ]
        centroids = [0.5 * (lo + hi) for lo, hi in heights]
        neutral = sum(w * c for w, c in zip(weights, centroids)) / sum(weights)
        stiffness = 0.0
        for layer, (lo, hi) in zip(self._layers, heights):
            centroid = 0.5 * (lo + hi)
            stiffness += layer.material.youngs_modulus * (
                layer.self_inertia + layer.area * (centroid - neutral) ** 2
            )
        return stiffness

    @property
    def layers(self) -> Tuple[BeamSection, ...]:
        """The layer stack, bottom-up."""
        return tuple(self._layers)

    @property
    def length(self) -> float:
        """Beam span [m]."""
        return self._length

    @property
    def bending_stiffness(self) -> float:
        """Effective bending stiffness EI [N m^2]."""
        return self._bending_stiffness

    @property
    def mass_per_length(self) -> float:
        """Mass per unit length [kg/m]."""
        return sum(layer.material.density * layer.area for layer in self._layers)
