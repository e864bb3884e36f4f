"""Layered tissue phantom (paper section 5.2, Fig. 15).

The paper tests through a gelatin phantom with muscle / fat / skin
layers (25 / 10 / 2 mm) whose dielectric properties mimic human tissue.
Here the phantom is a normal-incidence layered-dielectric stack solved
with the standard transfer-matrix method, using Gabriel-database
dielectric values anchored at 900 MHz and 2.4 GHz (log-frequency
interpolated in between).  The complex transmission coefficient it
returns multiplies the tag path of the link budget, reproducing both
the tens-of-dB two-way loss and the extra (static) phase the
differential processing must cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.errors import ChannelError
from repro.units import EPSILON_0, ETA_0, SPEED_OF_LIGHT

FloatOrArray = Union[float, np.ndarray]

#: (relative permittivity, conductivity [S/m]) anchors per tissue at
#: 900 MHz and 2.4 GHz (Gabriel et al. dielectric database values).
_TISSUE_ANCHORS: Dict[str, Dict[float, Tuple[float, float]]] = {
    "muscle": {900e6: (55.0, 0.94), 2.4e9: (52.7, 1.74)},
    "fat": {900e6: (5.46, 0.051), 2.4e9: (5.28, 0.10)},
    "skin": {900e6: (41.4, 0.87), 2.4e9: (38.0, 1.46)},
    "gelatin": {900e6: (50.0, 0.8), 2.4e9: (48.0, 1.5)},
}


def _interpolate_anchor(anchors: Dict[float, Tuple[float, float]],
                        frequency: float) -> Tuple[float, float]:
    """Log-frequency interpolation between the two anchor points."""
    points = sorted(anchors.items())
    (f_low, (eps_low, sig_low)), (f_high, (eps_high, sig_high)) = points
    if frequency <= f_low:
        return eps_low, sig_low
    if frequency >= f_high:
        return eps_high, sig_high
    t = (math.log(frequency) - math.log(f_low)) / (
        math.log(f_high) - math.log(f_low))
    return (eps_low + t * (eps_high - eps_low),
            sig_low + t * (sig_high - sig_low))


@dataclass(frozen=True)
class TissueLayer:
    """One tissue slab.

    Attributes:
        name: Tissue type; must exist in the anchor table unless both
            dielectric overrides are given.
        thickness: Slab thickness [m].
        permittivity_override: Optional fixed relative permittivity.
        conductivity_override: Optional fixed conductivity [S/m].
    """

    name: str
    thickness: float
    permittivity_override: float = 0.0
    conductivity_override: float = -1.0

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise ChannelError(
                f"layer thickness must be positive, got {self.thickness}"
            )
        if (self.permittivity_override == 0.0
                and self.name not in _TISSUE_ANCHORS):
            raise ChannelError(
                f"unknown tissue {self.name!r}; known: "
                f"{sorted(_TISSUE_ANCHORS)}"
            )

    def complex_permittivity(self, frequency: float) -> complex:
        """Complex relative permittivity eps' - j sigma/(omega eps0)."""
        if frequency <= 0.0:
            raise ChannelError(f"frequency must be positive, got {frequency}")
        if self.permittivity_override > 0.0:
            permittivity = self.permittivity_override
            conductivity = max(self.conductivity_override, 0.0)
        else:
            permittivity, conductivity = _interpolate_anchor(
                _TISSUE_ANCHORS[self.name], frequency)
        omega = 2.0 * math.pi * frequency
        return permittivity - 1j * conductivity / (omega * EPSILON_0)


class TissuePhantom:
    """Stack of tissue layers between air half-spaces.

    Normal-incidence transfer-matrix solution: each layer contributes
    its characteristic impedance and complex electrical thickness; the
    stack's transmission coefficient is read from the total ABCD-like
    field matrix.
    """

    def __init__(self, layers: Sequence[TissueLayer]):
        self._layers = list(layers)
        if not self._layers:
            raise ChannelError("a phantom needs at least one layer")

    @property
    def layers(self) -> Tuple[TissueLayer, ...]:
        """The layer stack, TX side first."""
        return tuple(self._layers)

    def transmission_coefficient(self, frequency: FloatOrArray) -> np.ndarray:
        """Complex field transmission air -> stack -> air.

        Vectorized over frequency.  |t| < 1 gives the one-way loss; the
        phase carries the extra electrical length of the stack.
        """
        frequencies = np.atleast_1d(np.asarray(frequency, dtype=float))
        result = np.empty(frequencies.shape, dtype=complex)
        for index, f in enumerate(frequencies):
            if f <= 0.0:
                raise ChannelError(f"frequency must be positive, got {f}")
            omega = 2.0 * math.pi * f
            matrix = np.eye(2, dtype=complex)
            for layer in self._layers:
                eps = layer.complex_permittivity(float(f))
                refractive = np.sqrt(eps)
                wavenumber = omega / SPEED_OF_LIGHT * refractive
                impedance = ETA_0 / refractive
                kl = wavenumber * layer.thickness
                layer_matrix = np.array(
                    [[np.cos(kl), 1j * impedance * np.sin(kl)],
                     [1j * np.sin(kl) / impedance, np.cos(kl)]],
                    dtype=complex,
                )
                matrix = matrix @ layer_matrix
            a, b = matrix[0]
            c, d = matrix[1]
            denominator = a * ETA_0 + b + c * ETA_0 * ETA_0 + d * ETA_0
            result[index] = 2.0 * ETA_0 / denominator
        if np.isscalar(frequency):
            return result[0]
        return result.reshape(np.shape(frequency))

    def one_way_loss_db(self, frequency: float) -> float:
        """One-way power loss through the stack [dB] (positive)."""
        t = self.transmission_coefficient(float(frequency))
        magnitude = abs(complex(t))
        if magnitude <= 0.0:
            return float("inf")
        return -20.0 * math.log10(magnitude)

def body_phantom() -> TissuePhantom:
    """The paper's 3-layer phantom: 25 mm muscle, 10 mm fat, 2 mm skin."""
    return TissuePhantom([
        TissueLayer("muscle", 25e-3),
        TissueLayer("fat", 10e-3),
        TissueLayer("skin", 2e-3),
    ])
