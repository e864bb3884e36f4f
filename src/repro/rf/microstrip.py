"""Quasi-static microstrip line model (paper section 4.1 and Appendix).

The sensor is an air-substrate microstrip: signal trace of width ``w``
suspended a height ``h`` over the ground trace.  The paper sizes it from
Steer's air-line impedance formula::

    Z = 60 ln[ 6h/w + sqrt(1 + (2h/w)^2) ]

which gives a 50-ohm trace-width-to-height ratio of about 5:1, shifting
to about 4:1 once the ground trace is widened for SMA interfacing
(their HFSS result, Fig. 19).  The wide-ground shift is modelled here as
extra fringing capacitance, i.e. an effective widening of the signal
trace that saturates once the ground extends a few heights past the
trace edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MU_0, SPEED_OF_LIGHT

FloatOrArray = Union[float, np.ndarray]

#: Copper resistivity [ohm m] for conductor-loss estimates.
COPPER_RESISTIVITY = 1.68e-8

#: Fringing-widening strength of a wide ground plane, fitted so the
#: optimal 50-ohm ratio shifts from ~5:1 to ~4:1 for the paper's
#: geometry (2.5 mm trace, 6 mm ground, 0.63 mm height).
_WIDE_GROUND_GAIN = 1.4

#: Lengths scale (in units of height) over which the wide-ground
#: fringing saturates.
_WIDE_GROUND_SCALE = 4.0


def air_microstrip_impedance(height: float, width: float) -> float:
    """Characteristic impedance [ohm] of an air-substrate microstrip.

    Steer's formula (paper Appendix): valid for the suspended air line
    used by the sensor, with ``height`` the air gap h and ``width`` the
    signal trace width w.
    """
    if height <= 0.0 or width <= 0.0:
        raise ConfigurationError(
            f"height and width must be positive, got h={height}, w={width}"
        )
    ratio = height / width
    return 60.0 * math.log(6.0 * ratio + math.sqrt(1.0 + (2.0 * ratio) ** 2))


def wide_ground_effective_width(width: float, height: float,
                                ground_width: float) -> float:
    """Effective trace width [m] once a wide ground adds fringing.

    A ground trace wider than the signal trace adds fringing
    capacitance, which acts like a wider signal trace.  The widening
    saturates once the ground extends ``_WIDE_GROUND_SCALE`` heights
    beyond the trace (semi-empirical fit to the paper's HFSS sweep,
    Fig. 19).
    """
    if ground_width < width:
        raise ConfigurationError(
            f"ground width {ground_width} must be >= trace width {width}"
        )
    overhang = (ground_width - width) / (_WIDE_GROUND_SCALE * height)
    return width + _WIDE_GROUND_GAIN * height * (1.0 - math.exp(-overhang))


def synthesize_ratio_for_impedance(target_impedance: float = 50.0,
                                   ground_width_ratio: float = 1.0,
                                   height: float = 0.63e-3) -> float:
    """Trace-width-to-height ratio w/h giving the target impedance.

    With ``ground_width_ratio`` = 1 (ground no wider than the trace)
    this returns the classical ~5:1; with the paper's wide ground
    (ground_width_ratio = 6 mm / 2.5 mm = 2.4) it returns ~4:1.
    Solved by bisection on the monotone impedance-vs-width relation.
    """
    if target_impedance <= 0.0:
        raise ConfigurationError(
            f"target impedance must be positive, got {target_impedance}"
        )
    if ground_width_ratio < 1.0:
        raise ConfigurationError(
            f"ground width ratio must be >= 1, got {ground_width_ratio}"
        )

    def impedance_at(width_ratio: float) -> float:
        width = width_ratio * height
        effective = wide_ground_effective_width(
            width, height, ground_width_ratio * width)
        return air_microstrip_impedance(height, effective)

    low, high = 0.1, 100.0
    if not impedance_at(high) < target_impedance < impedance_at(low):
        raise ConfigurationError(
            f"target impedance {target_impedance} outside achievable range"
        )
    for _ in range(80):
        mid = 0.5 * (low + high)
        if impedance_at(mid) > target_impedance:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


@dataclass(frozen=True)
class MicrostripLine:
    """Air-substrate microstrip line of the WiForce sensor.

    Default dimensions are the paper's prototype: 2.5 mm signal trace,
    6 mm ground trace, 0.63 mm height, 80 mm length (section 4.1).

    Attributes:
        width: Signal trace width w [m].
        ground_width: Ground trace width [m].
        height: Air-gap height h [m].
        length: Line length [m].
        trace_thickness: Conductor thickness [m] (for loss estimates).
    """

    width: float = 2.5e-3
    ground_width: float = 6.0e-3
    height: float = 0.63e-3
    length: float = 80.0e-3
    trace_thickness: float = 35e-6

    def __post_init__(self) -> None:
        if min(self.width, self.ground_width, self.height, self.length,
               self.trace_thickness) <= 0.0:
            raise ConfigurationError("all microstrip dimensions must be positive")
        if self.ground_width < self.width:
            raise ConfigurationError(
                f"ground width {self.ground_width} must be >= trace width "
                f"{self.width}"
            )

    @property
    def characteristic_impedance(self) -> float:
        """Z0 [ohm] including the wide-ground fringing correction."""
        effective = wide_ground_effective_width(
            self.width, self.height, self.ground_width)
        return air_microstrip_impedance(self.height, effective)

    @property
    def effective_permittivity(self) -> float:
        """Effective relative permittivity (1.0 for the air substrate)."""
        return 1.0

    @property
    def phase_velocity(self) -> float:
        """Phase velocity [m/s]."""
        return SPEED_OF_LIGHT / math.sqrt(self.effective_permittivity)

    def phase_constant(self, frequency: FloatOrArray) -> FloatOrArray:
        """Phase constant beta [rad/m] at ``frequency`` [Hz]."""
        return 2.0 * np.pi * np.asarray(frequency, dtype=float) / self.phase_velocity

    def attenuation_constant(self, frequency: FloatOrArray) -> FloatOrArray:
        """Conductor-loss attenuation alpha [Np/m] at ``frequency`` [Hz].

        Skin-effect surface resistance divided by the trace width and
        line impedance — the standard quasi-TEM conductor-loss estimate.
        Dielectric loss is zero for the air substrate.
        """
        frequency = np.asarray(frequency, dtype=float)
        surface_resistance = np.sqrt(
            np.pi * frequency * MU_0 * COPPER_RESISTIVITY)
        return surface_resistance / (
            self.characteristic_impedance * self.width)

    def propagation_constant(self, frequency: FloatOrArray) -> np.ndarray:
        """Complex propagation constant gamma = alpha + j beta [1/m]."""
        return (np.asarray(self.attenuation_constant(frequency))
                + 1j * np.asarray(self.phase_constant(frequency)))
