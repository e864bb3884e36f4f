"""Elastomer viscoelasticity: creep under a held press.

Silicone elastomers are not perfectly elastic — under a sustained load
the effective modulus relaxes (standard-linear-solid behaviour), the
contact region keeps spreading for a fraction of a second, and the
reflected phase creeps before settling.  This is the physical origin of
the paper's "0.5-1 s to stabilize" remark (section 3.3) and it bounds
how soon after touch onset a reading should be trusted.

Two layers: the material law, a Prony-series standard linear solid,
and the sensor-level transducer that evaluates the contact problem at
its relaxed moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mechanics.materials import Material
from repro.sensor.geometry import SensorDesign, default_sensor_design
from repro.sensor.transduction import ForceTransducer


@dataclass(frozen=True)
class StandardLinearSolid:
    """One-branch Prony series (standard linear solid).

    ``E(t) = E_inf + (E_0 - E_inf) exp(-t / tau)``

    Attributes:
        instantaneous_modulus: E_0 [Pa] (t = 0 response).
        equilibrium_modulus: E_inf [Pa] (fully relaxed).
        relaxation_time: tau [s].
    """

    instantaneous_modulus: float = 125e3
    equilibrium_modulus: float = 95e3
    relaxation_time: float = 0.35

    def __post_init__(self) -> None:
        if self.equilibrium_modulus <= 0.0:
            raise ConfigurationError("equilibrium modulus must be positive")
        if self.instantaneous_modulus < self.equilibrium_modulus:
            raise ConfigurationError(
                "instantaneous modulus must be >= equilibrium modulus"
            )
        if self.relaxation_time <= 0.0:
            raise ConfigurationError("relaxation time must be positive")

    def modulus(self, hold_time: float) -> float:
        """Relaxed modulus E(t) [Pa] after holding for ``hold_time``."""
        if hold_time < 0.0:
            raise ConfigurationError(
                f"hold time must be >= 0, got {hold_time}"
            )
        decay = np.exp(-hold_time / self.relaxation_time)
        return float(self.equilibrium_modulus
                     + (self.instantaneous_modulus
                        - self.equilibrium_modulus) * decay)

    def settling_time(self, band: float = 0.05) -> float:
        """Time [s] until the modulus is within ``band`` of equilibrium."""
        if not 0.0 < band < 1.0:
            raise ConfigurationError(f"band must be in (0, 1), got {band}")
        return float(-self.relaxation_time * np.log(band))


class CreepingTransducer:
    """Force transducer with hold-time-dependent mechanics.

    Builds contact solutions at a handful of relaxation levels and
    interpolates phases between them, so querying arbitrary hold times
    stays cheap.

    Args:
        sls: The elastomer's viscoelastic description.
        design: Sensor design (the soft material's modulus is replaced
            by the SLS's relaxed values).
        relaxation_levels: Modulus sample count across the relaxation.
        force_points / location_points: Contact-map resolution per
            level (kept small; levels multiply the build cost).
    """

    def __init__(self, sls: StandardLinearSolid = StandardLinearSolid(),
                 design: Optional[SensorDesign] = None,
                 relaxation_levels: int = 3,
                 force_points: int = 14, location_points: int = 15):
        if relaxation_levels < 2:
            raise ConfigurationError(
                f"need >= 2 relaxation levels, got {relaxation_levels}"
            )
        self.sls = sls
        base = design or default_sensor_design()
        self._moduli = np.linspace(sls.equilibrium_modulus,
                                   sls.instantaneous_modulus,
                                   relaxation_levels)
        self._transducers = []
        for modulus in self._moduli:
            material = Material(
                name=f"{base.soft_material.name}-relaxed",
                youngs_modulus=float(modulus),
                poisson_ratio=base.soft_material.poisson_ratio,
                density=base.soft_material.density,
            )
            level_design = replace(base, soft_material=material)
            self._transducers.append(ForceTransducer(
                level_design, force_points=force_points,
                location_points=location_points))

    def _bracket(self, modulus: float) -> Tuple[int, float]:
        clipped = float(np.clip(modulus, self._moduli[0], self._moduli[-1]))
        index = int(np.searchsorted(self._moduli, clipped) - 1)
        index = max(0, min(index, self._moduli.size - 2))
        fraction = ((clipped - self._moduli[index])
                    / (self._moduli[index + 1] - self._moduli[index]))
        return index, fraction

    def phases_at_hold(self, frequency: float, force: float,
                       location: float,
                       hold_time: float) -> Tuple[float, float]:
        """Differential port phases [rad] after holding the press.

        Linear interpolation between the bracketing relaxation levels.
        """
        modulus = self.sls.modulus(hold_time)
        index, fraction = self._bracket(modulus)
        low = self._transducers[index].differential_phases(
            frequency, force, location)
        high = self._transducers[index + 1].differential_phases(
            frequency, force, location)
        phi1 = (1.0 - fraction) * low.port1 + fraction * high.port1
        phi2 = (1.0 - fraction) * low.port2 + fraction * high.port2
        return float(phi1), float(phi2)

    def creep_trace(self, frequency: float, force: float, location: float,
                    times: np.ndarray) -> np.ndarray:
        """Port-1 phase [rad] over a hold-time grid."""
        times = np.asarray(times, dtype=float)
        return np.array([
            self.phases_at_hold(frequency, force, location, float(t))[0]
            for t in times
        ])
