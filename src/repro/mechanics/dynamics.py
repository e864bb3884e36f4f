"""Beam dynamics: why the phase-group stationarity assumption holds.

Paper section 3.3 assumes the contact force — hence the shorting points
— stays constant across the N snapshots of a phase group, arguing that
"mechanical forces are much slower (take about 0.5-1 seconds to
stabilize)" than the wireless sampling.  This module makes that claim
computable: modal frequencies of the composite beam (Euler-Bernoulli,
simply supported), elastomer damping, and the resulting settling time,
to compare against the 36 ms phase group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, MechanicsError
from repro.mechanics.beam import CompositeBeam


@dataclass(frozen=True)
class ModalSummary:
    """Vibration summary of the sensor's top structure.

    Attributes:
        natural_frequencies: First modal frequencies [Hz], ascending.
        damping_ratio: Effective viscous damping ratio (elastomer).
        settling_time: 2%-band settling time of the fundamental [s].
    """

    natural_frequencies: Tuple[float, ...]
    damping_ratio: float
    settling_time: float

    @property
    def fundamental(self) -> float:
        """First natural frequency [Hz]."""
        return self.natural_frequencies[0]


def natural_frequencies(beam: CompositeBeam, modes: int = 3,
                        foundation_stiffness: float = 0.0
                        ) -> Tuple[float, ...]:
    """First ``modes`` natural frequencies [Hz] of the laminated beam.

    Simply supported Euler-Bernoulli beam, optionally on a Winkler
    foundation: ``omega_n^2 = ((n pi / L)^4 EI + k_f) / mu``.
    """
    if modes < 1:
        raise ConfigurationError(f"need at least one mode, got {modes}")
    if foundation_stiffness < 0.0:
        raise ConfigurationError(
            f"foundation stiffness must be >= 0, got {foundation_stiffness}"
        )
    mu = beam.mass_per_length
    if mu <= 0.0:
        raise MechanicsError("beam has no mass per length")
    frequencies = []
    for n in range(1, modes + 1):
        wavenumber = n * np.pi / beam.length
        omega_squared = (wavenumber ** 4 * beam.bending_stiffness
                         + foundation_stiffness) / mu
        frequencies.append(float(np.sqrt(omega_squared) / (2.0 * np.pi)))
    return tuple(frequencies)


def settling_time(frequency_hz: float, damping_ratio: float,
                  band: float = 0.02) -> float:
    """Time [s] for a damped mode to settle within ``band`` of final.

    Classical second-order estimate ``t_s = -ln(band) / (zeta omega_n)``.
    """
    if frequency_hz <= 0.0:
        raise ConfigurationError(
            f"frequency must be positive, got {frequency_hz}"
        )
    if not 0.0 < damping_ratio < 1.0:
        raise ConfigurationError(
            f"damping ratio must be in (0, 1), got {damping_ratio}"
        )
    if not 0.0 < band < 1.0:
        raise ConfigurationError(f"band must be in (0, 1), got {band}")
    omega = 2.0 * np.pi * frequency_hz
    return float(-np.log(band) / (damping_ratio * omega))


def modal_summary(beam: CompositeBeam, damping_ratio: float = 0.12,
                  foundation_stiffness: float = 0.0,
                  modes: int = 3) -> ModalSummary:
    """Modal frequencies + settling time for the sensor beam.

    The default damping ratio is typical for a silicone elastomer
    laminate (highly dissipative compared to bare metal).
    """
    frequencies = natural_frequencies(beam, modes, foundation_stiffness)
    settle = settling_time(frequencies[0], damping_ratio)
    return ModalSummary(natural_frequencies=frequencies,
                        damping_ratio=damping_ratio,
                        settling_time=settle)
