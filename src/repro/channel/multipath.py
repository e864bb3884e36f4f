"""Static indoor multipath clutter.

The harmonic-FFT algorithm (paper section 3.3) exists because indoor
environments reflect the excitation from walls, furniture and bodies:
those reflections land in the zero-Doppler bin of the snapshot FFT
while the switching tag shows up at fs and 4 fs.  This module models
the clutter as a discrete set of static specular paths, plus an
optional slowly-moving path to exercise the algorithm's rejection of
low-Doppler motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ChannelError
from repro.units import SPEED_OF_LIGHT


@dataclass(frozen=True)
class Path:
    """One specular propagation path.

    Attributes:
        gain: Complex amplitude (includes reflection losses).
        delay: Propagation delay [s].
        doppler: Doppler shift [Hz] (0 for static clutter).
    """

    gain: complex
    delay: float
    doppler: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0.0:
            raise ChannelError(f"path delay must be >= 0, got {self.delay}")

    @classmethod
    def from_distance(cls, amplitude: float, distance: float,
                      phase: float = 0.0, doppler: float = 0.0) -> "Path":
        """Build a path from its travelled distance [m]."""
        if distance <= 0.0:
            raise ChannelError(f"distance must be positive, got {distance}")
        gain = amplitude * np.exp(1j * phase)
        return cls(gain=complex(gain), delay=distance / SPEED_OF_LIGHT,
                   doppler=doppler)


class MultipathChannel:
    """Sum of specular paths evaluated on a subcarrier grid.

    The frequency response at absolute frequency f and time t is
    ``sum_i g_i exp(-j 2 pi f d_i) exp(j 2 pi nu_i t)``.
    """

    def __init__(self, paths: Sequence[Path]):
        self._paths: List[Path] = list(paths)

    @property
    def paths(self) -> List[Path]:
        """The path list (copy)."""
        return list(self._paths)

    def frequency_response(self, frequency: np.ndarray,
                           time: float = 0.0) -> np.ndarray:
        """Complex response over ``frequency`` [Hz] at time ``time`` [s]."""
        frequency = np.asarray(frequency, dtype=float)
        response = np.zeros(frequency.shape, dtype=complex)
        for path in self._paths:
            response += (path.gain
                         * np.exp(-2j * np.pi * frequency * path.delay)
                         * np.exp(2j * np.pi * path.doppler * time))
        return response

def indoor_channel(frequency_hz: float, path_count: int = 6,
                   max_excess_delay: float = 80e-9,
                   clutter_to_direct_db: float = 10.0,
                   direct_distance: float = 1.0,
                   direct_gain: float = 1e-2,
                   rng: Optional[np.random.Generator] = None) -> MultipathChannel:
    """Random static indoor clutter around a direct path.

    Args:
        frequency_hz: Carrier (sets the direct path's phase scale).
        path_count: Number of clutter paths beyond the direct one.
        max_excess_delay: Clutter excess delay spread [s].
        clutter_to_direct_db: How far below the direct path the total
            clutter power sits [dB].
        direct_distance: Direct path length [m].
        direct_gain: Direct path amplitude.
        rng: Random source.
    """
    if path_count < 0:
        raise ChannelError(f"path count must be >= 0, got {path_count}")
    rng = rng or np.random.default_rng()
    paths = [Path.from_distance(direct_gain, direct_distance)]
    if path_count == 0:
        return MultipathChannel(paths)
    clutter_amplitude = direct_gain * 10.0 ** (-clutter_to_direct_db / 20.0)
    weights = rng.exponential(1.0, path_count)
    weights = weights / np.sqrt(np.sum(weights ** 2))
    for i in range(path_count):
        excess = rng.uniform(0.1, 1.0) * max_excess_delay
        distance = direct_distance + excess * SPEED_OF_LIGHT
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(Path.from_distance(
            clutter_amplitude * float(weights[i]), distance, phase))
    return MultipathChannel(paths)
