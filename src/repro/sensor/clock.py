"""Duty-cycled switch clocking (paper section 3.2).

Each sensor end gets an identity by toggling its switch at a distinct
frequency.  Naive 50%-duty clocks fail: whenever both switches are on,
the two ends are electrically connected through the line and the
reflection is cross-modulated (intermodulation, Fig. 7).  WiForce's
scheme exploits square-wave duty-cycle zeros: a 25%-duty window train
at fs and a complementary 25%-on window train at 2fs (the paper's
"75% duty" clock driving an active-low switch) are on-disjoint, and
their harmonic combs collide only at 2 fs, leaving fs and 4 fs as
clean per-end readout tones (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.errors import ClockingError, ConfigurationError

FloatOrArray = Union[float, np.ndarray]


@dataclass(frozen=True)
class DutyCycleClock:
    """Periodic on-window indicator.

    Describes when a switch routes the antenna to its sensor end: on
    for a fraction ``duty`` of each period, starting at phase fraction
    ``phase`` of the period.

    Attributes:
        frequency: Repetition rate [Hz].
        duty: On fraction in (0, 1).
        phase: Window start as a fraction of the period, in [0, 1).
    """

    frequency: float
    duty: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise ConfigurationError(
                f"clock frequency must be positive, got {self.frequency}"
            )
        if not 0.0 < self.duty < 1.0:
            raise ConfigurationError(
                f"duty cycle must be in (0, 1), got {self.duty}"
            )
        if not 0.0 <= self.phase < 1.0:
            raise ConfigurationError(
                f"phase fraction must be in [0, 1), got {self.phase}"
            )

    @property
    def period(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.frequency

    def is_on(self, time: FloatOrArray) -> np.ndarray:
        """Boolean on-state at the given time(s) [s]."""
        cycle_position = np.mod(
            np.asarray(time, dtype=float) * self.frequency - self.phase, 1.0)
        return cycle_position < self.duty

    def fourier_coefficient(self, harmonic: int) -> complex:
        """Complex Fourier coefficient c_k of the 0/1 indicator.

        ``m(t) = sum_k c_k exp(j 2 pi k f t)`` with
        ``c_k = duty sinc(k duty) exp(-j pi k (2 phase + duty))`` and
        ``c_0 = duty``.  Zeros fall at harmonics k with ``k duty``
        integer — the duty-cycle nulls the scheme is built on.
        """
        if harmonic == 0:
            return complex(self.duty)
        k = float(harmonic)
        magnitude = self.duty * np.sinc(k * self.duty)
        return magnitude * np.exp(-1j * np.pi * k * (2.0 * self.phase + self.duty))

@dataclass(frozen=True)
class ClockingScheme:
    """A pair of switch on-window clocks plus their readout tones.

    Attributes:
        clock_port1: On-window train of the port-1 switch.
        clock_port2: On-window train of the port-2 switch.
        readout_port1: Tone [Hz] carrying port 1's phase.
        readout_port2: Tone [Hz] carrying port 2's phase.
    """

    clock_port1: DutyCycleClock
    clock_port2: DutyCycleClock
    readout_port1: float
    readout_port2: float

    def states(self, time: FloatOrArray) -> Tuple[np.ndarray, np.ndarray]:
        """(port1_on, port2_on) boolean arrays at the given time(s)."""
        return self.clock_port1.is_on(time), self.clock_port2.is_on(time)

    def overlap_fraction(self, samples: int = 4096) -> float:
        """Fraction of time both switches are on (0 for WiForce).

        Evaluated over many slow-clock periods on a uniform grid offset
        by half a sample so window edges are unambiguous.
        """
        span = 16.0 * max(self.clock_port1.period, self.clock_port2.period)
        time = (np.arange(samples) + 0.5) * (span / samples)
        on1, on2 = self.states(time)
        return float(np.mean(on1 & on2))

    def validate(self) -> None:
        """Check the scheme's two core requirements.

        Raises:
            ClockingError: The on-windows overlap (intermodulation) or
                a readout tone is nulled by its clock's duty cycle.
        """
        if self.overlap_fraction() > 0.0:
            raise ClockingError(
                "switch on-windows overlap: both ends would be connected "
                "through the line and intermodulate (paper Fig. 7)"
            )
        for clock, tone, port in (
            (self.clock_port1, self.readout_port1, 1),
            (self.clock_port2, self.readout_port2, 2),
        ):
            ratio = tone / clock.frequency
            harmonic = int(round(ratio))
            if abs(ratio - harmonic) > 1e-9 or harmonic < 1:
                raise ClockingError(
                    f"readout tone {tone} Hz is not a harmonic of port "
                    f"{port}'s clock ({clock.frequency} Hz)"
                )
            if abs(clock.fourier_coefficient(harmonic)) < 1e-12:
                raise ClockingError(
                    f"port {port} readout harmonic {harmonic} is nulled "
                    f"by the clock's duty cycle {clock.duty}"
                )

def wiforce_clocking(base_frequency: float = 1e3) -> ClockingScheme:
    """The paper's interference-free scheme (section 3.2 / Fig. 8).

    Port 1: 25%-duty windows at ``fs`` starting at phase 0.
    Port 2: 25%-on windows at ``2 fs`` phased to fill the quarter-period
    right after port 1's window (the "75% duty clock" of section 4.3,
    seen from the switch's active-low input).  On-windows are disjoint
    and the readout tones are ``fs`` and ``4 fs``.
    """
    scheme = ClockingScheme(
        clock_port1=DutyCycleClock(base_frequency, duty=0.25, phase=0.0),
        clock_port2=DutyCycleClock(2.0 * base_frequency, duty=0.25, phase=0.5),
        readout_port1=base_frequency,
        readout_port2=4.0 * base_frequency,
    )
    scheme.validate()
    return scheme


def naive_clocking(base_frequency: float = 1e3) -> ClockingScheme:
    """The strawman scheme of Fig. 7: two 50%-duty clocks.

    Both switches are on simultaneously half the time, connecting the
    sensor ends through the line and producing intermodulation.  Kept
    as a baseline; calling :meth:`ClockingScheme.validate` on it raises.
    """
    return ClockingScheme(
        clock_port1=DutyCycleClock(base_frequency, duty=0.5, phase=0.0),
        clock_port2=DutyCycleClock(2.0 * base_frequency, duty=0.5, phase=0.0),
        readout_port1=base_frequency,
        readout_port2=2.0 * base_frequency,
    )
