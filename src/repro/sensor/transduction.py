"""Force-to-phase transduction: mechanics composed with RF.

The chain of paper section 3.1: a (force, location) press moves the
shorting points via the contact solver, the shorted line changes its
reflection at both ports, and the *differential* phase between touched
and untouched states is the wireless observable.  This module owns that
chain and is shared by the VNA calibration path and the wireless tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SensorError
from repro.mechanics.contact import ContactMap, ContactPatch
from repro.rf.elements import line_twoport, shorted_sensor_twoport
from repro.rf.twoport import TwoPort
from repro.sensor.geometry import SensorDesign


@dataclass(frozen=True)
class PortPhases:
    """Differential phases observed at the two sensor ports.

    Attributes:
        port1: Touched-minus-untouched reflection phase at port 1 [rad].
        port2: Same for port 2 [rad].
        in_contact: Whether the press actually shorted the line.
    """

    port1: float
    port2: float
    in_contact: bool

class ForceTransducer:
    """Maps (force, location) presses to shorting points and phases.

    Uses a :class:`ContactMap` for fast repeated evaluation; the map is
    built once from the design's FD contact solver.

    Args:
        design: The sensor design.
        max_force: Largest force the map tabulates [N].
        force_points / location_points: Map resolution.
    """

    def __init__(self, design: SensorDesign, max_force: float = 10.0,
                 force_points: int = 40, location_points: int = 49):
        self._design = design
        self._solver = design.contact_solver()
        self._map = ContactMap(
            self._solver,
            max_force=max_force,
            force_points=force_points,
            location_points=location_points,
        )

    @property
    def design(self) -> SensorDesign:
        """The sensor design being transduced."""
        return self._design

    def cache_spec(self) -> dict:
        """Key material identifying this transducer's full response.

        The design dataclass carries every RF parameter (line geometry,
        switch, contact resistance) and the map spec pins the sampled
        mechanics, so two transducers with equal specs transduce
        identically — which is what lets downstream calibration
        artifacts be content-addressed by it.
        """
        return {"design": self._design, "map": self._map.cache_spec()}

    @property
    def max_force(self) -> float:
        """Largest force the transducer is tabulated for [N]."""
        return self._map.max_force

    def contact(self, force: float, location: float) -> ContactPatch:
        """Interpolated contact patch for a press."""
        return self._map.edges(force, location)

    def shorting_points(self, force: float,
                        location: float) -> Optional[Tuple[float, float]]:
        """(p1, p2) shorting positions [m], or ``None`` if no contact."""
        patch = self.contact(force, location)
        if not patch.in_contact:
            return None
        return patch.left, patch.right

    def touched_twoport(self, frequency: np.ndarray, force: float,
                        location: float) -> TwoPort:
        """Exact sensor two-port under a press."""
        return shorted_sensor_twoport(
            self._design.line,
            frequency,
            self.shorting_points(force, location),
            contact_resistance=self._design.contact_resistance,
        )

    def untouched_twoport(self, frequency: np.ndarray) -> TwoPort:
        """Exact sensor two-port with no force applied."""
        return line_twoport(self._design.line, frequency)

    def port_reflections(self, frequency: np.ndarray, force: float,
                         location: float) -> Tuple[np.ndarray, np.ndarray]:
        """(Gamma_port1, Gamma_port2) with the far switch off-reflective.

        Each port sees the sensor line terminated at the opposite end by
        the other switch's off-state reflection — the single-switch-on
        condition the clocking scheme guarantees.
        """
        frequency = np.asarray(frequency, dtype=float)
        off = self._design.switch.off_reflection
        network = self.touched_twoport(frequency, force, location)
        gamma1 = network.terminated_reflection(off)
        gamma2 = network.flipped().terminated_reflection(off)
        return gamma1, gamma2

    def differential_phases(self, frequency: float, force: float,
                            location: float) -> PortPhases:
        """Touched-minus-untouched phases at both ports (radians).

        This is the quantity the wireless reader estimates via the
        conjugate-multiply of consecutive phase groups (section 3.3),
        and the quantity the VNA measures directly during calibration.
        """
        if force < 0.0:
            raise SensorError(f"force must be non-negative, got {force}")
        grid = np.array([float(frequency)])
        off = self._design.switch.off_reflection
        untouched = self.untouched_twoport(grid)
        base1 = untouched.terminated_reflection(off)[0]
        base2 = untouched.flipped().terminated_reflection(off)[0]
        points = self.shorting_points(force, location)
        if points is None:
            return PortPhases(0.0, 0.0, False)
        gamma1, gamma2 = self.port_reflections(grid, force, location)
        phase1 = float(np.angle(gamma1[0] * np.conj(base1)))
        phase2 = float(np.angle(gamma2[0] * np.conj(base2)))
        return PortPhases(phase1, phase2, True)
