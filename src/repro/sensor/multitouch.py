"""Multi-touch: why two simultaneous presses are fundamentally hard.

The paper defers simultaneous touch points to future work (section 7).
This module makes the difficulty precise instead of hand-waving it:

With two presses, the line shorts in two disjoint regions.  RF-wise,
port 1's reflection collapses onto the *first* shorting edge it meets
and port 2's onto the *last* — the interior edges are electrically
shadowed.  Two presses therefore produce exactly two phases, the same
dimensionality as a single press.  The helpers here compute the
two-press observable and quantify what a single-press reader makes of
it; measured on the prototype model, the answer is a gradient:

* **Close presses** (separation comparable to a hard press's contact
  spread, ≲ 15 mm) fit a single-press hypothesis within the noise
  floor — genuinely ambiguous, read as one too-strong press between
  the two contacts.
* **Far presses** imply an edge spread no single press within the
  force range can produce; the fit residual grows with separation
  (≈ 22° at 30 mm apart), so the reader can at least *detect* "this is
  not a single press" and refuse the reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import SensorError

if TYPE_CHECKING:  # imported lazily at runtime (layer above sensor)
    from repro.core.estimator import ForceLocationEstimator
from repro.rf.elements import shorted_sensor_twoport
from repro.sensor.tag import WiForceTag


@dataclass(frozen=True)
class TwoPressState:
    """Two simultaneous presses on one strip.

    Attributes:
        force_a / location_a: First press [N] / [m].
        force_b / location_b: Second press [N] / [m] (to the right).
    """

    force_a: float
    location_a: float
    force_b: float
    location_b: float

    def __post_init__(self) -> None:
        if self.force_a <= 0.0 or self.force_b <= 0.0:
            raise SensorError("both presses need positive force")
        if self.location_b <= self.location_a:
            raise SensorError(
                "press b must sit to the right of press a"
            )


def effective_shorting_points(tag: WiForceTag,
                              state: TwoPressState
                              ) -> Optional[Tuple[float, float]]:
    """The electrically visible shorting edges of two presses.

    Port 1 sees press a's left edge; port 2 sees press b's right edge.
    Returns ``None`` if neither press makes contact.
    """
    transducer = tag.transducer
    patch_a = transducer.contact(state.force_a, state.location_a)
    patch_b = transducer.contact(state.force_b, state.location_b)
    if not patch_a.in_contact and not patch_b.in_contact:
        return None
    if not patch_a.in_contact:
        return patch_b.left, patch_b.right
    if not patch_b.in_contact:
        return patch_a.left, patch_a.right
    return patch_a.left, patch_b.right


def two_press_phases(tag: WiForceTag, frequency: float,
                     state: TwoPressState) -> Tuple[float, float]:
    """Wireless-observable differential phases of two presses.

    Uses the outermost shorting edges (the interior is shadowed) and
    the same harmonic-domain observable as a single press.
    """
    points = effective_shorting_points(tag, state)
    if points is None:
        return 0.0, 0.0
    grid = np.array([float(frequency)])
    design = tag.transducer.design
    switch = design.switch
    through = switch.through_gain
    branch_off = switch.branch_off_reflection

    def harmonic_vectors(shorting):
        network = shorted_sensor_twoport(
            design.line, grid, shorting,
            contact_resistance=design.contact_resistance)
        gamma1 = through ** 2 * network.terminated_reflection(
            switch.off_reflection)
        gamma2 = through ** 2 * network.flipped().terminated_reflection(
            switch.off_reflection)
        # The on-minus-off difference vector at each readout tone.
        return (0.5 * (gamma1[0] - branch_off),
                0.5 * (gamma2[0] - branch_off))

    untouched1, untouched2 = harmonic_vectors(None)
    touched1, touched2 = harmonic_vectors(points)
    phi1 = float(np.angle(touched1 * np.conj(untouched1)))
    phi2 = float(np.angle(touched2 * np.conj(untouched2)))
    return phi1, phi2


@dataclass(frozen=True)
class AmbiguityReport:
    """How a single-press estimator misreads two presses.

    Attributes:
        residual_deg: Best single-press fit residual [deg] (small =
            the observation is consistent with a single press, i.e.
            genuinely ambiguous rather than detectably wrong).
        inferred_force: The single-press force the estimator reports [N].
        inferred_location: Its location [m].
        total_true_force: F_a + F_b [N].
    """

    residual_deg: float
    inferred_force: float
    inferred_location: float
    total_true_force: float

def ambiguity_report(tag: WiForceTag, estimator: "ForceLocationEstimator",
                     frequency: float,
                     state: TwoPressState) -> AmbiguityReport:
    """Quantify the single-press misreading of a two-press state."""
    phi1, phi2 = two_press_phases(tag, frequency, state)
    estimate = estimator.invert(phi1, phi2)
    return AmbiguityReport(
        residual_deg=float(np.degrees(estimate.residual)),
        inferred_force=estimate.force,
        inferred_location=estimate.location,
        total_true_force=state.force_a + state.force_b,
    )
