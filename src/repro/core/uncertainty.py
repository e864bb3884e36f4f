"""Per-reading uncertainty: error bars on (force, location).

A reading is only as good as its phases.  This module propagates the
measured phase noise through the calibrated model's local sensitivity
to give each reading a standard error on force and location — the
difference between "3.2 N" and "3.2 ± 0.15 N", which a downstream
controller (surgical feedback loop, UI debouncing) actually needs.

Linearised propagation: with phase covariance ``sigma_phi^2 I`` and the
model Jacobian ``J = d(phi1, phi2)/d(F, x)`` at the estimate,

    cov(F, x) = sigma_phi^2 (J^T J)^{-1}

The caller supplies the phase noise, e.g. from a repeatability
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimate
from repro.errors import EstimationError


@dataclass(frozen=True)
class ReadingUncertainty:
    """Standard errors of one reading.

    Attributes:
        force_std: 1-sigma force uncertainty [N].
        location_std: 1-sigma location uncertainty [m].
        conditioning: Jacobian condition number (large = the two
            phases barely disambiguate force from location here).
    """

    force_std: float
    location_std: float
    conditioning: float

def model_jacobian(model: SensorModel, force: float, location: float,
                   force_step: float = 0.05,
                   location_step: float = 0.25e-3) -> np.ndarray:
    """Numerical Jacobian d(phi1, phi2)/d(F, x) at an operating point.

    Central differences, clipped to the model's calibrated ranges.
    """
    force_low, force_high = model.force_range
    locations = model.locations
    location_low, location_high = float(locations[0]), float(locations[-1])

    def clamp_force(value: float) -> float:
        return float(np.clip(value, force_low, force_high))

    def clamp_location(value: float) -> float:
        return float(np.clip(value, location_low, location_high))

    f_plus = clamp_force(force + force_step)
    f_minus = clamp_force(force - force_step)
    x_plus = clamp_location(location + location_step)
    x_minus = clamp_location(location - location_step)
    if f_plus == f_minus or x_plus == x_minus:
        raise EstimationError(
            "operating point pinned to the calibration boundary; cannot "
            "form a Jacobian"
        )
    phi_f_plus = np.array(model.predict(f_plus, location))
    phi_f_minus = np.array(model.predict(f_minus, location))
    phi_x_plus = np.array(model.predict(force, x_plus))
    phi_x_minus = np.array(model.predict(force, x_minus))
    jacobian = np.empty((2, 2))
    jacobian[:, 0] = (phi_f_plus - phi_f_minus) / (f_plus - f_minus)
    jacobian[:, 1] = (phi_x_plus - phi_x_minus) / (x_plus - x_minus)
    return jacobian


def reading_uncertainty(model: SensorModel,
                        estimate: ForceLocationEstimate,
                        phase_std_rad: float) -> ReadingUncertainty:
    """Error bars for one inverted reading.

    Args:
        model: The calibrated model the estimate came from.
        estimate: The inversion result (must be a touched reading).
        phase_std_rad: Per-tone phase noise [rad] (a repeatability
            measurement).

    Raises:
        EstimationError: Untouched reading or degenerate Jacobian.
    """
    if not estimate.touched:
        raise EstimationError("cannot attach error bars to a no-touch "
                              "reading")
    if phase_std_rad < 0.0:
        raise EstimationError(
            f"phase std must be >= 0, got {phase_std_rad}"
        )
    jacobian = model_jacobian(model, estimate.force, estimate.location)
    gram = jacobian.T @ jacobian
    determinant = float(np.linalg.det(gram))
    if determinant <= 1e-30:
        raise EstimationError(
            "degenerate sensitivity: the two phases do not disambiguate "
            "force from location at this operating point"
        )
    covariance = phase_std_rad ** 2 * np.linalg.inv(gram)
    singular_values = np.linalg.svd(jacobian, compute_uv=False)
    conditioning = float(singular_values[0]
                         / max(singular_values[-1], 1e-30))
    return ReadingUncertainty(
        force_std=float(np.sqrt(max(covariance[0, 0], 0.0))),
        location_std=float(np.sqrt(max(covariance[1, 1], 0.0))),
        conditioning=conditioning,
    )
