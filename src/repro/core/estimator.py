"""Force magnitude + location estimation by model inversion.

Given the pair of measured differential phases (phi1, phi2), find the
(force, location) whose model-predicted phases best match.  Residuals
are compared on the unit circle (wrapped).  Each reading is seeded at
the best point of a fixed 25 x 25 grid over the calibrated domain, then
refined by four damped Gauss-Newton steps on the model's analytic
Jacobian that respect the domain's bounds.  The model is a closed form,
so it is solved directly rather than searched.

The same Jacobian gives each reading its error bars
(:meth:`ForceLocationEstimator.error_bars`): with phase covariance
``sigma^2 I``, ``cov(F, x) = sigma^2 (J^T J)^{-1}`` at the estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.calibration import SensorModel
from repro.errors import EstimationError
from repro.obs.instruments import BATCH_BUCKETS
from repro.obs.registry import active


@dataclass(frozen=True)
class ForceLocationEstimate:
    """One inverted reading.

    Attributes:
        force: Estimated contact force [N].
        location: Estimated contact location [m] from port 1.
        residual: RMS wrapped phase residual at the optimum [rad].
        touched: False when the phases say "no contact".
    """

    force: float
    location: float
    residual: float
    touched: bool

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "force": float(self.force),
            "location": float(self.location),
            "residual": float(self.residual),
            "touched": bool(self.touched),
        }


@dataclass(frozen=True)
class BatchForceLocationEstimate:
    """N inverted readings as parallel arrays.

    Untouched samples carry zeros in ``force``/``location``/``residual``
    with ``touched`` False, mirroring the scalar no-contact estimate.

    Attributes:
        force: Estimated forces [N], shape (N,).
        location: Estimated locations [m], shape (N,).
        residual: RMS wrapped phase residuals [rad], shape (N,).
        touched: Contact classification per sample, shape (N,).
    """

    force: np.ndarray
    location: np.ndarray
    residual: np.ndarray
    touched: np.ndarray

    def __len__(self) -> int:
        return int(self.force.shape[0])

    def __getitem__(self, index: int) -> ForceLocationEstimate:
        return ForceLocationEstimate(
            force=float(self.force[index]),
            location=float(self.location[index]),
            residual=float(self.residual[index]),
            touched=bool(self.touched[index]),
        )

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


@dataclass(frozen=True)
class ReadingUncertainty:
    """Standard errors of one reading, or of N as arrays.

    Attributes:
        force_std: 1-sigma force uncertainty [N].
        location_std: 1-sigma location uncertainty [m].
        conditioning: Condition number of the Jacobian with force over
            its calibrated range and location over its span (unit-free;
            large where the phases barely tell force from location).
    """

    force_std: Union[float, np.ndarray]
    location_std: Union[float, np.ndarray]
    conditioning: Union[float, np.ndarray]


def _wrapped_error(shifted_measured, predicted: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Wrapped (measured - predicted) phase error on [-pi, pi).

    ``shifted_measured`` is the measured phase pre-offset by +pi, so
    the wrap costs one pass over the predictions.  Arithmetic
    equivalent of ``angle(exp(1j*(measured - predicted)))`` up to the
    sign of the +/-pi branch point, which the squared cost cannot see,
    at a fraction of the transcendental cost.  ``out`` may alias
    ``predicted`` to work in place.
    """
    out = np.subtract(shifted_measured, predicted, out=out)
    np.remainder(out, 2.0 * np.pi, out=out)
    np.subtract(out, np.pi, out=out)
    return out


#: Points per axis of the seed grid over (force, location).
SEED_POINTS = 25

#: Rows per chunk of the seed scan: a (16, 625) float64 residual block
#: is 80 KB, below glibc's 128 KiB mmap threshold, so the scan reuses
#: heap memory instead of mapping fresh pages on every call.
SEED_ROWS = 16

#: Gauss-Newton steps per reading.  The count is fixed and every
#: operation is element-wise over rows, so a reading's estimate does
#: not depend on the batch it is inverted in.
STEPS = 4

#: Levenberg damping at the seed, in units of the span-scaled normal
#: matrix; divided by 10 after a step that lowers the cost and
#: multiplied by 10 after one that does not (the step is then undone).
DAMPING = 1e-2


class ForceLocationEstimator:
    """Inverts a :class:`SensorModel`.

    Each reading starts at the best point of a 25 x 25 grid over the
    calibrated force range and location span (the grid's model phases
    and Jacobians are computed once per estimator), then takes four
    damped Gauss-Newton steps on the wrapped phase residual.  A step
    that does not lower the cost is undone and the damping raised.
    The bounds form an active set: a variable on its bound whose
    gradient points outward is frozen while the other takes its 1-D
    step, and every step is clipped into the domain.  A location hint
    narrows the domain to +/-10 mm around it, seed included.

    Args:
        model: Calibrated phase-force model.
        touch_threshold_deg: Phases below this magnitude at both ports
            are classified as "no contact".
    """

    def __init__(self, model: SensorModel, touch_threshold_deg: float = 5.0):
        if touch_threshold_deg < 0.0:
            raise EstimationError(
                f"touch threshold must be >= 0, got {touch_threshold_deg}"
            )
        self.model = model
        self.touch_threshold = np.radians(touch_threshold_deg)
        force_low, force_high = model.force_range
        location_low, location_high = self.location_span()
        #: [[force_low, location_low], [force_high, location_high]].
        self._bounds = np.array([[force_low, location_low],
                                 [force_high, location_high]])
        #: Steps are solved in span units: (force, location) / scale.
        self._scale = self._bounds[1] - self._bounds[0]
        forces, locations = np.meshgrid(
            np.linspace(force_low, force_high, SEED_POINTS),
            np.linspace(location_low, location_high, SEED_POINTS),
            indexing="ij")
        self._seed_points = np.stack([forces.ravel(), locations.ravel()],
                                     axis=1)
        phases, jacobian = self._linearize(self._seed_points)
        self._seed_phases = phases
        self._seed_jacobian = jacobian
        self._seed_turns = (phases[:, 0] / (2.0 * np.pi),
                            phases[:, 1] / (2.0 * np.pi))

    def invert(self, phi1: float, phi2: float,
               location_hint: Optional[float] = None
               ) -> ForceLocationEstimate:
        """Estimate (force, location) from measured phases [rad]:
        :meth:`invert_batch` of one row.

        Args:
            phi1 / phi2: Differential phases at the two readout tones.
            location_hint: Optional prior location [m]; restricts the
                solution to +/- 10 mm around it.
        """
        obs = active()
        if obs is None:
            return self._invert_batch(phi1, phi2, location_hint)[0]
        start = time.perf_counter()
        estimate = self._invert_batch(phi1, phi2, location_hint)[0]
        obs.histogram("estimator.invert_seconds").observe(
            time.perf_counter() - start)
        obs.counter("estimator.inversions").increment()
        if not estimate.touched:
            obs.counter("estimator.no_touch").increment()
        return estimate

    def location_span(self, location_hint: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The location search span [m]: the calibrated span, narrowed
        to +/-10 mm around ``location_hint`` when one is given.

        ``location_hint`` is a scalar or an array; the bounds take its
        shape.  The inversion and the serving layer's request check
        derive their spans here.

        Raises:
            EstimationError: A hint's window misses the calibrated
                span.
        """
        locations = self.model.locations
        low, high = float(locations[0]), float(locations[-1])
        if location_hint is None:
            return low, high
        low = np.maximum(low, location_hint - 10e-3)
        high = np.minimum(high, location_hint + 10e-3)
        inside = low < high
        if not np.all(inside):
            outside = np.asarray(location_hint)[~inside][0]
            raise EstimationError(
                f"location hint {outside} m lies outside the calibrated "
                f"span"
            )
        return low, high

    def invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                     location_hint: Optional[np.ndarray] = None
                     ) -> BatchForceLocationEstimate:
        """Estimate (force, location) for N phase pairs at once.

        Every step is element-wise over the rows, so row ``n`` of the
        result equals :meth:`invert` of row ``n`` bit for bit, whatever
        else shares the batch.

        Args:
            phi1 / phi2: Measured differential phases [rad], shape (N,)
                (broadcast-compatible shapes are accepted).
            location_hint: Optional prior location(s) [m] — a scalar or
                shape-(N,) array; restricts each sample's solution to
                +/- 10 mm around its hint.
        """
        obs = active()
        if obs is None:
            return self._invert_batch(phi1, phi2, location_hint)
        start = time.perf_counter()
        batch = self._invert_batch(phi1, phi2, location_hint)
        obs.histogram("estimator.batch_seconds").observe(
            time.perf_counter() - start)
        obs.histogram("estimator.batch_size",
                      BATCH_BUCKETS).observe(len(batch))
        obs.counter("estimator.batch_inversions").increment()
        obs.counter("estimator.batched_samples").increment(len(batch))
        return batch

    def _invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                      location_hint: Optional[np.ndarray] = None
                      ) -> BatchForceLocationEstimate:
        phi1 = np.atleast_1d(np.asarray(phi1, dtype=float))
        phi2 = np.atleast_1d(np.asarray(phi2, dtype=float))
        phi1, phi2 = np.broadcast_arrays(phi1, phi2)
        if phi1.ndim != 1:
            raise EstimationError(
                f"phase batches must be 1-D, got shape {phi1.shape}"
            )
        count = phi1.shape[0]
        touched = ~((np.abs(phi1) < self.touch_threshold)
                    & (np.abs(phi2) < self.touch_threshold))
        force = np.zeros(count)
        location = np.zeros(count)
        residual = np.zeros(count)
        rows = np.flatnonzero(touched)
        if rows.size:
            bounds = self._bounds
            if location_hint is not None:
                hint = np.broadcast_to(
                    np.atleast_1d(np.asarray(location_hint, dtype=float)),
                    (count,))[rows]
                bounds = np.repeat(bounds[:, np.newaxis, :], rows.size,
                                   axis=1)
                bounds[0, :, 1], bounds[1, :, 1] = self.location_span(hint)
            point, cost = self._solve(phi1[rows], phi2[rows], bounds)
            force[rows] = point[:, 0]
            location[rows] = point[:, 1]
            residual[rows] = np.sqrt(0.5 * cost)
        return BatchForceLocationEstimate(force=force, location=location,
                                          residual=residual,
                                          touched=touched)

    def error_bars(self, estimates: Union[ForceLocationEstimate,
                                          BatchForceLocationEstimate],
                   phase_std_rad: float) -> ReadingUncertainty:
        """Error bars of touched readings, ``cov = sigma^2 (J^T J)^-1``,
        from the Jacobian the solver steps on at each estimate.

        ``phase_std_rad`` is the per-tone phase noise [rad].  A single
        estimate gives floats; a batch gives arrays whose row ``n``
        equals the call on ``estimates[n]`` bit for bit.

        Raises:
            EstimationError: A row is untouched, lies outside the
                calibrated domain (where the model extrapolates) or has
                a singular Jacobian, or the phase noise is negative.
        """
        points = np.stack([np.atleast_1d(estimates.force),
                           np.atleast_1d(estimates.location)], axis=1)
        if not np.all(estimates.touched):
            raise EstimationError("cannot attach error bars to a no-touch "
                                  "reading")
        if not phase_std_rad >= 0.0:
            raise EstimationError(
                f"phase std must be >= 0, got {phase_std_rad}"
            )
        if not np.all((points >= self._bounds[0])
                      & (points <= self._bounds[1])):
            raise EstimationError("estimate outside the calibrated force "
                                  "range or location span")
        # One closed-form 2 x 2 solve per row, in domain units: with
        # J = [[f1, x1], [f2, x2]], J^T J = [[a, b], [b, c]] and
        # det(J^T J) = det(J)^2.
        (f1, x1), (f2, x2) = self._linearize(points)[1].transpose(1, 2, 0)
        determinant = np.abs(f1 * x2 - x1 * f2)
        if not np.all(determinant * determinant > 1e-30):
            raise EstimationError(
                "degenerate sensitivity: the two phases do not disambiguate "
                "force from location at this operating point"
            )
        a = f1 * f1 + f2 * f2
        b = f1 * x1 + f2 * x2
        c = x1 * x1 + x2 * x2
        spread = phase_std_rad / determinant
        # J's singular-value ratio: J^T J's larger eigenvalue over det J.
        bars = (self._scale[0] * spread * np.sqrt(c),
                self._scale[1] * spread * np.sqrt(a),
                (0.5 * (a + c) + np.hypot(0.5 * (a - c), b)) / determinant)
        if isinstance(estimates, ForceLocationEstimate):
            bars = [float(value[0]) for value in bars]
        return ReadingUncertainty(*bars)

    def _linearize(self, points: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Model phases (N, 2) and span-scaled Jacobian (N, 2, 2) at
        (force, location) ``points`` (N, 2)."""
        phases, jacobian = self.model.linearize(points[:, 0], points[:, 1])
        jacobian *= self._scale
        return phases, jacobian

    def _seed(self, phi1: np.ndarray, phi2: np.ndarray,
              bounds: np.ndarray) -> np.ndarray:
        """Index of each row's best seed-grid point inside its bounds.

        ``bounds`` is ``self._bounds`` or, with location hints, per-row
        (2, N, 2) bounds whose grid points outside are skipped.  The
        scan works in turns (phase / 2 pi), where the wrap is one
        ``rint``: the seed needs only the argmin, and the steps that
        follow recompute the residual in radians.
        """
        grid1, grid2 = self._seed_turns
        grid_location = self._seed_points[:, 1]
        count = phi1.size
        turns1 = phi1 / (2.0 * np.pi)
        turns2 = phi2 / (2.0 * np.pi)
        chunk = min(count, SEED_ROWS)
        cost = np.empty((chunk, grid1.size))
        error = np.empty_like(cost)
        whole = np.empty_like(cost)
        index = np.empty(count, dtype=np.intp)
        for start in range(0, count, chunk):
            rows = slice(start, start + chunk)
            size = min(chunk, count - start)
            np.subtract(turns1[rows, np.newaxis], grid1, out=cost[:size])
            np.subtract(turns2[rows, np.newaxis], grid2, out=error[:size])
            for part in (cost[:size], error[:size]):
                np.subtract(part, np.rint(part, out=whole[:size]),
                            out=part)
                np.multiply(part, part, out=part)
            np.add(cost[:size], error[:size], out=cost[:size])
            if bounds.ndim == 3:
                np.putmask(cost[:size],
                           (grid_location < bounds[0, rows, 1, np.newaxis])
                           | (grid_location > bounds[1, rows, 1, np.newaxis]),
                           np.inf)
            index[rows] = np.argmin(cost[:size], axis=1)
        return index

    def _solve(self, phi1: np.ndarray, phi2: np.ndarray,
               bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bound-aware damped Gauss-Newton over N measured phase pairs;
        returns the (force, location) points (N, 2) and their costs,
        the summed squared wrapped residuals (N,)."""
        low, high = bounds
        index = self._seed(phi1, phi2, bounds)
        shifted = np.stack([phi1, phi2], axis=1) + np.pi
        point = self._seed_points[index]
        residual = _wrapped_error(shifted, self._seed_phases[index])
        jacobian = self._seed_jacobian[index]
        cost = (residual * residual).sum(axis=1)
        damping = np.full(cost.shape, DAMPING)
        for _ in range(STEPS):
            # The damped normal equations (J^T J + damping) step =
            # J^T r, one closed-form 2 x 2 solve per row; the sums run
            # over the two ports only.  J^T r is minus the gradient of
            # the cost, the direction of steepest descent.
            normal = (jacobian[:, :, :, np.newaxis]
                      * jacobian[:, :, np.newaxis, :]).sum(axis=1)
            descent = (jacobian * residual[:, :, np.newaxis]).sum(axis=1)
            diagonal = (normal.diagonal(axis1=1, axis2=2)
                        + damping[:, np.newaxis])
            coupling = normal[:, 0, 1, np.newaxis]
            determinant = (diagonal[:, 0] * diagonal[:, 1]
                           - normal[:, 0, 1] * normal[:, 0, 1])
            step = ((diagonal[:, ::-1] * descent
                     - coupling * descent[:, ::-1])
                    / determinant[:, np.newaxis])
            # Active set: a variable on the bound that its descent
            # points past stays put; the other takes its 1-D step.
            pinned = point == np.where(descent < 0.0, low, high)
            step = np.where(pinned[:, ::-1], descent / diagonal, step)
            step[pinned] = 0.0
            trial = np.clip(point + step * self._scale, low, high)
            trial_phases, trial_jacobian = self._linearize(trial)
            trial_residual = _wrapped_error(shifted, trial_phases,
                                            out=trial_phases)
            trial_cost = (trial_residual * trial_residual).sum(axis=1)
            better = trial_cost < cost
            point = np.where(better[:, np.newaxis], trial, point)
            residual = np.where(better[:, np.newaxis], trial_residual,
                                residual)
            jacobian = np.where(better[:, np.newaxis, np.newaxis],
                                trial_jacobian, jacobian)
            cost = np.where(better, trial_cost, cost)
            damping = np.where(better, damping * 0.1, damping * 10.0)
        return point, cost
