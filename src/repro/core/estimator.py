"""Force magnitude + location estimation by model inversion.

Given the pair of measured differential phases (phi1, phi2), find the
(force, location) whose model-predicted phases best match.  Residuals
are compared on the unit circle (wrapped), the search is a coarse grid
followed by two local zoom refinements — deterministic, derivative-free
and robust to the model's mild non-monotonicities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

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

    @classmethod
    def from_dict(cls, payload: dict) -> "ForceLocationEstimate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            force=float(payload["force"]),
            location=float(payload["location"]),
            residual=float(payload["residual"]),
            touched=bool(payload["touched"]),
        )


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


def _wrapped_error(shifted_measured, predicted: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Wrapped (measured - predicted) phase error on [-pi, pi).

    ``shifted_measured`` is the measured phase pre-offset by +pi, so
    the wrap costs one pass over the prediction grid.  Arithmetic
    equivalent of ``angle(exp(1j*(measured - predicted)))`` up to the
    sign of the +/-pi branch point, which the squared cost cannot see,
    at a fraction of the transcendental cost.  Both search paths must
    use this same formula so batch and scalar inversion stay
    bit-identical.  ``out`` may alias ``predicted`` to work in place.
    """
    out = np.subtract(shifted_measured, predicted, out=out)
    np.remainder(out, 2.0 * np.pi, out=out)
    np.subtract(out, np.pi, out=out)
    return out


class ForceLocationEstimator:
    """Inverts a :class:`SensorModel`.

    The search is a 25 x 25 grid over the calibrated span, then two
    21 x 21 zooms to +/-15% and +/-3% of the span around the running
    best.  The final pitch is therefore 0.3% of the span: 0.0225 N and
    0.12 mm for a 0.5-8 N, 20-60 mm model.

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

    def _grid_search(self, measured: Tuple[float, float],
                     force_span: Tuple[float, float],
                     location_span: Tuple[float, float],
                     points: int) -> Tuple[float, float, float]:
        obs = active()
        if obs is not None:
            obs.counter("estimator.grid_stages").increment()
        forces = np.linspace(force_span[0], force_span[1], points)
        locations = np.linspace(location_span[0], location_span[1], points)
        phi1, phi2 = self.model.predict_grid(forces, locations)
        error1 = _wrapped_error(measured[0] + np.pi, phi1)
        error2 = _wrapped_error(measured[1] + np.pi, phi2)
        cost = 0.5 * (error1 * error1 + error2 * error2)
        index = np.unravel_index(int(np.argmin(cost)), cost.shape)
        best_force = float(forces[index[0]])
        best_location = float(locations[index[1]])
        return best_force, best_location, float(np.sqrt(cost[index]))

    def invert(self, phi1: float, phi2: float,
               location_hint: Optional[float] = None
               ) -> ForceLocationEstimate:
        """Estimate (force, location) from measured phases [rad].

        Args:
            phi1 / phi2: Differential phases at the two readout tones.
            location_hint: Optional prior location [m]; restricts the
                initial search to +/- 10 mm around it.
        """
        obs = active()
        if obs is None:
            return self._invert(phi1, phi2, location_hint)
        start = time.perf_counter()
        estimate = self._invert(phi1, phi2, location_hint)
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
        shape.  Both inversion paths and the serving layer's request
        check derive their spans here.

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

    def _invert(self, phi1: float, phi2: float,
                location_hint: Optional[float] = None
                ) -> ForceLocationEstimate:
        if (abs(phi1) < self.touch_threshold
                and abs(phi2) < self.touch_threshold):
            return ForceLocationEstimate(force=0.0, location=0.0,
                                         residual=0.0, touched=False)
        force_low, force_high = self.model.force_range
        location_low, location_high = self.location_span(location_hint)

        force_span = (force_low, force_high)
        location_span = (location_low, location_high)
        best = self._grid_search((phi1, phi2), force_span, location_span, 25)
        for zoom in (0.15, 0.03):
            force_radius = zoom * (force_high - force_low)
            location_radius = zoom * (location_high - location_low)
            force_span = (max(force_low, best[0] - force_radius),
                          min(force_high, best[0] + force_radius))
            location_span = (max(location_low, best[1] - location_radius),
                             min(location_high, best[1] + location_radius))
            best = self._grid_search((phi1, phi2), force_span,
                                     location_span, 21)
        return ForceLocationEstimate(force=best[0], location=best[1],
                                     residual=best[2], touched=True)

    def _batch_grid_search(
        self, shifted1: np.ndarray, shifted2: np.ndarray,
        force_low: np.ndarray, force_high: np.ndarray,
        location_low: np.ndarray, location_high: np.ndarray,
        points: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One grid-search stage over N samples with per-sample spans.

        ``shifted1`` / ``shifted2`` are the measured phases pre-offset
        by +pi (see :func:`_wrapped_error`).  Builds one
        (N, points, points) wrapped-residual tensor via the model's
        per-sample grid prediction; the flattened per-sample argmin
        uses C order, matching the scalar search's tie-breaking.
        """
        obs = active()
        if obs is not None:
            obs.counter("estimator.grid_stages").increment()
        forces = np.linspace(force_low, force_high, points, axis=-1)
        locations = np.linspace(location_low, location_high, points,
                                axis=-1)
        if (force_low[0] == force_low).all() \
                and (force_high[0] == force_high).all() \
                and (location_low[0] == location_low).all() \
                and (location_high[0] == location_high).all():
            # All samples share one span (the hint-free coarse stage):
            # predict a single (points, points) grid and broadcast it
            # against the batch instead of predicting N copies.
            grid1, grid2 = self.model.predict_grid(forces[0], locations[0])
            error1 = _wrapped_error(shifted1[:, np.newaxis, np.newaxis],
                                    grid1[np.newaxis, :, :])
            error2 = _wrapped_error(shifted2[:, np.newaxis, np.newaxis],
                                    grid2[np.newaxis, :, :])
        else:
            grid1, grid2 = self.model.predict_span(forces, locations)
            # The grids are freshly allocated; wrap in place.
            error1 = _wrapped_error(shifted1[:, np.newaxis, np.newaxis],
                                    grid1, out=grid1)
            error2 = _wrapped_error(shifted2[:, np.newaxis, np.newaxis],
                                    grid2, out=grid2)
        np.multiply(error1, error1, out=error1)
        np.multiply(error2, error2, out=error2)
        # argmin over e1^2 + e2^2: the scalar path's 0.5 factor is an
        # exact, monotone scale, so the minimiser (ties included) is
        # unchanged and the factor is applied to the winner only.
        score = np.add(error1, error2, out=error1).reshape(shifted1.size,
                                                           -1)
        flat = np.argmin(score, axis=1)
        rows = np.arange(shifted1.size)
        best_force = forces[rows, flat // points]
        best_location = locations[rows, flat % points]
        return best_force, best_location, np.sqrt(0.5 * score[rows, flat])

    def invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                     location_hint: Optional[np.ndarray] = None
                     ) -> BatchForceLocationEstimate:
        """Estimate (force, location) for N phase pairs at once.

        Vectorizes the coarse-plus-zoom search of :meth:`invert` over
        the whole batch: each stage evaluates a single broadcast
        residual tensor instead of N Python-level grid searches.  The
        search schedule is identical to the scalar path, so results
        match :meth:`invert` element-wise.

        Args:
            phi1 / phi2: Measured differential phases [rad], shape (N,)
                (broadcast-compatible shapes are accepted).
            location_hint: Optional prior location(s) [m] — a scalar or
                shape-(N,) array; restricts each sample's initial
                search to +/- 10 mm around its hint.
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
        active = np.flatnonzero(touched)
        if active.size:
            force_low, force_high = self.model.force_range
            hint = None
            if location_hint is not None:
                hint = np.broadcast_to(
                    np.atleast_1d(np.asarray(location_hint, dtype=float)),
                    (count,))[active]
            low, high = self.location_span(hint)
            location_low = np.full(active.size, low)
            location_high = np.full(active.size, high)
            measured1 = phi1[active] + np.pi
            measured2 = phi2[active] + np.pi
            span_force_low = np.full(active.size, force_low)
            span_force_high = np.full(active.size, force_high)
            best = self._batch_grid_search(
                measured1, measured2, span_force_low, span_force_high,
                location_low, location_high, 25)
            for zoom in (0.15, 0.03):
                force_radius = zoom * (force_high - force_low)
                location_radius = zoom * (location_high - location_low)
                span_force_low = np.maximum(force_low,
                                            best[0] - force_radius)
                span_force_high = np.minimum(force_high,
                                             best[0] + force_radius)
                span_location_low = np.maximum(location_low,
                                               best[1] - location_radius)
                span_location_high = np.minimum(location_high,
                                                best[1] + location_radius)
                best = self._batch_grid_search(
                    measured1, measured2, span_force_low, span_force_high,
                    span_location_low, span_location_high, 21)
            force[active], location[active], residual[active] = best
        return BatchForceLocationEstimate(force=force, location=location,
                                          residual=residual,
                                          touched=touched)
