"""The exhaustive grid-search inverse the Gauss-Newton estimator replaced.

A 25 x 25 grid over each row's calibrated span, then two 21 x 21 zooms
to +/-15% and +/-3% of the span around the running best: a final pitch
of 0.3% of the span (0.0225 N and 0.12 mm for a 0.5-8 N, 20-60 mm
model).  Derivative-free and exhaustive within each stage, so it is
the reference the solver's residual and accuracy are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import (
    BatchForceLocationEstimate,
    ForceLocationEstimator,
    _wrapped_error,
)


def _stage(model, shifted1, shifted2, force_low, force_high,
           location_low, location_high, points):
    """One grid stage over N rows with per-row spans: the C-order
    argmin of each row's (points, points) wrapped-residual grid."""
    forces = np.linspace(force_low, force_high, points, axis=-1)
    locations = np.linspace(location_low, location_high, points, axis=-1)
    grid1, grid2 = model.predict_span(forces, locations)
    error1 = _wrapped_error(shifted1[:, np.newaxis, np.newaxis], grid1,
                            out=grid1)
    error2 = _wrapped_error(shifted2[:, np.newaxis, np.newaxis], grid2,
                            out=grid2)
    score = (error1 * error1 + error2 * error2).reshape(shifted1.size, -1)
    flat = np.argmin(score, axis=1)
    rows = np.arange(shifted1.size)
    return (forces[rows, flat // points], locations[rows, flat % points],
            np.sqrt(0.5 * score[rows, flat]))


def grid_invert_batch(estimator: ForceLocationEstimator, phi1, phi2,
                      location_hint=None) -> BatchForceLocationEstimate:
    """Invert N phase pairs by grid search over ``estimator``'s model,
    with its touch threshold and location spans."""
    model = estimator.model
    phi1 = np.atleast_1d(np.asarray(phi1, dtype=float))
    phi2 = np.atleast_1d(np.asarray(phi2, dtype=float))
    count = phi1.size
    touched = ~((np.abs(phi1) < estimator.touch_threshold)
                & (np.abs(phi2) < estimator.touch_threshold))
    force, location, residual = np.zeros((3, count))
    rows = np.flatnonzero(touched)
    if rows.size:
        force_low, force_high = model.force_range
        hint = None
        if location_hint is not None:
            hint = np.broadcast_to(
                np.atleast_1d(np.asarray(location_hint, dtype=float)),
                (count,))[rows]
        low, high = estimator.location_span(hint)
        location_low = np.full(rows.size, low)
        location_high = np.full(rows.size, high)
        shifted1 = phi1[rows] + np.pi
        shifted2 = phi2[rows] + np.pi
        best = _stage(model, shifted1, shifted2,
                      np.full(rows.size, force_low),
                      np.full(rows.size, force_high),
                      location_low, location_high, 25)
        for zoom in (0.15, 0.03):
            force_radius = zoom * (force_high - force_low)
            location_radius = zoom * (location_high - location_low)
            best = _stage(
                model, shifted1, shifted2,
                np.maximum(force_low, best[0] - force_radius),
                np.minimum(force_high, best[0] + force_radius),
                np.maximum(location_low, best[1] - location_radius),
                np.minimum(location_high, best[1] + location_radius), 21)
        force[rows], location[rows], residual[rows] = best
    return BatchForceLocationEstimate(force=force, location=location,
                                      residual=residual, touched=touched)
