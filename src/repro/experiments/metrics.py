"""Error metrics used across the evaluation (CDFs, medians).

The paper scores force and location accuracy with empirical CDFs of
absolute error against the load-cell/actuator ground truth, and quotes
medians.  These helpers keep that arithmetic in one place.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def empirical_cdf(errors: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample of absolute errors.

    Returns (sorted values, cumulative probabilities in (0, 1]).
    """
    values = np.sort(np.abs(np.asarray(list(errors), dtype=float)))
    if values.size == 0:
        raise ConfigurationError("cannot build a CDF from an empty sample")
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities


def median_absolute_error(errors: Sequence[float]) -> float:
    """Median of absolute errors."""
    values = np.abs(np.asarray(list(errors), dtype=float))
    if values.size == 0:
        raise ConfigurationError("cannot take a median of an empty sample")
    return float(np.median(values))


def percentile_absolute_error(errors: Sequence[float],
                              percentile: float) -> float:
    """Given percentile (0-100) of absolute errors."""
    if not 0.0 <= percentile <= 100.0:
        raise ConfigurationError(
            f"percentile must be in [0, 100], got {percentile}"
        )
    values = np.abs(np.asarray(list(errors), dtype=float))
    if values.size == 0:
        raise ConfigurationError("cannot take a percentile of an empty sample")
    return float(np.percentile(values, percentile))
