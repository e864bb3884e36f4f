"""Differential phase extraction (paper Eqns. 4-5).

The force observable is the phase *jump* of a readout tone between two
phase groups: conjugate-multiplying a group's harmonic vector with a
reference group's cancels the subcarrier-dependent air-propagation
phase exp(-j 2 pi k F d/c) and every other static factor, leaving only
the sensor's phase change.  Averaging the conjugate product over
subcarriers before taking the angle gives the paper's wideband
averaging gain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from repro.errors import EstimationError

if TYPE_CHECKING:  # annotations only: serving sessions never load the reader
    from repro.core.harmonics import HarmonicMatrix

ArrayLike = Union[np.ndarray]


def _conjugate_product(reference: np.ndarray, observed: np.ndarray) -> np.ndarray:
    reference = np.asarray(reference, dtype=complex)
    observed = np.asarray(observed, dtype=complex)
    if reference.shape != observed.shape:
        raise EstimationError(
            f"harmonic vectors disagree in shape: {reference.shape} vs "
            f"{observed.shape}"
        )
    return observed * np.conj(reference)


def differential_phase(reference: np.ndarray, observed: np.ndarray) -> float:
    """Subcarrier-averaged phase change [rad] between two harmonic vectors.

    ``angle( sum_k observed[k] conj(reference[k]) )`` — the coherent
    average weights subcarriers by their signal power, which is the
    maximum-ratio way to combine them.
    """
    product = _conjugate_product(reference, observed)
    total = product.sum()
    if total == 0:
        raise EstimationError("zero harmonic energy: no sensor signal found")
    return float(np.angle(total))


def phase_trajectory(matrix: HarmonicMatrix,
                     reference_group: int = 0) -> np.ndarray:
    """Phase of every group relative to a reference group [rad].

    Group-to-group jumps are accumulated (Eqn. 4 applied sequentially
    and summed) so the trajectory unwraps naturally even when the total
    excursion exceeds pi.
    """
    groups = matrix.groups
    if not 0 <= reference_group < groups:
        raise EstimationError(
            f"reference group {reference_group} out of range [0, {groups})"
        )
    steps = np.zeros(groups)
    for g in range(1, groups):
        steps[g] = differential_phase(matrix.values[g - 1], matrix.values[g])
    cumulative = np.cumsum(steps)
    return cumulative - cumulative[reference_group]


def phase_stability_deg(matrix: HarmonicMatrix) -> float:
    """Std-dev [deg] of the group phases with no press applied.

    The paper's Fig. 18 metric: how stable the readout phase is across
    groups at a given deployment range.
    """
    if matrix.groups < 2:
        raise EstimationError("need at least 2 groups to measure stability")
    trajectory = np.degrees(phase_trajectory(matrix))
    return float(np.std(trajectory))


def harmonic_snr_db(matrix: HarmonicMatrix) -> float:
    """Rough per-group SNR [dB] of the tone from group-to-group scatter."""
    if matrix.groups < 2:
        raise EstimationError("need at least 2 groups to estimate SNR")
    mean_vector = matrix.values.mean(axis=0)
    scatter = matrix.values - mean_vector[None, :]
    signal = float(np.mean(np.abs(mean_vector) ** 2))
    noise = float(np.mean(np.abs(scatter) ** 2))
    if noise == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(max(signal, 1e-300) / noise))
