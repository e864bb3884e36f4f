"""S-parameter to ABCD conversion, the inverse of the program's one.

The program converts cascaded ABCD chains to S-parameters
(:func:`repro.rf.twoport.abcd_to_s`) and never back; the tests check
that conversion by inverting it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RFError
from repro.rf.twoport import _as_matrix_stack


def s_to_abcd(s: np.ndarray, reference_impedance: float = 50.0) -> np.ndarray:
    """Convert S-parameter matrices (..., 2, 2) to ABCD."""
    if reference_impedance <= 0.0:
        raise RFError(
            f"reference impedance must be positive, got {reference_impedance}"
        )
    s11 = s[..., 0, 0]
    s12 = s[..., 0, 1]
    s21 = s[..., 1, 0]
    s22 = s[..., 1, 1]
    z0 = reference_impedance
    if np.any(s21 == 0):
        raise RFError("S21 of zero: network has no through path, ABCD "
                      "representation is singular")
    a = ((1.0 + s11) * (1.0 - s22) + s12 * s21) / (2.0 * s21)
    b = z0 * ((1.0 + s11) * (1.0 + s22) - s12 * s21) / (2.0 * s21)
    c = ((1.0 - s11) * (1.0 - s22) - s12 * s21) / (2.0 * s21 * z0)
    d = ((1.0 - s11) * (1.0 + s22) + s12 * s21) / (2.0 * s21)
    return _as_matrix_stack(a, b, c, d)
