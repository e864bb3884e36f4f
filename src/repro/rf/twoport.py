"""Two-port network algebra (ABCD and S-parameters), vectorized.

All builders and transforms operate on arrays shaped ``(..., 2, 2)``
where the leading axes typically run over frequency, so a full VNA
sweep is a single vectorized evaluation.  The sensor line with its
shorting points is modelled exactly as a cascade of line sections and
shunt contact impedances (see :mod:`repro.rf.elements`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import RFError

FloatOrArray = Union[float, np.ndarray]


def _as_matrix_stack(values_a: FloatOrArray, values_b: FloatOrArray,
                     values_c: FloatOrArray, values_d: FloatOrArray) -> np.ndarray:
    """Stack four broadcastable scalars/arrays into (..., 2, 2)."""
    a, b, c, d = np.broadcast_arrays(
        np.asarray(values_a, dtype=complex),
        np.asarray(values_b, dtype=complex),
        np.asarray(values_c, dtype=complex),
        np.asarray(values_d, dtype=complex),
    )
    matrix = np.empty(a.shape + (2, 2), dtype=complex)
    matrix[..., 0, 0] = a
    matrix[..., 0, 1] = b
    matrix[..., 1, 0] = c
    matrix[..., 1, 1] = d
    return matrix


def abcd_shunt(impedance: FloatOrArray) -> np.ndarray:
    """ABCD matrix of a shunt impedance Z to ground."""
    z = np.asarray(impedance, dtype=complex)
    if np.any(z == 0):
        raise RFError("shunt impedance of exactly zero is singular; use a "
                      "small contact resistance instead")
    y = 1.0 / z
    return _as_matrix_stack(np.ones_like(y), np.zeros_like(y), y,
                            np.ones_like(y))


def abcd_line(characteristic_impedance: FloatOrArray,
              propagation_constant: FloatOrArray,
              length: float) -> np.ndarray:
    """ABCD matrix of a transmission-line section.

    Args:
        characteristic_impedance: Z0 [ohm].
        propagation_constant: gamma = alpha + j beta [1/m]; may be an
            array over frequency.
        length: Physical length [m].
    """
    if length < 0.0:
        raise RFError(f"line length must be non-negative, got {length}")
    z0 = np.asarray(characteristic_impedance, dtype=complex)
    gamma_l = np.asarray(propagation_constant, dtype=complex) * length
    cosh = np.cosh(gamma_l)
    sinh = np.sinh(gamma_l)
    return _as_matrix_stack(cosh, z0 * sinh, sinh / z0, cosh)


def cascade(*matrices: np.ndarray) -> np.ndarray:
    """Cascade ABCD matrices left to right (port 1 to port 2)."""
    if not matrices:
        raise RFError("cascade needs at least one matrix")
    result = np.asarray(matrices[0], dtype=complex)
    for matrix in matrices[1:]:
        result = result @ np.asarray(matrix, dtype=complex)
    return result


def abcd_to_s(abcd: np.ndarray, reference_impedance: float = 50.0) -> np.ndarray:
    """Convert ABCD matrices (..., 2, 2) to S-parameters."""
    if reference_impedance <= 0.0:
        raise RFError(
            f"reference impedance must be positive, got {reference_impedance}"
        )
    a = abcd[..., 0, 0]
    b = abcd[..., 0, 1]
    c = abcd[..., 1, 0]
    d = abcd[..., 1, 1]
    z0 = reference_impedance
    denominator = a + b / z0 + c * z0 + d
    if np.any(denominator == 0):
        raise RFError("singular network: ABCD to S conversion failed")
    s11 = (a + b / z0 - c * z0 - d) / denominator
    s12 = 2.0 * (a * d - b * c) / denominator
    s21 = 2.0 / denominator
    s22 = (-a + b / z0 - c * z0 + d) / denominator
    return _as_matrix_stack(s11, s12, s21, s22)


def input_reflection(s: np.ndarray, load_reflection: FloatOrArray) -> np.ndarray:
    """Reflection seen at port 1 when port 2 is terminated.

    Gamma_in = S11 + S12 S21 Gamma_L / (1 - S22 Gamma_L); this is how
    the tag looks into the sensor line with the far switch providing
    the termination.
    """
    gamma_l = np.asarray(load_reflection, dtype=complex)
    s11 = s[..., 0, 0]
    s12 = s[..., 0, 1]
    s21 = s[..., 1, 0]
    s22 = s[..., 1, 1]
    denominator = 1.0 - s22 * gamma_l
    if np.any(np.abs(denominator) < 1e-15):
        raise RFError("resonant termination: input reflection is singular")
    return s11 + s12 * s21 * gamma_l / denominator


@dataclass(frozen=True)
class TwoPort:
    """An S-parameter block over a frequency grid.

    Attributes:
        frequency: Frequency grid [Hz], shape (K,).
        s: S-parameters, shape (K, 2, 2).
        reference_impedance: Port reference impedance [ohm].
    """

    frequency: np.ndarray
    s: np.ndarray
    reference_impedance: float = 50.0

    def __post_init__(self) -> None:
        frequency = np.asarray(self.frequency, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if s.shape != frequency.shape + (2, 2):
            raise RFError(
                f"S-parameter shape {s.shape} does not match frequency "
                f"grid {frequency.shape}"
            )
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "s", s)

    @property
    def s11(self) -> np.ndarray:
        """Port-1 reflection over frequency."""
        return self.s[..., 0, 0]

    @property
    def s21(self) -> np.ndarray:
        """Forward transmission over frequency."""
        return self.s[..., 1, 0]

    @property
    def s12(self) -> np.ndarray:
        """Reverse transmission over frequency."""
        return self.s[..., 0, 1]

    @property
    def s22(self) -> np.ndarray:
        """Port-2 reflection over frequency."""
        return self.s[..., 1, 1]

    def terminated_reflection(self, load_reflection: FloatOrArray) -> np.ndarray:
        """Gamma at port 1 for the given port-2 termination."""
        return input_reflection(self.s, load_reflection)

    def flipped(self) -> "TwoPort":
        """The same network seen from port 2 (ports swapped)."""
        swapped = self.s[..., ::-1, ::-1].copy()
        return TwoPort(self.frequency, swapped, self.reference_impedance)
