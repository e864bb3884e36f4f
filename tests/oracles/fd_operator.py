"""The dense-then-banded assembly the banded FD operator replaced.

The gap-contact solver's bending operator ``EI w'''' + k_f w`` is
assembled here as a dense n x n matrix, row by row, then packed into
``solve_banded``'s (5, n) layout diagonal by diagonal.  The solver
assembles the (5, n) array directly; its numbers must equal this
reference bit for bit.
"""

from __future__ import annotations

import numpy as np


def dense_operator(nodes: int, dx: float, bending_stiffness: float,
                   foundation: float) -> np.ndarray:
    """The n x n FD operator with simply supported (Dirichlet) ends."""
    n = int(nodes)
    coefficient = bending_stiffness / dx ** 4
    matrix = np.zeros((n, n))
    interior = np.arange(2, n - 2)
    for offset, weight in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0),
                           (2, 1.0)):
        matrix[interior, interior + offset] = weight
    # Nodes adjacent to the supports: w''=0 with w=0 at the support
    # implies the ghost value w[-1] = -w[1].
    matrix[1, 1:4] = (5.0, -4.0, 1.0)
    matrix[n - 2, n - 4: n - 1] = (1.0, -4.0, 5.0)
    # Supports themselves are Dirichlet rows (w = 0).
    matrix *= coefficient
    inner = np.arange(1, n - 1)
    matrix[inner, inner] += foundation
    matrix[0, 0] = 1.0
    matrix[n - 1, n - 1] = 1.0
    return matrix


def to_banded(matrix: np.ndarray) -> np.ndarray:
    """Pack a pentadiagonal matrix into ``solve_banded`` layout."""
    n = matrix.shape[0]
    banded = np.zeros((5, n))
    for offset in range(-2, 3):
        diagonal = np.diagonal(matrix, offset)
        if offset >= 0:
            banded[2 - offset, offset:] = diagonal
        else:
            banded[2 - offset, : n + offset] = diagonal
    return banded
