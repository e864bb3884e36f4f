"""Gap-contact solver: where does the trace short against the ground?

The core mechanical question in WiForce (paper section 3.1): a composite
soft beam is suspended over the ground trace by an air gap ``g``.  A
contact force presses it down; the beam touches ground over a finite
region whose edges are the *shorting points*.  As force grows the edges
spread outward; pressing off-centre makes the spread asymmetric, and the
edge near the closer beam end saturates.  These edge trajectories are
exactly what the RF layer turns into reflected phase.

Two models are provided:

* :class:`GapContactSolver` — finite-difference Euler-Bernoulli beam
  with a unilateral gap constraint, solved with an active-set method.
  The point force is spread into a pressure patch by the soft layer
  (:class:`PressureKernel`), which is what makes the sensor force
  sensitive at all (a bare thin trace collapses to a single contact
  point, Fig. 4a).
* :class:`ContactMap` — a precomputed (force, location) -> (left, right)
  lookup table with bilinear interpolation, for the thousands of
  evaluations the end-to-end experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.cache import get_cache
from repro.errors import ConfigurationError, ContactSolverError
from repro.mechanics.beam import CompositeBeam

#: Artifact version of the cached (force, location) edge tables.  Bump
#: whenever the solver, the sampling, or the denoising below changes
#: the numbers a :class:`ContactMap` would produce.
CONTACT_TABLES_VERSION = 1


@dataclass(frozen=True)
class ContactPatch:
    """Result of a contact solve.

    Attributes:
        force: Applied force [N].
        location: Force application point [m] from the beam's left end.
        left: Left shorting point [m], or ``None`` if no contact.
        right: Right shorting point [m], or ``None`` if no contact.
        max_deflection: Peak downward deflection [m].
    """

    force: float
    location: float
    left: Optional[float]
    right: Optional[float]
    max_deflection: float

    @property
    def in_contact(self) -> bool:
        """True when the trace touches the ground trace somewhere."""
        return self.left is not None

    @property
    def width(self) -> float:
        """Contact width [m]; zero when not in contact."""
        if self.left is None or self.right is None:
            return 0.0
        return self.right - self.left


class PressureKernel:
    """Spread a point force into a pressure patch via the soft layer.

    A thick soft layer distributes an indenter's point load over a patch
    on the trace below.  We model the patch with a raised-cosine bump of
    half-width ``a(F) = base_half_width + hertz_coefficient * F**(1/3)``:
    the constant term captures geometric spreading through the layer
    thickness, and the cube-root term the Hertz-like growth of the
    indenter's own contact patch with load.  The kernel integrates to
    the applied force (patches clipped by the beam ends are
    renormalised so no force is lost).
    """

    def __init__(self, base_half_width: float, hertz_coefficient: float = 0.0,
                 reference_force: float = 1.0):
        if base_half_width <= 0.0:
            raise ConfigurationError(
                f"base half width must be positive, got {base_half_width}"
            )
        if hertz_coefficient < 0.0:
            raise ConfigurationError(
                f"hertz coefficient must be non-negative, got {hertz_coefficient}"
            )
        if reference_force <= 0.0:
            raise ConfigurationError(
                f"reference force must be positive, got {reference_force}"
            )
        self._base = float(base_half_width)
        self._hertz = float(hertz_coefficient)
        self._ref = float(reference_force)

    @classmethod
    def for_soft_layer(cls, thickness: float) -> "PressureKernel":
        """Kernel for a soft layer of the given thickness [m].

        Geometric spreading through an incompressible elastomer layer
        gives a patch half-width comparable to the layer thickness; the
        Hertz term adds mild growth with load.
        """
        return cls(base_half_width=0.9 * thickness,
                   hertz_coefficient=0.25 * thickness)

    def half_width(self, force: float) -> float:
        """Pressure-patch half-width [m] at the given force [N]."""
        if force < 0.0:
            raise ConfigurationError(f"force must be non-negative, got {force}")
        return self._base + self._hertz * (force / self._ref) ** (1.0 / 3.0)

    def cache_spec(self) -> dict:
        """The kernel's defining parameters (artifact-cache key part)."""
        return {"base_half_width": self._base,
                "hertz_coefficient": self._hertz,
                "reference_force": self._ref}

    def pressure(self, x: np.ndarray, location: float, force: float) -> np.ndarray:
        """Distributed load q(x) [N/m] on the grid ``x`` [m]."""
        x = np.asarray(x, dtype=float)
        if force == 0.0:
            return np.zeros_like(x)
        a = self.half_width(force)
        u = (x - location) / a
        bump = np.where(np.abs(u) < 1.0, np.cos(0.5 * np.pi * u) ** 2, 0.0)
        total = np.trapezoid(bump, x)
        if total <= 0.0:
            # Patch fell between grid nodes; put the force on the
            # nearest node as a discrete load.
            bump = np.zeros_like(x)
            idx = int(np.argmin(np.abs(x - location)))
            bump[idx] = 1.0
            dx = x[1] - x[0]
            return bump * (force / dx)
        return bump * (force / total)


@lru_cache(maxsize=64)
def _assembled_operator(nodes: int, dx: float, bending_stiffness: float,
                        foundation: float) -> np.ndarray:
    """Assemble the FD bending operator once per (grid, EI, k_f).

    The operator depends only on the grid and the beam's bending
    stiffness — not on the applied load — so one assembly serves every
    ``(force, location)`` solve of a :class:`ContactMap` build *and*
    every solver instance with the same discretisation (Monte-Carlo
    campaigns construct hundreds of them).  The pentadiagonal stencil
    is assembled in ``solve_banded``'s (5, n) layout: row ``2 - k``
    holds diagonal ``k``, entry ``(i, i + k)`` in column ``i + k``.
    Returns a read-only array; per-solve mutation always happens on
    copies.
    """
    n = int(nodes)
    coefficient = bending_stiffness / dx ** 4
    banded = np.zeros((5, n))
    interior = np.arange(2, n - 2)
    for offset, weight in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0),
                           (2, 1.0)):
        banded[2 - offset, interior + offset] = weight
    # Nodes adjacent to the supports: w''=0 with w=0 at the support
    # implies the ghost value w[-1] = -w[1].
    banded[(2, 1, 0), (1, 2, 3)] = (5.0, -4.0, 1.0)
    banded[(4, 3, 2), (n - 4, n - 3, n - 2)] = (1.0, -4.0, 5.0)
    # Supports themselves are Dirichlet rows (w = 0).
    banded *= coefficient
    banded[2, 1:n - 1] += foundation
    banded[2, 0] = 1.0
    banded[2, n - 1] = 1.0
    banded.setflags(write=False)
    return banded


class GapContactSolver:
    """Finite-difference beam-with-gap contact solver (active set).

    Discretises ``EI w'''' + k_f w = q(x) - lambda(x)`` on a uniform
    grid with simply supported ends (the trace is anchored at the SMA
    connector blocks), subject to the unilateral constraint
    ``w(x) <= gap`` with contact reaction ``lambda >= 0``
    (complementarity).  Downward deflection is positive.

    The ``k_f w`` term is a Winkler foundation modelling the restoring
    action of the thick soft layer: a local press dimples the elastomer
    instead of translating the whole beam, so deflections decay over
    the characteristic length ``(4 EI / k_f)**(1/4)``.  This is what
    keeps off-centre presses from collapsing the entire trace and
    produces the paper's asymmetric edge trajectories (Fig. 5a): the
    long floppy side flattens early (stationary far shorting point)
    while the short stiff side keeps yielding ground gradually.

    The ground is a very stiff unilateral foundation
    (``lambda = k_ground * (w - gap)_+``) and the piecewise-linear
    system is solved by a semi-smooth Newton (primal-dual active set)
    iteration with ground-stiffness continuation, which suppresses the
    even/odd chattering the plain biharmonic operator is prone to.
    """

    #: Hard cap on active-set sweeps per continuation stage.
    MAX_ITERATIONS = 600

    #: Ground-stiffness continuation ladder [N/m^2].  Starting soft
    #: smooths the first active-set estimate; the final value keeps
    #: residual penetration far below the grid resolution that actually
    #: limits edge accuracy.
    GROUND_STIFFNESS_STAGES = (1e6, 1e8, 1e10)

    def __init__(self, beam: CompositeBeam, gap: float,
                 kernel: PressureKernel, nodes: int = 321,
                 foundation_stiffness: float = 0.0):
        if gap <= 0.0:
            raise ConfigurationError(f"gap must be positive, got {gap}")
        if nodes < 16:
            raise ConfigurationError(f"need at least 16 nodes, got {nodes}")
        if foundation_stiffness < 0.0:
            raise ConfigurationError(
                f"foundation stiffness must be non-negative, got "
                f"{foundation_stiffness}"
            )
        self._beam = beam
        self._gap = float(gap)
        self._kernel = kernel
        self._n = int(nodes)
        self._foundation = float(foundation_stiffness)
        self._x = np.linspace(0.0, beam.length, self._n)
        self._dx = self._x[1] - self._x[0]
        self._banded = _assembled_operator(
            self._n, float(self._dx), float(beam.bending_stiffness),
            self._foundation)

    @property
    def grid(self) -> np.ndarray:
        """The solver grid [m] (read-only view)."""
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def gap(self) -> float:
        """Air gap between trace and ground [m]."""
        return self._gap

    @property
    def beam(self) -> CompositeBeam:
        """The beam being solved."""
        return self._beam

    @property
    def foundation_stiffness(self) -> float:
        """Winkler foundation stiffness k_f [N/m^2]."""
        return self._foundation

    def cache_spec(self) -> dict:
        """Everything a solve's result depends on, as key material.

        Two solvers with equal specs produce bit-identical
        :meth:`solve` results, so the spec is what content-addresses
        cached :class:`ContactMap` tables.
        """
        return {
            "bending_stiffness": float(self._beam.bending_stiffness),
            "length": float(self._beam.length),
            "gap": self._gap,
            "nodes": self._n,
            "foundation_stiffness": self._foundation,
            "kernel": self._kernel.cache_spec(),
            "ground_stiffness_stages": list(self.GROUND_STIFFNESS_STAGES),
            "max_iterations": self.MAX_ITERATIONS,
        }

    def solve(self, force: float, location: float) -> ContactPatch:
        """Solve the contact problem for a point force.

        Args:
            force: Applied force [N], >= 0.
            location: Application point [m] in [0, beam length].

        Returns:
            The resulting :class:`ContactPatch`.

        Raises:
            ConfigurationError: Invalid force or location.
            ContactSolverError: Active-set iteration did not converge.
        """
        if force < 0.0:
            raise ConfigurationError(f"force must be non-negative, got {force}")
        if not 0.0 <= location <= self._beam.length:
            raise ConfigurationError(
                f"location {location} outside beam [0, {self._beam.length}]"
            )
        if force == 0.0:
            return ContactPatch(force, location, None, None, 0.0)
        # Imported here, not at module level: solves run only when a
        # contact table misses the artifact cache, so a warm process
        # never pays for loading scipy.
        from scipy.linalg import solve_banded

        n = self._n
        load = self._kernel.pressure(self._x, location, force)
        rhs_free = load.copy()
        rhs_free[0] = 0.0
        rhs_free[n - 1] = 0.0

        active = np.zeros(n, dtype=bool)
        deflection = np.zeros(n)
        for stiffness in self.GROUND_STIFFNESS_STAGES:
            seen = set()
            for _ in range(self.MAX_ITERATIONS):
                banded = self._banded.copy()
                rhs = rhs_free.copy()
                idx = np.flatnonzero(active)
                banded[2, idx] += stiffness
                rhs[idx] += stiffness * self._gap
                deflection = solve_banded((2, 2), banded, rhs)
                # Semi-smooth Newton set update: a node is in contact
                # when its ground-spring force would be compressive.
                new_active = deflection > self._gap
                new_active[0] = new_active[n - 1] = False
                if np.array_equal(new_active, active):
                    break
                key = new_active.tobytes()
                if key in seen:
                    # Chattering between two sets: take their union,
                    # which brackets the true contact set to within one
                    # grid cell, and move to the next stiffness stage.
                    active = active | new_active
                    break
                seen.add(key)
                active = new_active
            else:
                raise ContactSolverError(
                    f"active-set iteration did not converge for "
                    f"force={force} N at {location} m"
                )

        contact_nodes = np.flatnonzero(active)
        if contact_nodes.size == 0:
            return ContactPatch(force, location, None, None,
                                float(deflection.max()))
        # Sub-grid edge localization: the shorting edge is where the
        # deflection crosses the gap, which generally falls between two
        # FD nodes.  Reporting the first active node quantizes the edge
        # to the grid pitch and makes the phase transduction stepped in
        # force; interpolating the crossing keeps it continuous.
        first, last = int(contact_nodes[0]), int(contact_nodes[-1])
        left = float(self._x[first])
        right = float(self._x[last])
        if first > 0 and deflection[first] > deflection[first - 1]:
            fraction = ((self._gap - deflection[first - 1])
                        / (deflection[first] - deflection[first - 1]))
            fraction = min(max(fraction, 0.0), 1.0)
            left = float(self._x[first - 1]
                         + fraction * (self._x[first] - self._x[first - 1]))
        if last < n - 1 and deflection[last] > deflection[last + 1]:
            fraction = ((self._gap - deflection[last + 1])
                        / (deflection[last] - deflection[last + 1]))
            fraction = min(max(fraction, 0.0), 1.0)
            right = float(self._x[last + 1]
                          - fraction * (self._x[last + 1] - self._x[last]))
        return ContactPatch(force, location, left, right,
                            float(deflection.max()))


def _isotonic_non_decreasing(values: np.ndarray) -> np.ndarray:
    """Least-squares non-decreasing fit (pool-adjacent-violators)."""
    level_values = []
    level_weights = []
    for value in np.asarray(values, dtype=float):
        level_values.append(value)
        level_weights.append(1.0)
        while (len(level_values) > 1
               and level_values[-2] > level_values[-1]):
            merged_weight = level_weights[-2] + level_weights[-1]
            merged_value = (level_values[-2] * level_weights[-2]
                            + level_values[-1] * level_weights[-1]
                            ) / merged_weight
            level_values[-2:] = [merged_value]
            level_weights[-2:] = [merged_weight]
    fitted = np.empty(len(values), dtype=float)
    position = 0
    for value, weight in zip(level_values, level_weights):
        count = int(round(weight))
        fitted[position:position + count] = value
        position += count
    return fitted


class ContactMap:
    """Precomputed (force, location) -> shorting-edge lookup table.

    The end-to-end experiments evaluate the transduction thousands of
    times; a dense per-call FD solve would dominate the runtime.  The
    map samples the solver on a (force, location) grid once and then
    answers queries with bilinear interpolation.  Below the first-
    contact force the sensor reports no contact, so the force grid
    starts at a small positive epsilon and queries below the sampled
    contact threshold return an out-of-contact patch.

    The sampled edge tables are deterministic in the solver spec and
    the grids, so the build is memoized through
    :mod:`repro.cache` — any process on the machine that has built an
    identically-parameterized map (an earlier test run, a sibling
    campaign worker) supplies the tables and the FD solve loop is
    skipped entirely.  ``REPRO_CACHE=0`` recomputes, bit-identically.
    """

    def __init__(self, solver: GapContactSolver,
                 max_force: float = 10.0,
                 force_points: int = 48,
                 location_points: int = 65,
                 location_margin: float = 0.05):
        if max_force <= 0.0:
            raise ConfigurationError(f"max force must be positive, got {max_force}")
        self._solver = solver
        length = solver.beam.length
        margin = location_margin * length
        self._forces = np.linspace(max_force / force_points, max_force,
                                   force_points)
        self._locations = np.linspace(margin, length - margin, location_points)
        self._left = np.full((force_points, location_points), np.nan)
        self._right = np.full((force_points, location_points), np.nan)
        self._build()

    def cache_spec(self) -> dict:
        """Key material addressing this map's sampled tables."""
        return {
            "solver": self._solver.cache_spec(),
            "forces": self._forces,
            "locations": self._locations,
        }

    def _build(self) -> None:
        payload = get_cache().get_or_compute(
            "mechanics.contact_tables", CONTACT_TABLES_VERSION,
            self.cache_spec(), self._compute_tables,
            encode=lambda tables: {"left": tables[0],
                                   "right": tables[1]},
            decode=lambda encoded: (
                np.array(encoded["left"], dtype=float),
                np.array(encoded["right"], dtype=float)),
        )
        self._left, self._right = payload

    def _compute_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cold path: one FD solve per (force, location) sample."""
        for j, loc in enumerate(self._locations):
            for i, force in enumerate(self._forces):
                patch = self._solver.solve(float(force), float(loc))
                if patch.in_contact:
                    self._left[i, j] = patch.left
                    self._right[i, j] = patch.right
        self._denoise()
        return self._left, self._right

    def _denoise(self) -> None:
        """Regularize the sampled edge tables along the force axis.

        Physically the contact region only widens as force grows, so at
        a fixed location the left edge is non-increasing and the right
        edge non-decreasing in force.  The active-set solver's converged
        contact set can chatter by a node or two where the beam meets
        the gap near-tangentially, which shows up as non-monotone
        sub-millimetre jitter in the sampled edges — noise the phase
        transduction amplifies.  A three-point average followed by an
        isotonic (monotone least-squares) projection removes the
        chatter while preserving the physical trend.
        """
        for table, orientation in ((self._left, -1.0), (self._right, 1.0)):
            for j in range(table.shape[1]):
                column = table[:, j]
                valid = ~np.isnan(column)
                if int(valid.sum()) < 3:
                    continue
                values = column[valid] * orientation
                smoothed = values.copy()
                smoothed[1:-1] = (values[:-2] + values[1:-1]
                                  + values[2:]) / 3.0
                column[valid] = (_isotonic_non_decreasing(smoothed)
                                 * orientation)

    @property
    def max_force(self) -> float:
        """Largest tabulated force [N]."""
        return float(self._forces[-1])

    def edges(self, force: float, location: float) -> ContactPatch:
        """Interpolated shorting edges for a (force, location) query.

        Queries outside the tabulated grid are clipped to its hull; a
        query below the local contact threshold returns a patch with
        ``in_contact`` False.
        """
        if force < 0.0:
            raise ConfigurationError(f"force must be non-negative, got {force}")
        if force < self._forces[0]:
            # Below the first tabulated force the map cannot resolve the
            # contact threshold; report no contact (the untouched state).
            return ContactPatch(force, location, None, None, 0.0)
        f = float(np.clip(force, self._forces[0], self._forces[-1]))
        loc = float(np.clip(location, self._locations[0], self._locations[-1]))
        i = int(np.searchsorted(self._forces, f) - 1)
        i = max(0, min(i, len(self._forces) - 2))
        j = int(np.searchsorted(self._locations, loc) - 1)
        j = max(0, min(j, len(self._locations) - 2))
        ti = (f - self._forces[i]) / (self._forces[i + 1] - self._forces[i])
        tj = (loc - self._locations[j]) / (
            self._locations[j + 1] - self._locations[j])

        def _interp(table: np.ndarray) -> float:
            corners = table[i: i + 2, j: j + 2]
            if np.isnan(corners).any():
                return float("nan")
            row0 = corners[0, 0] * (1 - tj) + corners[0, 1] * tj
            row1 = corners[1, 0] * (1 - tj) + corners[1, 1] * tj
            return float(row0 * (1 - ti) + row1 * ti)

        left = _interp(self._left)
        right = _interp(self._right)
        if np.isnan(left) or np.isnan(right):
            return ContactPatch(force, location, None, None, 0.0)
        return ContactPatch(force, location, left, right, self._solver.gap)
