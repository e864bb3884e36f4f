"""The Gauss-Newton inverse against the grid-search oracle.

Three contracts:

* **Oracle gate.**  On both carriers, at 1 and 5 degrees of phase
  noise, the solver's residual is at most the exhaustive grid's
  (``tests/oracles/grid.py``) plus 1e-4 rad on at least 99% of rows,
  and its force and location error quantiles are no more than 2% above
  the grid's.  The bound is one-sided: the solver is continuous, the
  grid's final pitch is 0.0225 N x 0.12 mm, so the solver may be
  *more* accurate (by up to ~5% in location at 2.4 GHz and 1 degree).
* **Properties.**  For arbitrary finite phases, edges included, every
  touched row is inside the calibrated domain with a finite residual,
  and every row equals its inversion alone.
* **Working set.**  ``invert_batch`` at N=512 peaks at no more than
  1 MiB of traced allocations (the grid peaked at 9.2 MiB).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import ForceLocationEstimator
from repro.experiments.scenarios import calibrated_model
from tests.oracles.grid import grid_invert_batch

#: Rows per oracle-gate configuration.
GATE_ROWS = 2000

#: Rows per grid-oracle call (bounds the oracle's (N, 25, 25) grids).
ORACLE_CHUNK = 250


def _noisy_presses(model, count, noise_deg, seed):
    """True (force, location) and wrapped noisy phases of ``count``
    presses drawn uniformly over the calibrated domain."""
    rng = np.random.default_rng(seed)
    low, high = model.force_range
    forces = rng.uniform(low, high, count)
    locations = rng.uniform(model.locations[0], model.locations[-1], count)
    phases = np.stack(model.predict_batch(forces, locations))
    phases += rng.normal(0.0, np.radians(noise_deg), phases.shape)
    phases = np.remainder(phases + np.pi, 2.0 * np.pi) - np.pi
    return forces, locations, phases[0], phases[1]


def _grid(estimator, phi1, phi2):
    parts = [grid_invert_batch(estimator, phi1[start:start + ORACLE_CHUNK],
                               phi2[start:start + ORACLE_CHUNK])
             for start in range(0, phi1.size, ORACLE_CHUNK)]
    return {name: np.concatenate([getattr(part, name) for part in parts])
            for name in ("force", "location", "residual", "touched")}


class TestOracleGate:
    @pytest.mark.parametrize("carrier", [900e6, 2.4e9])
    @pytest.mark.parametrize("noise_deg", [1.0, 5.0])
    def test_residual_and_accuracy_match_the_grid(self, carrier,
                                                  noise_deg):
        model = calibrated_model(carrier, fast=True)
        estimator = ForceLocationEstimator(model)
        forces, locations, phi1, phi2 = _noisy_presses(
            model, GATE_ROWS, noise_deg, seed=int(carrier / 1e8 + noise_deg))
        solved = estimator.invert_batch(phi1, phi2)
        grid = _grid(estimator, phi1, phi2)
        assert np.array_equal(solved.touched, grid["touched"])
        touched = solved.touched
        assert touched.mean() > 0.9
        within = solved.residual[touched] <= grid["residual"][touched] + 1e-4
        assert within.mean() >= 0.99, (
            f"residual exceeds the grid's + 1e-4 rad on "
            f"{1.0 - within.mean():.2%} of rows")
        quantiles = [50, 95, 99]
        for name, truth in (("force", forces), ("location", locations)):
            ours = np.percentile(np.abs(getattr(solved, name) - truth)
                                 [touched], quantiles)
            reference = np.percentile(np.abs(grid[name] - truth)[touched],
                                      quantiles)
            assert np.all(ours <= 1.02 * reference), (
                f"{name} error p50/p95/p99 {ours} vs grid {reference}")


#: The default touch threshold [rad]; phases at and around it are edges.
THRESHOLD = np.radians(5.0)

#: Finite phases, with the wrap and both sides of the threshold.
_phase = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False,
                   allow_infinity=False) | st.sampled_from([
    np.pi, -np.pi, 0.0, THRESHOLD, -THRESHOLD,
    np.nextafter(THRESHOLD, 0.0), -np.nextafter(THRESHOLD, 0.0),
    np.nextafter(THRESHOLD, 1.0)])

#: Hints whose +/-10 mm window meets the 20-60 mm calibrated span.
_hint = st.floats(min_value=0.0101, max_value=0.0699, allow_nan=False)


class TestSolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_are_in_domain_and_independent(self, model_900, data):
        estimator = ForceLocationEstimator(model_900)
        rows = data.draw(st.lists(st.tuples(_phase, _phase), min_size=1,
                                  max_size=8))
        phi1 = np.array([p for p, _ in rows])
        phi2 = np.array([p for _, p in rows])
        hints = data.draw(st.none() | st.lists(
            _hint, min_size=len(rows), max_size=len(rows)).map(np.array))
        batch = estimator.invert_batch(phi1, phi2, location_hint=hints)
        force_low, force_high = estimator.model.force_range
        for index in range(len(rows)):
            hint = None if hints is None else hints[index]
            alone = estimator.invert_batch(
                phi1[index:index + 1], phi2[index:index + 1],
                location_hint=(None if hints is None
                               else hints[index:index + 1]))
            assert alone[0] == batch[index]
            assert estimator.invert(phi1[index], phi2[index],
                                    location_hint=hint) == batch[index]
            estimate = batch[index]
            if not estimate.touched:
                assert (estimate.force, estimate.location,
                        estimate.residual) == (0.0, 0.0, 0.0)
                continue
            low, high = estimator.location_span(hint)
            assert np.isfinite(estimate.force)
            assert force_low <= estimate.force <= force_high
            assert low <= estimate.location <= high
            assert np.isfinite(estimate.residual)
            assert estimate.residual >= 0.0

    def test_threshold_edge_is_touched(self, model_900):
        """Exactly the threshold at one port counts as contact."""
        estimator = ForceLocationEstimator(model_900)
        assert estimator.touch_threshold == THRESHOLD
        batch = estimator.invert_batch(
            np.array([np.nextafter(THRESHOLD, 0.0), THRESHOLD]),
            np.array([0.0, 0.0]))
        assert batch.touched.tolist() == [False, True]


class TestWorkingSet:
    def test_peak_traced_memory_at_512_rows(self, model_900):
        estimator = ForceLocationEstimator(model_900)
        _, _, phi1, phi2 = _noisy_presses(model_900, 512, 1.0, seed=3)
        estimator.invert_batch(phi1, phi2)
        tracemalloc.start()
        try:
            estimator.invert_batch(phi1, phi2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"peak {peak / 1024:.0f} KiB at N=512"
