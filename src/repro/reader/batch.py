"""Vectorized sounding: the simulator's fast cold path.

One cold campaign pushes ~337k OFDM frames through the sounder;
profiling :meth:`repro.reader.sounder.FrameLevelSounder.capture` shows
the per-capture cost is dominated by the per-frame AWGN draw (two
``(frames, K)`` Gaussian arrays per capture) with the rest spent on
repeated broadcast passes over the ``(frames, K)`` estimate block.
The reader pipeline never needs that block:
:meth:`FastSounder.capture_matrices` fuses capture and phase-group
extraction (:class:`repro.core.harmonics.HarmonicExtractor`), which
only consumes the per-group DFT bins at the readout tones.  White
Gaussian noise is invariant under that (unitary) projection, so the
fast path evaluates the group DFT **analytically** from per-state
coefficient sums (an ``O(frames)`` scalar reduction plus a rank-4
matmul) and draws the noise directly at the group level:
``groups x tones x K`` Gaussians instead of ``frames x K``.  With
integer-period groups this is exactly equivalent in distribution
(see DESIGN.md "Batched sounder" for the proof sketch).

Parity contract (enforced by ``tests/test_fast_sounder.py``):

* ``FastSounder.capture`` is the oracle's own
  :meth:`FrameLevelSounder.capture`, inherited unchanged, so streams
  are bit-identical, including under armed fault plans.
* ``capture_matrices`` is bounded-delta: statistically exact, with the
  tolerance justified in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReaderError
from repro.obs.registry import active
from repro.reader.sounder import FrameLevelSounder
from repro.sensor.tag import TagState

__all__ = ["FastSounder"]


class FastSounder(FrameLevelSounder):
    """Drop-in vectorized replacement for :class:`FrameLevelSounder`.

    Same constructor, same physics, same noise model, and the oracle's
    own :meth:`capture`; only the fused capture + extraction path
    (:meth:`capture_matrices`) is restructured for throughput.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Memoized per (frames,): arange(frames) * frame_period.
        self._time_base: Dict[int, np.ndarray] = {}
        # Memoized per (tone, frames, group_length): mean-removed
        # normalized DFT weights and the per-group noise variance
        # factor.
        self._basis_cache: Dict[Tuple[float, int, int],
                                Tuple[np.ndarray, np.ndarray]] = {}

    def _frame_base(self, frames: int) -> np.ndarray:
        """``arange(frames) * frame_period`` (cached, read-only)."""
        base = self._time_base.get(frames)
        if base is None:
            base = self.config.frame_times(frames)
            base.setflags(write=False)
            self._time_base[frames] = base
        return base

    # ------------------------------------------------------------------
    # harmonic-domain fast path

    def supports_matrices(self, extractor) -> bool:
        """Whether :meth:`capture_matrices` can stand in for
        ``extract(capture(...))`` for this extractor.

        Requires integer-period groups (the default configuration):
        the readout tones must land on distinct non-DC DFT bins of the
        group, which is what makes the group-level noise draw exactly
        equivalent.
        """
        length = extractor.group_length
        period = self.config.frame_period
        bins = []
        for tone in extractor.tones:
            if tone * period > 0.5:  # beyond Nyquist
                return False
            cycles = tone * length * period
            if abs(cycles - round(cycles)) > 1e-9 * max(1.0, cycles):
                return False
            bins.append(int(round(cycles)) % length)
        if 0 in bins or len(set(bins)) != len(bins):
            return False
        return True

    def _tone_basis(self, tone: float, frames: int, group_length: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized mean-removed DFT weights for one readout tone.

        Returns ``(weights, variance_factor)`` where ``weights`` are
        the per-frame complex weights the extractor would apply to a
        capture starting at t=0 and ``variance_factor`` the per-group
        ``sum |w|^2`` that scales the group-level noise.
        """
        key = (tone, frames, group_length)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        groups = frames // group_length
        base = self._frame_base(frames)
        weights = np.exp(-2j * np.pi * tone * base) / group_length
        sums = weights.reshape(groups, group_length).sum(axis=1)
        weights = weights - np.repeat(sums / group_length, group_length)
        variance = np.abs(weights.reshape(groups, group_length)
                          ) ** 2
        variance = variance.sum(axis=1)
        weights.setflags(write=False)
        variance.setflags(write=False)
        self._basis_cache[key] = (weights, variance)
        return weights, variance

    def capture_matrices(self, state: TagState, groups: int, extractor,
                         start_time: float = 0.0):
        """Fused capture + harmonic extraction for one press state.

        Equivalent to ``extractor.extract(self.capture(state, groups *
        extractor.group_length, start_time))`` in distribution, at a
        fraction of the cost: the per-group readout-tone DFT is
        evaluated analytically from per-state coefficient sums, and
        the receiver noise — white, circular, Gaussian — is drawn
        directly at the group level where the unitary DFT projection
        leaves it i.i.d.

        Raises:
            ReaderError: The extractor configuration is outside the
                fast path's support (use :meth:`supports_matrices`).
        """
        from repro.core.harmonics import HarmonicMatrix

        if groups < 1:
            raise ReaderError(f"groups must be >= 1, got {groups}")
        if not self.supports_matrices(extractor):
            raise ReaderError(
                "extractor configuration outside the fast harmonic path "
                "(needs integer-period readout tones)")
        length = extractor.group_length
        frames = groups * length
        period = self.config.frame_period
        base = self._frame_base(frames)
        times = start_time + base
        midpoints = times + 0.5 * (self.config.preamble_samples
                                   / self.config.bandwidth)
        table = self.tag.state_table(self._frequencies, state)
        delta = table - table[0][None, :]
        switch_index = self.tag.state_indices(midpoints)

        rotation: Optional[np.ndarray] = None
        if self.tag_phase_jitter > 0.0:
            step = np.radians(self.tag_phase_jitter) * np.sqrt(period)
            walk = self._jitter_phase + np.cumsum(
                self._rng.normal(0.0, step, frames))
            self._jitter_phase = float(walk[-1])
            rotation = np.exp(1j * walk)

        bins = switch_index + 4 * (np.arange(frames) // length)
        noise_std = self.effective_noise_std()
        group_times = times.reshape(groups, length).mean(axis=1)

        result: Dict[float, HarmonicMatrix] = {}
        for tone in extractor.tones:
            weights, variance = self._tone_basis(tone, frames, length)
            if rotation is not None:
                weights = weights * rotation
            # Scatter-add the complex weights into (group, switch
            # state) bins.
            coefficients = (
                np.bincount(bins, weights=weights.real,
                            minlength=4 * groups)
                + 1j * np.bincount(bins, weights=weights.imag,
                                   minlength=4 * groups)
            ).reshape(groups, 4)
            values = self._tag_gain[None, :] * (coefficients @ delta)
            # The capture's absolute start rotates every DFT weight by
            # a common factor; the noise is circular so only the
            # signal needs it.
            values = values * np.exp(-2j * np.pi * tone * start_time)
            if noise_std > 0.0:
                scale = np.sqrt(noise_std ** 2 * variance / 2.0)[:, None]
                values = values + scale * (
                    self._rng.normal(0.0, 1.0, values.shape)
                    + 1j * self._rng.normal(0.0, 1.0, values.shape))
            result[tone] = HarmonicMatrix(tone=tone, values=values,
                                          group_times=group_times)
        obs = active()
        if obs is not None:
            obs.counter("reader.harmonic_captures").increment()
            obs.counter("reader.harmonic_frames").increment(frames)
        return result
