"""End-to-end wireless force reader.

Glues the stack together the way the paper's reader runs (sections 3.3
and 4.4): capture a baseline (untouched) stream, extract the two
readout-tone harmonic vectors, then for every press capture a stream,
conjugate against the baseline for the differential phases, and invert
the calibrated sensor model.

The tag's clock is a separate unsynchronized device (section 4.4), so
its readout tones sit slightly off the nominal frequencies and their
phases drift slowly.  The baseline capture therefore spans several
phase groups and fits a per-tone drift rate, which is de-rotated out of
every subsequent capture; for press protocols with an untouched gap
before each press, :meth:`WiForceReader.read` can also re-baseline
immediately before the press (the paper's before/after differential).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimate, ForceLocationEstimator
from repro.core.harmonics import (
    HarmonicExtractor,
    HarmonicMatrix,
    integer_period_group_length,
)
from repro.core.phase import differential_phase, phase_trajectory
from repro.errors import ReaderError
from repro.faults.inject import FaultEvent, armed as fault_armed
from repro.obs.registry import active, maybe_span
from repro.reader.sounder import ChannelEstimateStream, FrameLevelSounder
from repro.sensor.tag import TagState


def _faulted_stream(stream: ChannelEstimateStream,
                    fault: FaultEvent) -> ChannelEstimateStream:
    """Apply one injected ``reader.capture`` fault to a capture.

    * ``dropout`` — zero a contiguous burst of frames (``magnitude``
      is the dropped fraction of the capture).
    * ``desync`` — jump the capture clock by ``magnitude`` frame
      periods (all timestamps shift, desynchronizing drift tracking).
    * ``phase_jump`` — rotate every estimate from a random frame
      onward by ``magnitude`` radians (an RF chain glitch).
    """
    estimates = stream.estimates.copy()
    times = stream.times
    frames = stream.frames
    rng = fault.rng()
    if fault.kind == "dropout":
        count = min(frames, max(1, int(round(fault.magnitude * frames))))
        start = int(rng.integers(0, frames - count + 1))
        estimates[start:start + count] = 0.0
    elif fault.kind == "desync":
        times = times + fault.magnitude * stream.frame_period
    elif fault.kind == "phase_jump":
        start = int(rng.integers(0, frames))
        estimates[start:] = estimates[start:] * np.exp(1j * fault.magnitude)
    return ChannelEstimateStream(
        estimates=estimates, times=times,
        frequencies=stream.frequencies, frame_period=stream.frame_period)


@dataclass(frozen=True)
class PressReading:
    """One complete wireless reading.

    Attributes:
        phi1 / phi2: Measured differential phases [rad].
        estimate: Model inversion result.
    """

    phi1: float
    phi2: float
    estimate: ForceLocationEstimate

    @property
    def force(self) -> float:
        """Estimated force [N]."""
        return self.estimate.force

    @property
    def location(self) -> float:
        """Estimated location [m]."""
        return self.estimate.location


class WiForceReader:
    """Baseline-referenced wireless force reader with drift tracking.

    Args:
        sounder: Channel sounder with the deployed tag.
        model: Calibrated sensor model (harmonic-domain recommended).
        groups_per_capture: Phase groups averaged per reading.
        baseline_groups: Phase groups in the baseline capture (longer =
            better drift fit).

    Each phase group is the smallest integer-period length for the
    tag's base clock, read out at the tag's two readout tones.
    """

    def __init__(self, sounder: FrameLevelSounder, model: SensorModel,
                 groups_per_capture: int = 2,
                 baseline_groups: int = 8):
        if groups_per_capture < 1:
            raise ReaderError(
                f"groups per capture must be >= 1, got {groups_per_capture}"
            )
        if baseline_groups < 2:
            raise ReaderError(
                f"baseline needs >= 2 groups for the drift fit, got "
                f"{baseline_groups}"
            )
        self.sounder = sounder
        self.model = model
        self.groups_per_capture = int(groups_per_capture)
        self.baseline_groups = int(baseline_groups)
        scheme = sounder.tag.clocking
        self.extractor = HarmonicExtractor(
            tones=(scheme.readout_port1, scheme.readout_port2),
            group_length=integer_period_group_length(
                sounder.config.frame_period, scheme.clock_port1.frequency),
        )
        self.estimator = ForceLocationEstimator(model)
        self._clock = 0.0
        self._baseline: Optional[Dict[float, np.ndarray]] = None
        self._drift: Dict[float, float] = {}
        self._reference_time = 0.0

    @property
    def frames_per_capture(self) -> int:
        """Channel estimates recorded per press reading."""
        return self.extractor.group_length * self.groups_per_capture

    @property
    def elapsed(self) -> float:
        """Total sounding time consumed so far [s]."""
        return self._clock

    def _use_fast_path(self) -> bool:
        """Whether the fused capture+extract path can serve this read.

        The harmonic fast path of :class:`repro.reader.batch.FastSounder`
        bypasses the frame-level stream, so it only runs when no fault
        plan is armed: an armed injector must see every site visited in
        the oracle's order (sounder-level faults perturb the stream,
        reader-level faults mutate it), which requires the stream path.
        """
        return (fault_armed() is None
                and hasattr(self.sounder, "capture_matrices")
                and hasattr(self.sounder, "supports_matrices")
                and self.sounder.supports_matrices(self.extractor))

    def _capture_matrices(self, state: TagState,
                          groups: int) -> Dict[float, HarmonicMatrix]:
        frames = self.extractor.group_length * groups
        fast = self._use_fast_path()
        with maybe_span("reader.capture", {"frames": frames,
                                           "fast": fast}):
            if fast:
                matrices = self.sounder.capture_matrices(
                    state, groups, self.extractor, start_time=self._clock)
                self._clock += frames * self.sounder.config.frame_period
            else:
                stream = self.sounder.capture(state, frames,
                                              start_time=self._clock)
                self._clock += frames * self.sounder.config.frame_period
                inj = fault_armed()
                if inj is not None:
                    fault = inj.draw("reader.capture")
                    if fault is not None:
                        stream = _faulted_stream(stream, fault)
                matrices = self.extractor.extract(stream)
        obs = active()
        if obs is not None:
            obs.counter("reader.captures").increment()
            obs.counter("reader.frames").increment(frames)
            if fast:
                obs.counter("reader.fast_captures").increment()
        return matrices

    def _derotated_vector(self, matrix: HarmonicMatrix,
                          tone: float) -> np.ndarray:
        rate = self._drift.get(tone, 0.0)
        rotation = np.exp(-1j * rate * (matrix.group_times
                                        - self._reference_time))
        return (matrix.values * rotation[:, None]).mean(axis=0)

    def capture_baseline(self) -> None:
        """Record the untouched reference and fit the clock drift.

        Captures ``baseline_groups`` phase groups, fits a linear phase
        slope per tone (the tag clock's frequency offset), and stores
        the drift-corrected reference vectors.
        """
        with maybe_span("reader.capture_baseline",
                        {"groups": self.baseline_groups}):
            matrices = self._capture_matrices(TagState(),
                                              self.baseline_groups)
            drift: Dict[float, float] = {}
            noise: Dict[float, float] = {}
            reference_time = 0.0
            for tone, matrix in matrices.items():
                trajectory = phase_trajectory(matrix)
                coefficients = np.polyfit(matrix.group_times, trajectory, 1)
                drift[tone] = float(coefficients[0])
                residual = trajectory - np.polyval(coefficients,
                                                   matrix.group_times)
                noise[tone] = float(np.std(residual))
                reference_time = float(matrix.group_times.mean())
            self._drift = drift
            self._reference_time = reference_time
            self._baseline = {
                tone: self._derotated_vector(matrix, tone)
                for tone, matrix in matrices.items()
            }
        obs = active()
        if obs is not None:
            obs.counter("reader.baselines").increment()
            for tone, tone_noise in noise.items():
                obs.histogram("reader.baseline_phase_noise_rad",
                              (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                               1e-1, 3e-1, 1.0)).observe(tone_noise)

    @property
    def drift_rates(self) -> Dict[float, float]:
        """Fitted per-tone clock drift rates [rad/s] (copy)."""
        return dict(self._drift)

    def capture_harmonics(self, state: TagState) -> Dict[float, np.ndarray]:
        """One capture's drift-corrected harmonic vectors per tone."""
        matrices = self._capture_matrices(state, self.groups_per_capture)
        return {tone: self._derotated_vector(matrix, tone)
                for tone, matrix in matrices.items()}

    def read(self, state: TagState,
             location_hint: Optional[float] = None,
             rebaseline: bool = False) -> PressReading:
        """Read the sensor once under ``state``.

        Args:
            state: The press applied during the capture.
            location_hint: Optional prior location [m].
            rebaseline: Capture a fresh untouched reference immediately
                before the press (the paper's before/after protocol;
                use when the sensor is known untouched between reads).

        Raises:
            ReaderError: No baseline available.
        """
        with maybe_span("reader.read"):
            if rebaseline or self._baseline is None:
                self.capture_baseline()
            phi1, phi2 = self._measure_phases(state)
            estimate = self.estimator.invert(phi1, phi2,
                                             location_hint=location_hint)
        obs = active()
        if obs is not None:
            obs.counter("reader.reads").increment()
        return PressReading(phi1=phi1, phi2=phi2, estimate=estimate)

    def _measure_phases(self, state: TagState) -> Tuple[float, float]:
        """One capture's differential phase pair against the baseline."""
        assert self._baseline is not None
        with maybe_span("reader.measure_phases"):
            harmonics = self.capture_harmonics(state)
            tone1 = self.extractor.tones[0]
            tone2 = self.extractor.tones[1]
            phi1 = differential_phase(self._baseline[tone1],
                                      harmonics[tone1])
            phi2 = differential_phase(self._baseline[tone2],
                                      harmonics[tone2])
        return phi1, phi2
