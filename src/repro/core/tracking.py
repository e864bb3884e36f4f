"""Streaming force tracking: continuous (force, location) over time.

The per-press :class:`repro.core.pipeline.WiForceReader` answers "what
is the press right now"; this module answers the paper's Fig. 17b view
— a *force-versus-time profile* tracked group by group while a user
interacts with the sensor.  It consumes one long channel-estimate
stream, applies the paper's consecutive-group conjugate-multiply
(Eqns. 4-5) to build per-tone phase trajectories, detects touch onsets
and releases, and inverts the sensor model for every group where the
sensor is touched.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimator
from repro.core.phase import differential_phase
from repro.errors import EstimationError, ReaderError
from repro.obs.registry import active, maybe_span

if TYPE_CHECKING:  # annotations only: serving sessions never load the reader
    from repro.core.harmonics import HarmonicExtractor
    from repro.reader.sounder import ChannelEstimateStream


@dataclass(frozen=True)
class TrackedSample:
    """One group's tracking output.

    Attributes:
        time: Group mid-time [s].
        phi1 / phi2: Phases relative to the untouched reference [rad].
        touched: Whether the sensor is classified as touched.
        force: Estimated force [N] (0 when untouched).
        location: Estimated location [m] (0 when untouched).
        quality: ``"ok"`` for a nominal group; ``"gap"`` for a group
            whose harmonic energy vanished (signal dropout — the
            tracker coasts through it untouched instead of aborting
            the stream); served samples may also carry the service
            qualities (``"degraded"``, ``"recovered"``,
            ``"quarantined"``).
    """

    time: float
    phi1: float
    phi2: float
    touched: bool
    force: float
    location: float
    quality: str = "ok"


@dataclass(frozen=True)
class TouchEvent:
    """A detected touch interval.

    Attributes:
        onset: Touch start time [s].
        release: Touch end time [s] (stream end if still touched).
        peak_force: Largest estimated force during the touch [N].
        mean_location: Force-weighted mean location [m].
    """

    onset: float
    release: float
    peak_force: float
    mean_location: float

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "onset": float(self.onset),
            "release": float(self.release),
            "peak_force": float(self.peak_force),
            "mean_location": float(self.mean_location),
        }


class StreamingTracker:
    """Group-by-group tracker over one continuous capture.

    The first ``baseline_groups`` groups must be untouched: they set
    the phase reference and fit the tag clock's drift, which is then
    de-rotated from the whole stream.

    Args:
        model: Calibrated sensor model.
        extractor: Harmonic extractor (tones + group length).
        baseline_groups: Leading untouched groups for the reference.
        touch_threshold_deg: Phase departure that counts as a touch.
    """

    def __init__(self, model: SensorModel, extractor: HarmonicExtractor,
                 baseline_groups: int = 4,
                 touch_threshold_deg: float = 8.0):
        if baseline_groups < 2:
            raise ReaderError(
                f"need >= 2 baseline groups, got {baseline_groups}"
            )
        if len(extractor.tones) < 2:
            raise ReaderError("the tracker needs both readout tones")
        self.model = model
        self.extractor = extractor
        self.baseline_groups = int(baseline_groups)
        self.touch_threshold = np.radians(touch_threshold_deg)
        self.estimator = ForceLocationEstimator(
            model, touch_threshold_deg=touch_threshold_deg)

    def process(self, stream: ChannelEstimateStream) -> List[TrackedSample]:
        """Track the whole stream; returns one sample per phase group."""
        with maybe_span("tracker.process") as span:
            samples = self._process(stream)
            span.set("groups", len(samples))
        obs = active()
        if obs is not None:
            obs.counter("tracker.streams").increment()
            obs.counter("tracker.groups").increment(len(samples))
            obs.counter("tracker.touched_groups").increment(
                sum(1 for sample in samples if sample.touched))
            gaps = sum(1 for sample in samples if sample.quality == "gap")
            if gaps:
                obs.counter("tracker.gap_groups").increment(gaps)
        return samples

    def _process(self, stream: ChannelEstimateStream
                 ) -> List[TrackedSample]:
        matrices = self.extractor.extract(stream)
        tone1, tone2 = self.extractor.tones[0], self.extractor.tones[1]
        groups = matrices[tone1].groups
        if groups <= self.baseline_groups:
            raise ReaderError(
                f"stream has {groups} groups; need more than the "
                f"{self.baseline_groups} baseline groups"
            )
        times = matrices[tone1].group_times

        references = {}
        drifts = {}
        for tone, matrix in matrices.items():
            head = matrix.values[:self.baseline_groups]
            head_times = times[:self.baseline_groups]
            phases = np.zeros(self.baseline_groups)
            for g in range(1, self.baseline_groups):
                phases[g] = phases[g - 1] + differential_phase(
                    head[g - 1], head[g])
            drift = float(np.polyfit(head_times, phases, 1)[0])
            rotation = np.exp(-1j * drift * (head_times - head_times[0]))
            references[tone] = (head * rotation[:, None]).mean(axis=0)
            drifts[tone] = drift

        # Per-tone phases for every group at once: de-rotate the drift,
        # conjugate against the reference and take the coherent
        # subcarrier average — Eqns. 4-5 vectorized over groups.
        tone_phases = []
        gap = np.zeros(groups, dtype=bool)
        for tone in (tone1, tone2):
            matrix = matrices[tone]
            rotation = np.exp(-1j * drifts[tone] * (times - times[0]))
            vectors = matrix.values * rotation[:, None]
            products = vectors * np.conj(references[tone])[None, :]
            totals = products.sum(axis=1)
            zero = totals == 0
            if np.all(zero):
                raise EstimationError(
                    "zero harmonic energy: no sensor signal found"
                )
            # Isolated dead groups (signal dropout) are survivable:
            # flag them as gaps and coast through instead of aborting
            # the whole stream.
            gap |= zero
            tone_phases.append(np.angle(totals))
        phi1, phi2 = tone_phases
        touched = ((np.abs(phi1) > self.touch_threshold)
                   | (np.abs(phi2) > self.touch_threshold))
        touched &= ~gap
        force = np.zeros(groups)
        location = np.zeros(groups)
        active = np.flatnonzero(touched)
        if active.size:
            estimates = self.estimator.invert_batch(phi1[active],
                                                    phi2[active])
            force[active] = estimates.force
            location[active] = estimates.location
            touched[active] = estimates.touched
        return [
            TrackedSample(
                time=float(times[g]), phi1=float(phi1[g]),
                phi2=float(phi2[g]), touched=bool(touched[g]),
                force=float(force[g]), location=float(location[g]),
                quality="gap" if gap[g] else "ok")
            for g in range(groups)
        ]

    @staticmethod
    def touch_events(samples: List[TrackedSample],
                     min_groups: int = 1) -> List[TouchEvent]:
        """Segment a tracked stream into touch events.

        A fold of :class:`TouchSegmenter` over the stream, so a batch
        run and a serving session share one segmentation rule.  An
        empty stream, or one where no sample crosses the touch
        threshold, has no contact segments and yields ``[]``.

        Args:
            samples: Output of :meth:`process`.
            min_groups: Minimum touched groups for a valid event
                (debounce).
        """
        segmenter = TouchSegmenter()
        for sample in samples:
            segmenter.add(sample)
        return segmenter.events(min_groups)


class TouchSegmenter:
    """One-pass press/hold/release segmentation of tracked samples.

    A run of touched samples is one press; the first untouched sample
    after it releases the press.  Only the press in progress is kept —
    its onset, its latest time and its forces and locations as float
    columns — plus one ``(touched groups, TouchEvent)`` record per
    released press, so each sample costs O(1) work and no memory once
    its press is released.  A release builds its event once; the
    debounce (``min_groups``) filters the records at query time.
    """

    def __init__(self) -> None:
        self.onset = 0.0
        self.latest = 0.0
        self.forces = array("d")
        self.locations = array("d")
        self.released: List[Tuple[int, TouchEvent]] = []

    def add(self, sample: TrackedSample) -> None:
        """Fold one sample into the press in progress."""
        if sample.touched:
            if not self.forces:
                self.onset = sample.time
            self.latest = sample.time
            self.forces.append(sample.force)
            self.locations.append(sample.location)
        elif self.forces:
            self.released.append((len(self.forces), self._held()))
            del self.forces[:]
            del self.locations[:]

    def closed_events(self, min_groups: int = 1,
                      start: int = 0) -> List[TouchEvent]:
        """Events of the presses released from record ``start`` on that
        lasted at least ``min_groups`` touched groups."""
        return [event for groups, event in self.released[start:]
                if groups >= min_groups]

    def events(self, min_groups: int = 1) -> List[TouchEvent]:
        """:meth:`closed_events` plus the press in progress, once it
        has ``min_groups`` touched groups (its release is then the
        latest sample's time)."""
        events = self.closed_events(min_groups)
        if self.forces and len(self.forces) >= min_groups:
            events.append(self._held())
        return events

    def _held(self) -> TouchEvent:
        """The press in progress as an event."""
        forces = np.array(self.forces)
        locations = np.array(self.locations)
        weights = forces / forces.sum() if forces.sum() > 0 else None
        mean_location = float(np.average(locations, weights=weights))
        return TouchEvent(
            onset=self.onset,
            release=self.latest,
            peak_force=float(forces.max()),
            mean_location=mean_location,
        )
