"""Vision-based haptics baseline: the latency argument (section 6).

The paper contrasts WiForce with vision-induced haptics (GelSight-class
and instrument-tracking approaches): "these typically require
computationally intensive algorithms, and fail to meet the required
temporal rate of feedback required to determine if the grasp of the
object is loosening and slipping".  This baseline models that pipeline's
latency budget — exposure, readout, inference, transport — against
WiForce's group-duration latency, and against the feedback deadline of
slip detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Incipient-slip detection deadline [s]: tactile literature puts the
#: usable window at tens of milliseconds before a grasp fails.
SLIP_DEADLINE = 0.050


@dataclass(frozen=True)
class VisionHapticsPipeline:
    """Latency model of a camera-based force/slip estimator.

    Attributes:
        frame_rate: Camera frame rate [Hz].
        exposure: Exposure + sensor readout time [s].
        inference_time: Per-frame force-estimation compute [s]
            (GelSight-class photometric stereo / CNN inference).
        transport_latency: Camera link + host transfer [s].
        frames_needed: Frames needed to call a slip event.
    """

    frame_rate: float = 30.0
    exposure: float = 8e-3
    inference_time: float = 25e-3
    transport_latency: float = 5e-3
    frames_needed: int = 2

    def __post_init__(self) -> None:
        if self.frame_rate <= 0.0:
            raise ConfigurationError("frame rate must be positive")
        if min(self.exposure, self.inference_time,
               self.transport_latency) < 0.0:
            raise ConfigurationError("latency components must be >= 0")
        if self.frames_needed < 1:
            raise ConfigurationError("need at least one frame")

    @property
    def feedback_latency(self) -> float:
        """Worst-case event-to-decision latency [s].

        One full frame interval of sampling uncertainty per needed
        frame, plus the per-frame pipeline.
        """
        frame_interval = 1.0 / self.frame_rate
        return (self.frames_needed * frame_interval + self.exposure
                + self.inference_time + self.transport_latency)

    def meets_slip_deadline(self, deadline: float = SLIP_DEADLINE) -> bool:
        """Whether the pipeline can catch incipient slip in time."""
        return self.feedback_latency <= deadline


@dataclass(frozen=True)
class WiForceLatency:
    """WiForce's feedback latency: phase groups are the clock.

    Attributes:
        group_duration: Phase-group length [s] (36 ms default).
        groups_needed: Groups per decision (1 for a phase jump).
        inversion_time: Model-inversion compute budget [s].
    """

    group_duration: float = 0.036
    groups_needed: int = 1
    inversion_time: float = 2e-3

    def __post_init__(self) -> None:
        if self.group_duration <= 0.0 or self.inversion_time < 0.0:
            raise ConfigurationError("latency components must be valid")
        if self.groups_needed < 1:
            raise ConfigurationError("need at least one group")

    @property
    def feedback_latency(self) -> float:
        """Event-to-decision latency [s]."""
        return self.groups_needed * self.group_duration + self.inversion_time

    def meets_slip_deadline(self, deadline: float = SLIP_DEADLINE) -> bool:
        """Whether WiForce catches incipient slip in time."""
        return self.feedback_latency <= deadline


def latency_comparison() -> dict:
    """Default comparison used by tests and benches."""
    vision = VisionHapticsPipeline()
    wiforce = WiForceLatency()
    return {
        "vision_latency_s": vision.feedback_latency,
        "wiforce_latency_s": wiforce.feedback_latency,
        "vision_meets_slip_deadline": vision.meets_slip_deadline(),
        "wiforce_meets_slip_deadline": wiforce.meets_slip_deadline(),
        "advantage": vision.feedback_latency / wiforce.feedback_latency,
    }
