"""Kalman smoothing for streamed force/location tracks.

The raw streaming tracker inverts every phase group independently, so
its output carries the full per-group phase noise.  Forces evolve on
the mechanical settling timescale (~0.1-1 s, see
:mod:`repro.mechanics.dynamics`), i.e. over many 36 ms groups — a
constant-velocity Kalman filter across groups is the matched smoother.
The location state uses a near-static model (a press does not wander).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.tracking import TrackedSample
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SmoothedSample:
    """One smoothed tracking output.

    Attributes:
        time: Group mid-time [s].
        force: Smoothed force [N].
        force_rate: Estimated force slew [N/s].
        location: Smoothed location [m].
        touched: Pass-through of the raw touch classification.
    """

    time: float
    force: float
    force_rate: float
    location: float
    touched: bool


class _ConstantVelocityKalman:
    """Scalar constant-velocity Kalman filter (position + rate)."""

    def __init__(self, process_noise: float, measurement_noise: float):
        self.q = process_noise
        self.r = measurement_noise
        self.state = np.zeros(2)
        self.covariance = np.diag([1e3, 1e3])

    def reset(self, value: float) -> None:
        self.state = np.array([value, 0.0])
        self.covariance = np.diag([self.r, self.r])

    def step(self, measurement: float, dt: float) -> np.ndarray:
        transition = np.array([[1.0, dt], [0.0, 1.0]])
        process = self.q * np.array([[dt ** 3 / 3.0, dt ** 2 / 2.0],
                                     [dt ** 2 / 2.0, dt]])
        state = transition @ self.state
        covariance = transition @ self.covariance @ transition.T + process
        observation = np.array([1.0, 0.0])
        innovation = measurement - observation @ state
        innovation_var = observation @ covariance @ observation + self.r
        gain = covariance @ observation / innovation_var
        self.state = state + gain * innovation
        self.covariance = (np.eye(2) - np.outer(gain, observation)) @ covariance
        return self.state


class TrackSmoother:
    """Smooths a raw tracker output into a clean force/location track.

    Args:
        force_process_noise: Force slew spectral density [N^2/s^3];
            larger = trusts the measurements more during fast presses.
        force_measurement_std: Per-group force estimate noise [N].
        location_measurement_std: Per-group location noise [m].
        location_smoothing: Exponential smoothing factor for location
            in (0, 1]; 1 = no smoothing.
    """

    def __init__(self, force_process_noise: float = 400.0,
                 force_measurement_std: float = 0.25,
                 location_measurement_std: float = 0.3e-3,
                 location_smoothing: float = 0.4):
        if force_process_noise <= 0.0 or force_measurement_std <= 0.0:
            raise ConfigurationError(
                "force noise parameters must be positive"
            )
        if location_measurement_std <= 0.0:
            raise ConfigurationError(
                "location measurement std must be positive"
            )
        if not 0.0 < location_smoothing <= 1.0:
            raise ConfigurationError(
                f"location smoothing must be in (0, 1], got "
                f"{location_smoothing}"
            )
        self.force_process_noise = float(force_process_noise)
        self.force_measurement_std = float(force_measurement_std)
        self.location_measurement_std = float(location_measurement_std)
        self.location_smoothing = float(location_smoothing)

    def smooth(self, samples: List[TrackedSample]) -> List[SmoothedSample]:
        """Smooth a raw track; untouched gaps reset the filters."""
        if not samples:
            return []
        kalman = _ConstantVelocityKalman(
            self.force_process_noise, self.force_measurement_std ** 2)
        output: List[SmoothedSample] = []
        location: Optional[float] = None
        previous_time: Optional[float] = None
        in_touch = False
        for sample in samples:
            if not sample.touched:
                in_touch = False
                location = None
                output.append(SmoothedSample(
                    time=sample.time, force=0.0, force_rate=0.0,
                    location=0.0, touched=False))
                previous_time = sample.time
                continue
            if not in_touch:
                kalman.reset(sample.force)
                location = sample.location
                in_touch = True
                state = kalman.state
            else:
                dt = (sample.time - previous_time
                      if previous_time is not None else 0.036)
                state = kalman.step(sample.force, max(dt, 1e-6))
                alpha = self.location_smoothing
                location = (1.0 - alpha) * location + alpha * sample.location
            output.append(SmoothedSample(
                time=sample.time,
                force=float(max(0.0, state[0])),
                force_rate=float(state[1]),
                location=float(location),
                touched=True))
            previous_time = sample.time
        return output
