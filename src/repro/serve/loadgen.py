"""Synthetic multi-sensor request streams for the serve subsystem.

Builds a reproducible fleet of sensor streams whose phases come from
the calibrated model's own forward prediction (plus measurement
noise).  The chaos campaign (:mod:`repro.faults.chaos`) drives the
service with these requests and persists its report through
:func:`write_report`.  Open-loop load at the paper's cadence comes
from the end-to-end benchmark in ``e2e_bench/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.core.calibration import SensorModel
from repro.errors import ServeError
from repro.serve.protocol import EstimateRequest, SensorConfig


@dataclass(frozen=True)
class LoadProfile:
    """One synthetic load shape.

    Attributes:
        sensors: Concurrent sensor streams.
        requests_per_sensor: Samples per stream.
        max_batch / max_delay_s: Scheduler policy under test.
        touch_fraction: Fraction of samples that carry a press (the
            rest are untouched, below-threshold phases).
        phase_noise_deg: Measurement noise on the synthetic phases.
        sample_period_s: Stream timestamp spacing [s].
        carrier_frequency / fast / touch_threshold_deg: Sensor config
            shared by the whole fleet.
        seed: Reproducibility seed for the synthetic presses.
    """

    sensors: int = 8
    requests_per_sensor: int = 64
    max_batch: int = 32
    max_delay_s: float = 0.002
    touch_fraction: float = 0.9
    phase_noise_deg: float = 1.0
    sample_period_s: float = 0.01
    carrier_frequency: float = 900e6
    fast: bool = True
    touch_threshold_deg: float = 5.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.sensors < 1 or self.requests_per_sensor < 1:
            raise ServeError("load profile needs >= 1 sensor and "
                             ">= 1 request per sensor")
        if not 0.0 <= self.touch_fraction <= 1.0:
            raise ServeError(
                f"touch_fraction must be in [0, 1], got "
                f"{self.touch_fraction}")

    @property
    def total_requests(self) -> int:
        """Requests across the whole fleet."""
        return self.sensors * self.requests_per_sensor

    @property
    def config(self) -> SensorConfig:
        """The fleet's shared sensor config."""
        return SensorConfig(
            carrier_frequency=self.carrier_frequency, fast=self.fast,
            touch_threshold_deg=self.touch_threshold_deg)


def generate_requests(model: SensorModel,
                      profile: LoadProfile) -> List[EstimateRequest]:
    """Build the fleet's request list (interleaved across sensors).

    Presses are drawn uniformly over the calibrated (force, location)
    envelope; phases are the model's forward prediction plus Gaussian
    measurement noise.  Untouched samples carry zero phases.  The
    returned list interleaves the streams sample-by-sample — the
    arrival order a multiplexing server would actually see.
    """
    rng = np.random.default_rng(profile.seed)
    total = profile.total_requests
    forces = rng.uniform(0.5, 8.0, total)
    low = float(model.locations[0])
    high = float(model.locations[-1])
    locations = rng.uniform(low, high, total)
    phi1, phi2 = model.predict_batch(forces, locations)
    noise = rng.normal(0.0, np.radians(profile.phase_noise_deg),
                       (2, total))
    phi1 = phi1 + noise[0]
    phi2 = phi2 + noise[1]
    untouched = rng.random(total) >= profile.touch_fraction
    phi1[untouched] = 0.0
    phi2[untouched] = 0.0
    config = profile.config
    requests = []
    index = 0
    for sequence in range(profile.requests_per_sensor):
        for sensor in range(profile.sensors):
            requests.append(EstimateRequest(
                sensor_id=f"sensor-{sensor:03d}",
                sequence=sequence,
                time=sequence * profile.sample_period_s,
                phi1=float(phi1[index]),
                phi2=float(phi2[index]),
                config=config,
            ))
            index += 1
    return requests


def write_report(report: dict, path) -> Path:
    """Persist a benchmark report as pretty JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
