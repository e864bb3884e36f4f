"""Synthetic multi-sensor load generation for the serve subsystem.

Drives :class:`InferenceService` with a reproducible fleet of sensor
streams whose phases come from the calibrated model's own forward
prediction (plus measurement noise), and reports what the north-star
cares about: tail latency, throughput, mean micro-batch size, and the
speedup over the serial one-request-at-a-time scalar baseline —
together with an element-wise parity check against that baseline,
since batching must never change the numbers.

The same entry point backs ``python -m repro serve-bench`` and the CI
benchmark smoke (``benchmarks/test_perf_serve.py``); both write the
machine-readable report to ``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.core.calibration import SensorModel
from repro.errors import ServeError
from repro.obs.manifest import stamp_report
from repro.obs.profiler import Profiler
from repro.obs.registry import observed
from repro.serve.protocol import EstimateRequest, EstimateResponse, SensorConfig
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import InferenceService
from repro.serve.session import ModelFactory


@dataclass(frozen=True)
class LoadProfile:
    """One synthetic load shape.

    Attributes:
        sensors: Concurrent sensor streams.
        requests_per_sensor: Samples per stream.
        max_batch / max_delay_s: Scheduler policy under test.
        batching: ``False`` benches the degraded scalar-direct path.
        touch_fraction: Fraction of samples that carry a press (the
            rest are untouched, below-threshold phases).
        phase_noise_deg: Measurement noise on the synthetic phases.
        sample_period_s: Stream timestamp spacing [s].
        carrier_frequency / fast / touch_threshold_deg: Sensor config
            shared by the whole fleet.
        seed: Reproducibility seed for the synthetic presses.
        arrival: Arrival-pattern shape for request submission:
            ``"uniform"`` spaces requests evenly at
            ``arrival_rate_rps``; ``"pareto"`` draws heavy-tailed
            (bursty) inter-arrival gaps with the same mean rate — the
            fleet-scale pattern real sensor swarms produce, where long
            quiet stretches alternate with packed bursts.
        arrival_rate_rps: Mean aggregate arrival rate [req/s]; 0 (the
            default) submits every request at once, the pre-existing
            closed-loop behavior.
        pareto_alpha: Tail exponent for ``"pareto"`` arrivals (must
            be > 1 so the mean gap is finite; smaller = burstier).
    """

    sensors: int = 8
    requests_per_sensor: int = 64
    max_batch: int = 32
    max_delay_s: float = 0.002
    batching: bool = True
    touch_fraction: float = 0.9
    phase_noise_deg: float = 1.0
    sample_period_s: float = 0.01
    carrier_frequency: float = 900e6
    fast: bool = True
    touch_threshold_deg: float = 5.0
    seed: int = 7
    arrival: str = "uniform"
    arrival_rate_rps: float = 0.0
    pareto_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.sensors < 1 or self.requests_per_sensor < 1:
            raise ServeError("load profile needs >= 1 sensor and "
                             ">= 1 request per sensor")
        if not 0.0 <= self.touch_fraction <= 1.0:
            raise ServeError(
                f"touch_fraction must be in [0, 1], got "
                f"{self.touch_fraction}")
        if self.arrival not in ("uniform", "pareto"):
            raise ServeError(
                f"arrival must be 'uniform' or 'pareto', got "
                f"{self.arrival!r}")
        if self.arrival_rate_rps < 0.0:
            raise ServeError(
                f"arrival_rate_rps must be >= 0, got "
                f"{self.arrival_rate_rps}")
        if self.pareto_alpha <= 1.0:
            raise ServeError(
                f"pareto_alpha must be > 1 (finite mean gap), got "
                f"{self.pareto_alpha}")

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


def generate_arrival_offsets(
        profile: LoadProfile) -> Optional[np.ndarray]:
    """Per-request submission offsets [s] for the arrival pattern.

    Returns None when ``arrival_rate_rps`` is 0 (submit everything at
    once).  Offsets start at 0 and are seeded independently of the
    press draws, so changing the arrival shape never changes *what*
    is requested, only *when*.

    ``"uniform"`` arrivals are evenly spaced at the mean gap;
    ``"pareto"`` gaps follow a Pareto distribution with minimum gap
    ``mean_gap * (alpha - 1) / alpha`` and tail exponent ``alpha``,
    scaled so the mean gap (and therefore the aggregate offered rate)
    matches the uniform pattern — only the burstiness differs.
    """
    if profile.arrival_rate_rps <= 0.0:
        return None
    total = profile.total_requests
    mean_gap = 1.0 / profile.arrival_rate_rps
    if profile.arrival == "uniform":
        gaps = np.full(total, mean_gap)
    else:
        rng = np.random.default_rng(profile.seed + 0x9E3779B9)
        alpha = profile.pareto_alpha
        # rng.pareto draws the Lomax form; +1 shifts to a classic
        # Pareto with minimum 1 and mean alpha / (alpha - 1).
        draws = rng.pareto(alpha, total) + 1.0
        gaps = draws * (mean_gap * (alpha - 1.0) / alpha)
    offsets = np.cumsum(gaps)
    return offsets - offsets[0]


async def run_service_load(
    service: InferenceService, requests: List[EstimateRequest],
    offsets: Optional[np.ndarray] = None,
) -> Tuple[List[EstimateResponse], float]:
    """Fire every request; returns (responses, wall s).

    Without ``offsets`` every request is submitted concurrently (the
    closed-loop saturation pattern); with them, request *i* is held
    back ``offsets[i]`` seconds first (open-loop arrival shaping —
    see :func:`generate_arrival_offsets`).
    """
    start = time.perf_counter()
    if offsets is None:
        responses = await service.estimate_many(requests)
    else:
        async def paced(request: EstimateRequest,
                        delay: float) -> EstimateResponse:
            if delay > 0.0:
                await asyncio.sleep(delay)
            return await service.estimate(request)

        responses = list(await asyncio.gather(
            *(paced(request, float(delay))
              for request, delay in zip(requests, offsets))))
    return responses, time.perf_counter() - start


def run_benchmark(profile: Optional[LoadProfile] = None,
                  model_factory: Optional[ModelFactory] = None,
                  profiler: Optional[Profiler] = None) -> dict:
    """Run the load against the service and the serial baseline.

    Returns the JSON-ready report: latency percentiles, throughput,
    mean batch size, serial-baseline comparison, parity deltas, the
    service telemetry snapshot, and a run manifest (git SHA, config
    hash, and the full shared-registry snapshot — the whole run
    executes inside :func:`repro.obs.observed`, so estimator and
    service instruments land in one registry).

    Args:
        profile: Load shape; paper-default when omitted.
        model_factory: Config -> model override for the session cache.
        profiler: Optional hotspot profiler; the bench stages
            (calibrate / generate / serial baseline / service) are
            recorded into it when given.
    """
    if profile is None:
        profile = LoadProfile()
    if profiler is None:
        profiler = Profiler(enabled=False)
    policy = BatchPolicy(
        max_batch=profile.max_batch,
        max_delay_s=profile.max_delay_s,
        max_queue=max(1024, profile.total_requests),
        enabled=profile.batching,
    )
    with observed() as registry:
        service = InferenceService(policy=policy,
                                   model_factory=model_factory,
                                   registry=registry)
        with profiler.section("calibrate"):
            estimator = service.sessions.estimator(profile.config)
        with profiler.section("generate_requests"):
            requests = generate_requests(estimator.model, profile)
            offsets = generate_arrival_offsets(profile)

        # Serial baseline: one scalar inversion at a time, the
        # pre-serve consumption pattern.
        with profiler.section("serial_baseline"):
            start = time.perf_counter()
            serial = [estimator.invert(request.phi1, request.phi2)
                      for request in requests]
            serial_seconds = time.perf_counter() - start

        with profiler.section("service_load"):
            responses, service_seconds = asyncio.run(
                run_service_load(service, requests, offsets))

    force_delta = max(abs(response.estimate.force - expected.force)
                      for response, expected in zip(responses, serial))
    location_delta = max(abs(response.estimate.location - expected.location)
                         for response, expected in zip(responses, serial))
    touched_match = all(response.estimate.touched == expected.touched
                        for response, expected in zip(responses, serial))

    latencies = np.array([response.latency_s for response in responses])
    batch_sizes = np.array([response.batch_size for response in responses])
    total = len(requests)
    profile_block = {
        "sensors": profile.sensors,
        "requests_per_sensor": profile.requests_per_sensor,
        "total_requests": total,
        "max_batch": profile.max_batch,
        "max_delay_s": profile.max_delay_s,
        "batching": profile.batching,
        "seed": profile.seed,
        "carrier_frequency": profile.carrier_frequency,
        "arrival": profile.arrival,
        "arrival_rate_rps": profile.arrival_rate_rps,
        "pareto_alpha": profile.pareto_alpha,
    }
    report = {
        "profile": profile_block,
        "service": {
            "wall_seconds": service_seconds,
            "throughput_rps": total / service_seconds,
            "latency_p50_s": float(np.percentile(latencies, 50)),
            "latency_p99_s": float(np.percentile(latencies, 99)),
            "latency_mean_s": float(latencies.mean()),
            "mean_batch_size": float(batch_sizes.mean()),
            "max_batch_size": int(batch_sizes.max()),
        },
        "serial_baseline": {
            "wall_seconds": serial_seconds,
            "throughput_rps": total / serial_seconds,
        },
        "speedup_vs_serial": serial_seconds / service_seconds,
        "parity": {
            "max_force_delta_n": float(force_delta),
            "max_location_delta_m": float(location_delta),
            "touched_match": bool(touched_match),
        },
        "telemetry": service.telemetry_snapshot(),
    }
    return stamp_report(report, config=profile_block, registry=registry)


def write_report(report: dict, path) -> Path:
    """Persist a benchmark report as pretty JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def summarize(report: dict) -> str:
    """Human-readable one-screen summary of a benchmark report."""
    service = report["service"]
    serial = report["serial_baseline"]
    parity = report["parity"]
    lines = [
        f"requests          : {report['profile']['total_requests']} "
        f"({report['profile']['sensors']} sensors x "
        f"{report['profile']['requests_per_sensor']} samples)",
        f"service throughput: {service['throughput_rps']:10.0f} req/s",
        f"serial baseline   : {serial['throughput_rps']:10.0f} req/s",
        f"speedup           : {report['speedup_vs_serial']:10.2f}x",
        f"latency p50 / p99 : {service['latency_p50_s'] * 1e3:7.2f} / "
        f"{service['latency_p99_s'] * 1e3:.2f} ms",
        f"mean batch size   : {service['mean_batch_size']:10.1f}",
        f"parity            : force <= {parity['max_force_delta_n']:.2e} N,"
        f" location <= {parity['max_location_delta_m']:.2e} m, "
        f"touched {'match' if parity['touched_match'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)
