"""Fleet-scale serving: threaded shard workers + the fleet loadgen.

The scale-out story past one event loop: a
:class:`ShardedInferenceService` partitions the fleet by consistent
hashing (:mod:`repro.serve.shard`); this module gives every shard its
own **worker thread running its own asyncio loop** and a dispatcher
that routes each request to its shard's loop.  NumPy releases the GIL
inside ``invert_batch``, so shard threads overlap real work on
multi-core hosts while staying a faithful (if serialized) model of a
multi-process fleet on one core.

:func:`run_fleet_benchmark` is the measurement harness behind
``repro fleet-bench`` and ``benchmarks/test_perf_serve.py``: it drives
the same request tape — up to 10^5 simulated sensors with Pareto
heavy-tail arrivals from :func:`repro.serve.loadgen
.generate_arrival_offsets` — through an N-shard fleet and a
single-shard reference, and reports per-shard p99, aggregate
throughput, deterministic shard balance, and the element-wise parity
deltas between the two runs.  The contract is exact: sharding must be
**bit-identical to single-shard** (0.0 deltas in
``BENCH_fleet.json``), because routing only decides *where* a sensor's
session lives, never *what* it computes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServeError
from repro.obs.manifest import stamp_report
from repro.serve.loadgen import (
    LoadProfile,
    generate_arrival_offsets,
    generate_requests,
)
from repro.serve.protocol import EstimateRequest, EstimateResponse
from repro.serve.scheduler import BatchPolicy
from repro.serve.session import ModelFactory
from repro.serve.shard import ShardedInferenceService


@dataclass(frozen=True)
class FleetProfile:
    """A fleet-bench shape: a load profile plus the shard layout.

    Attributes:
        load: The per-request load shape (sensors, arrivals, policy);
            fleet defaults lean large and history-free so 10^5-sensor
            runs stay memory-bounded.
        shards: Service shards (worker threads) under test.
        vnodes: Virtual nodes per shard on the hash ring.
    """

    load: LoadProfile = LoadProfile(sensors=1024, requests_per_sensor=4)
    shards: int = 4
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServeError(f"fleet needs >= 1 shard, got {self.shards}")


class _ShardWorker:
    """One shard's thread: a private asyncio loop fed cross-thread."""

    def __init__(self, index: int):
        self.index = index
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name=f"fleet-shard-{index}", daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self) -> None:
        self.thread.start()

    def submit(self, coroutine) -> Future:
        """Schedule a coroutine on this shard's loop; returns a
        concurrent future (submission order = execution order)."""
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


class FleetHarness:
    """Drives a sharded service with one worker thread per shard.

    The dispatcher routes each request to its sensor's shard (via the
    service's hash ring) and submits it to that shard's event loop;
    per-sensor request order is preserved because a sensor's requests
    all land on one loop in submission order — the ordering the
    session drift corrector relies on.

    Use as a context manager so worker loops always shut down::

        with FleetHarness(sharded) as harness:
            responses, wall = harness.run(requests, offsets)
    """

    def __init__(self, service: ShardedInferenceService):
        self.service = service
        self.workers = [_ShardWorker(index)
                        for index in range(service.shards)]

    def __enter__(self) -> "FleetHarness":
        for worker in self.workers:
            worker.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop every shard loop (idempotent)."""
        for worker in self.workers:
            if worker.thread.is_alive():
                worker.stop()

    def run(self, requests: List[EstimateRequest],
            offsets: Optional[np.ndarray] = None
            ) -> Tuple[List[EstimateResponse], float, List[int]]:
        """Fire the request tape; returns (responses, wall s, shards).

        Without ``offsets`` the whole tape is submitted at once
        (closed-loop saturation); with them, request *i* is held back
        ``offsets[i]`` seconds before submission (open-loop arrival
        shaping — the dispatcher sleeps out the gaps, exactly like a
        network frontend receiving the arrival process).  Responses
        come back in request order; the third element records each
        request's shard for per-shard latency accounting.
        """
        ring = self.service.ring
        services = self.service.services
        shard_of = [ring.shard_for(request.sensor_id)
                    for request in requests]
        futures: List[Future] = []
        start = time.perf_counter()
        if offsets is None:
            for request, shard in zip(requests, shard_of):
                futures.append(self.workers[shard].submit(
                    services[shard].estimate(request)))
        else:
            for request, shard, offset in zip(requests, shard_of,
                                              offsets):
                delay = start + float(offset) - time.perf_counter()
                if delay > 0.0:
                    time.sleep(delay)
                futures.append(self.workers[shard].submit(
                    services[shard].estimate(request)))
        responses = [future.result() for future in futures]
        return responses, time.perf_counter() - start, shard_of


def _latency_block(responses: List[EstimateResponse],
                   wall_seconds: float) -> Dict:
    latencies = np.array([response.latency_s for response in responses])
    return {
        "wall_seconds": wall_seconds,
        "throughput_rps": len(responses) / wall_seconds,
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p99_s": float(np.percentile(latencies, 99)),
        "latency_mean_s": float(latencies.mean()),
    }


def run_fleet_benchmark(profile: Optional[FleetProfile] = None,
                        model_factory: Optional[ModelFactory] = None
                        ) -> dict:
    """Bench an N-shard fleet against the single-shard reference.

    Both runs consume the *identical* request tape and arrival
    offsets through the same threaded harness (the reference is a
    one-shard fleet, so the comparison isolates sharding itself), then
    the responses are compared element-wise.  Returns the JSON-ready
    ``BENCH_fleet.json`` report: per-shard p99 + request counts,
    aggregate throughput, the sharded-vs-single throughput ratio, the
    deterministic ring balance for this fleet, parity deltas (must be
    0.0), and the merged telemetry snapshot, manifest-stamped.
    """
    if profile is None:
        profile = FleetProfile()
    load = profile.load
    policy = BatchPolicy(
        max_batch=load.max_batch,
        max_delay_s=load.max_delay_s,
        max_queue=max(1024, load.total_requests),
        enabled=load.batching,
    )

    def _service(shards: int) -> ShardedInferenceService:
        # history=False keeps 10^5-sensor fleets memory-bounded: the
        # bench never queries touch events, and per-session history
        # grows with the tape.
        return ShardedInferenceService(
            shards=shards, vnodes=profile.vnodes, policy=policy,
            model_factory=model_factory, history=False)

    fleet = _service(profile.shards)
    estimator = fleet.services[0].sessions.estimator(load.config)
    requests = generate_requests(estimator.model, load)
    offsets = generate_arrival_offsets(load)

    with FleetHarness(fleet) as harness:
        responses, fleet_seconds, shard_of = harness.run(requests,
                                                         offsets)

    reference = _service(1)
    with FleetHarness(reference) as harness:
        single, single_seconds, _ = harness.run(requests, offsets)

    force_delta = max(abs(a.estimate.force - b.estimate.force)
                      for a, b in zip(responses, single))
    location_delta = max(abs(a.estimate.location - b.estimate.location)
                         for a, b in zip(responses, single))
    touched_match = all(a.estimate.touched == b.estimate.touched
                        for a, b in zip(responses, single))

    sensor_ids = sorted({request.sensor_id for request in requests})
    per_shard = []
    for shard in range(profile.shards):
        latencies = [response.latency_s
                     for response, owner in zip(responses, shard_of)
                     if owner == shard]
        per_shard.append({
            "shard": shard,
            "requests": len(latencies),
            "latency_p99_s": (float(np.percentile(latencies, 99))
                              if latencies else 0.0),
        })

    profile_block = {
        "sensors": load.sensors,
        "requests_per_sensor": load.requests_per_sensor,
        "total_requests": load.total_requests,
        "shards": profile.shards,
        "vnodes": profile.vnodes,
        "max_batch": load.max_batch,
        "max_delay_s": load.max_delay_s,
        "arrival": load.arrival,
        "arrival_rate_rps": load.arrival_rate_rps,
        "pareto_alpha": load.pareto_alpha,
        "seed": load.seed,
    }
    report = {
        "profile": profile_block,
        "fleet": {**_latency_block(responses, fleet_seconds),
                  "per_shard": per_shard},
        "single_shard": _latency_block(single, single_seconds),
        "sharded_vs_single": single_seconds / fleet_seconds,
        "shard_balance": fleet.ring.balance(sensor_ids),
        "parity": {
            "max_force_delta_n": float(force_delta),
            "max_location_delta_m": float(location_delta),
            "touched_match": bool(touched_match),
        },
        "telemetry": fleet.telemetry_snapshot(),
    }
    return stamp_report(report, config=profile_block)


def summarize_fleet(report: dict) -> str:
    """Human-readable one-screen summary of a fleet-bench report."""
    fleet = report["fleet"]
    single = report["single_shard"]
    parity = report["parity"]
    shard_p99s = " ".join(
        f"{entry['latency_p99_s'] * 1e3:.1f}"
        for entry in fleet["per_shard"])
    lines = [
        f"requests          : {report['profile']['total_requests']} "
        f"({report['profile']['sensors']} sensors x "
        f"{report['profile']['requests_per_sensor']} samples, "
        f"{report['profile']['shards']} shards)",
        f"fleet throughput  : {fleet['throughput_rps']:10.0f} req/s",
        f"single shard      : {single['throughput_rps']:10.0f} req/s",
        f"sharded vs single : {report['sharded_vs_single']:10.2f}x",
        f"latency p50 / p99 : {fleet['latency_p50_s'] * 1e3:7.2f} / "
        f"{fleet['latency_p99_s'] * 1e3:.2f} ms",
        f"per-shard p99 [ms]: {shard_p99s}",
        f"shard balance     : {report['shard_balance']:10.2f}",
        f"parity            : force <= {parity['max_force_delta_n']:.2e} N,"
        f" location <= {parity['max_location_delta_m']:.2e} m, "
        f"touched {'match' if parity['touched_match'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


__all__ = [
    "FleetHarness",
    "FleetProfile",
    "run_fleet_benchmark",
    "summarize_fleet",
]
