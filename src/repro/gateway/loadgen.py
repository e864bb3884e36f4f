"""Socket-driving load generation for the gateway.

Extends :mod:`repro.serve.loadgen` through the network path: the same
synthetic fleet (one sensor stream per connection, phases from the
calibrated model's forward prediction) is driven through a real
``Gateway`` over loopback TCP — WebSocket handshake, per-tenant
bearer tokens, masked frames, JSON envelopes — with requests
pipelined per connection so the micro-batch scheduler still coalesces
across tenants.

The report answers the network-layer questions the in-process bench
cannot: client-observed p50/p99 request latency through real sockets,
aggregate throughput across N concurrent tenant connections, the
rejection rate (quota + backpressure shedding), and the
gateway-vs-in-process throughput ratio (``gateway_vs_inprocess``, the
machine-normalized metric ``compare_bench.py`` gates).  Parity is
checked element-wise against a direct :class:`InferenceService` run
over the identical requests — the network layer must never change
the numbers.

Backs ``python -m repro gateway-bench`` and
``benchmarks/test_perf_gateway.py``; both write
``benchmarks/results/BENCH_gateway.json``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gateway.auth import Tenant, TenantTable
from repro.gateway.client import WebSocketClient
from repro.gateway.server import Gateway
from repro.obs.manifest import stamp_report
from repro.obs.registry import observed
from repro.serve.loadgen import (
    LoadProfile,
    generate_arrival_offsets,
    generate_requests,
    run_service_load,
)
from repro.serve.protocol import EstimateRequest
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import InferenceService
from repro.serve.session import ModelFactory


def bench_tenants(count: int, rate_per_s: float = 1e6,
                  burst: int = 1 << 16) -> List[Tenant]:
    """One tenant (and token) per bench connection.

    The default quota envelope is effectively unlimited so the bench
    measures the transport, not the limiter; pass a small
    ``rate_per_s`` / ``burst`` to measure shedding instead.
    """
    return [
        Tenant(name=f"tenant-{index:03d}",
               token=f"bench-token-{index:03d}",
               rate_per_s=rate_per_s, burst=burst)
        for index in range(count)
    ]


async def _drive_connection(
    host: str, port: int, token: str,
    items: List[Tuple[EstimateRequest, Optional[float]]],
) -> List[Tuple[int, str, dict, float]]:
    """One tenant connection: pipeline requests, match replies.

    Returns ``(sequence, kind, message, latency_s)`` tuples where
    ``kind`` is ``"estimate"`` or ``"error"``.
    """
    client = await WebSocketClient.connect(host, port, token=token)
    results: List[Tuple[int, str, dict, float]] = []
    sent_at: Dict[int, float] = {}
    try:
        async def receive(expected: int) -> None:
            got = 0
            while got < expected:
                message = await client.recv_json()
                kind = message.get("type", "")
                if kind == "touch_event":
                    continue
                if kind == "estimate":
                    sequence = message["response"]["sequence"]
                else:
                    sequence = message.get("sequence", -1)
                latency = time.perf_counter() - sent_at.get(
                    sequence, time.perf_counter())
                results.append((sequence, kind, message, latency))
                got += 1

        receiver = asyncio.ensure_future(receive(len(items)))
        base = time.perf_counter()
        for request, offset in items:
            if offset is not None:
                delay = base + offset - time.perf_counter()
                if delay > 0.0:
                    await asyncio.sleep(delay)
            sent_at[request.sequence] = time.perf_counter()
            await client.send_json({"type": "estimate",
                                    "request": request.to_dict()})
        await receiver
    finally:
        await client.close()
    return results


async def _drive_gateway(
    gateway: Gateway, tenants: List[Tenant],
    requests: List[EstimateRequest],
    offsets: Optional[np.ndarray],
) -> Tuple[Dict[Tuple[str, int], Tuple[str, dict, float]], float]:
    """All connections concurrently; returns (outcomes, wall s)."""
    host, port = gateway.address
    by_sensor: Dict[str, List[Tuple[EstimateRequest,
                                    Optional[float]]]] = {}
    sensor_order: List[str] = []
    for index, request in enumerate(requests):
        if request.sensor_id not in by_sensor:
            by_sensor[request.sensor_id] = []
            sensor_order.append(request.sensor_id)
        offset = None if offsets is None else float(offsets[index])
        by_sensor[request.sensor_id].append((request, offset))
    start = time.perf_counter()
    per_connection = await asyncio.gather(*(
        _drive_connection(host, port, tenants[index].token,
                          by_sensor[sensor_id])
        for index, sensor_id in enumerate(sensor_order)))
    wall = time.perf_counter() - start
    outcomes: Dict[Tuple[str, int], Tuple[str, dict, float]] = {}
    for sensor_id, results in zip(sensor_order, per_connection):
        for sequence, kind, message, latency in results:
            outcomes[(sensor_id, sequence)] = (kind, message, latency)
    return outcomes, wall


def run_gateway_benchmark(
        profile: Optional[LoadProfile] = None,
        model_factory: Optional[ModelFactory] = None,
        tenant_rate_per_s: float = 1e6) -> dict:
    """Load-test the gateway over real sockets; returns the report.

    Args:
        profile: Load shape — ``sensors`` doubles as the concurrent
            tenant-connection count (one stream per connection).
        model_factory: Config -> model override for the session cache.
        tenant_rate_per_s: Per-tenant quota rate (default effectively
            unlimited, so rejection_rate measures backpressure only).
    """
    if profile is None:
        profile = LoadProfile(sensors=8, requests_per_sensor=32)
    policy = BatchPolicy(
        max_batch=profile.max_batch,
        max_delay_s=profile.max_delay_s,
        max_queue=max(1024, profile.total_requests),
        enabled=profile.batching,
    )
    tenants = bench_tenants(profile.sensors,
                            rate_per_s=tenant_rate_per_s)
    with observed() as registry:
        service = InferenceService(policy=policy,
                                   model_factory=model_factory,
                                   registry=registry)
        estimator = service.sessions.estimator(profile.config)
        requests = generate_requests(estimator.model, profile)
        offsets = generate_arrival_offsets(profile)

        async def networked():
            gateway = Gateway(service,
                              tenants=TenantTable(tenants))
            async with gateway:
                return await _drive_gateway(gateway, tenants,
                                            requests, offsets)

        outcomes, gateway_wall = asyncio.run(networked())

        # In-process baseline: the identical requests through a fresh
        # direct service (separate sessions, same policy and model).
        baseline = InferenceService(policy=policy,
                                    model_factory=model_factory,
                                    registry=registry)
        baseline.sessions.estimator(profile.config)
        direct, inprocess_wall = asyncio.run(
            run_service_load(baseline, requests, offsets))

    total = len(requests)
    latencies: List[float] = []
    batch_sizes: List[int] = []
    rejected = 0
    force_delta = 0.0
    location_delta = 0.0
    touched_match = True
    compared = 0
    for request, expected in zip(requests, direct):
        outcome = outcomes.get((request.sensor_id, request.sequence))
        if outcome is None or outcome[0] != "estimate":
            rejected += 1
            continue
        _, message, latency = outcome
        latencies.append(latency)
        response = message["response"]
        batch_sizes.append(int(response["batch_size"]))
        force_delta = max(force_delta, abs(
            response["estimate"]["force"] - expected.estimate.force))
        location_delta = max(location_delta, abs(
            response["estimate"]["location"]
            - expected.estimate.location))
        touched_match = touched_match and (
            response["estimate"]["touched"]
            == expected.estimate.touched)
        compared += 1
    latency_array = np.array(latencies) if latencies else np.zeros(1)
    profile_block = {
        "connections": profile.sensors,
        "requests_per_connection": profile.requests_per_sensor,
        "total_requests": total,
        "max_batch": profile.max_batch,
        "max_delay_s": profile.max_delay_s,
        "batching": profile.batching,
        "seed": profile.seed,
        "carrier_frequency": profile.carrier_frequency,
        "arrival": profile.arrival,
        "arrival_rate_rps": profile.arrival_rate_rps,
        "pareto_alpha": profile.pareto_alpha,
        "tenant_rate_per_s": tenant_rate_per_s,
    }
    gateway_rps = total / gateway_wall if gateway_wall > 0 else 0.0
    inprocess_rps = (total / inprocess_wall
                     if inprocess_wall > 0 else 0.0)
    report = {
        "profile": profile_block,
        "gateway": {
            "wall_seconds": gateway_wall,
            "throughput_rps": gateway_rps,
            "p50_latency_ms": float(
                np.percentile(latency_array, 50) * 1e3),
            "p99_latency_ms": float(
                np.percentile(latency_array, 99) * 1e3),
            "mean_latency_ms": float(latency_array.mean() * 1e3),
            "mean_batch_size": (float(np.mean(batch_sizes))
                                if batch_sizes else 0.0),
            "max_batch_size": (int(np.max(batch_sizes))
                               if batch_sizes else 0),
            "connections": profile.sensors,
            "answered": compared,
            "rejected": rejected,
            "rejection_rate": rejected / total if total else 0.0,
        },
        "inprocess_baseline": {
            "wall_seconds": inprocess_wall,
            "throughput_rps": inprocess_rps,
        },
        "gateway_vs_inprocess": (gateway_rps / inprocess_rps
                                 if inprocess_rps > 0 else 0.0),
        "parity": {
            "compared": compared,
            "max_force_delta_n": float(force_delta),
            "max_location_delta_m": float(location_delta),
            "touched_match": bool(touched_match),
        },
        "telemetry": service.telemetry_snapshot(),
    }
    return stamp_report(report, config=profile_block,
                        registry=registry)


def summarize(report: dict) -> str:
    """Human-readable one-screen summary of a gateway bench report."""
    gateway = report["gateway"]
    baseline = report["inprocess_baseline"]
    parity = report["parity"]
    return "\n".join([
        f"requests           : {report['profile']['total_requests']} "
        f"({gateway['connections']} tenant connections x "
        f"{report['profile']['requests_per_connection']} samples, "
        f"{report['profile']['arrival']} arrivals)",
        f"gateway throughput : {gateway['throughput_rps']:10.0f} req/s",
        f"in-process baseline: {baseline['throughput_rps']:10.0f} req/s",
        f"network ratio      : {report['gateway_vs_inprocess']:10.2f}x",
        f"latency p50 / p99  : {gateway['p50_latency_ms']:7.2f} / "
        f"{gateway['p99_latency_ms']:.2f} ms",
        f"mean batch size    : {gateway['mean_batch_size']:10.1f}",
        f"rejection rate     : {gateway['rejection_rate']:10.3f} "
        f"({gateway['rejected']} rejected)",
        f"parity             : force <= "
        f"{parity['max_force_delta_n']:.2e} N, location <= "
        f"{parity['max_location_delta_m']:.2e} m, touched "
        f"{'match' if parity['touched_match'] else 'MISMATCH'}",
    ])
