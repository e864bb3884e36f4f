"""Chaos harness: a serve campaign run under an armed fault plan.

Drives the async inference service with a synthetic sensor fleet
(:func:`repro.serve.loadgen.generate_requests`) while a
:class:`~repro.faults.plan.FaultPlan` is armed, then reports
*survival*: how many requests rode a degraded path (and said so via
their ``quality`` flag), how many recovered
through the bounded retry budget, how many were shed as backpressure,
and how many crashed outright.  The acceptance bar for the built-in
default plan is zero crashes and a survival rate >= 0.95.

Reproducibility contract: the injected-fault ``events`` block and the
``survival`` block are pure functions of (plan, seed, load profile) —
two runs with the same arguments produce them bit-identically (tested
in ``tests/test_faults_chaos.py``).  Wall-clock ``timing`` and the
latency histograms in the telemetry snapshot are *not* deterministic
and live in their own blocks.

This module is imported lazily (it pulls in the whole serve stack);
``python -m repro chaos`` is the CLI front end.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Union

from repro.errors import QueueFullError, ServeError
from repro.faults.inject import inject
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.manifest import stamp_report
from repro.obs.recorder import recording
from repro.obs.registry import observed
from repro.serve.loadgen import LoadProfile, generate_requests
from repro.serve.protocol import EstimateRequest, EstimateResponse
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import InferenceService
from repro.serve.session import ModelFactory

#: Qualities that count as "handled gracefully" for survival purposes.
GRACEFUL_QUALITIES = ("degraded", "recovered", "quarantined")


def default_plan(seed: int = 0) -> FaultPlan:
    """The built-in chaos plan for the serve campaign.

    Targets the one site the load campaign exercises on every request
    (``serve.scheduler``): injected stalls blow the latency budget
    (``quality="degraded"``), slow consumers drag the queue, and
    synthetic rejections force the service's bounded-retry path
    (``quality="recovered"``).  Sites the campaign does not visit stay
    untargeted so the injected sequence cannot depend on environment
    state (e.g. whether the model cache is already warm).
    """
    return FaultPlan(
        name="builtin-default",
        seed=seed,
        specs=(
            FaultSpec(site="serve.scheduler", kind="stall",
                      probability=0.05, magnitude=0.002, seed=0),
            FaultSpec(site="serve.scheduler", kind="slow_consumer",
                      probability=0.02, magnitude=0.004, seed=1),
            FaultSpec(site="serve.scheduler", kind="reject",
                      probability=0.05, seed=2),
        ),
    )


def default_profile() -> LoadProfile:
    """The default chaos load: small enough for CI, big enough to fault."""
    return LoadProfile(sensors=4, requests_per_sensor=48)


async def _drive_gateway(
    service: InferenceService, requests: List[EstimateRequest],
) -> List[Union[EstimateResponse, BaseException]]:
    """Fire every request through a real gateway socket.

    Boots a :class:`repro.gateway.Gateway` around the service on an
    ephemeral loopback port, opens one WebSocket connection per sensor
    stream, and maps the wire outcomes back into the survival
    taxonomy: ``"estimate"`` replies decode to
    :class:`EstimateResponse`, ``"backpressure"`` / ``"quota"`` error
    envelopes count as shed (:class:`QueueFullError`), and anything
    else — including a dropped connection — counts as a crash.
    """
    from repro.errors import GatewayError
    from repro.gateway import Gateway, WebSocketClient

    def to_outcome(kind: str, message: dict
                   ) -> Union[EstimateResponse, BaseException]:
        if kind == "estimate":
            return EstimateResponse.from_dict(message["response"])
        code = message.get("code", "")
        text = message.get("error", "gateway error")
        if code in ("backpressure", "quota"):
            return QueueFullError(text)
        return GatewayError(f"{code}: {text}")

    async def one_connection(
        host: str, port: int, stream: List[EstimateRequest],
    ) -> List[Union[EstimateResponse, BaseException]]:
        client = await WebSocketClient.connect(host, port)
        outcomes: dict = {}
        try:
            for request in stream:
                await client.send_json({"type": "estimate",
                                        "request": request.to_dict()})
            answered = 0
            while answered < len(stream):
                message = await client.recv_json()
                kind = message.get("type", "")
                if kind == "touch_event":
                    continue
                if kind == "estimate":
                    sequence = message["response"]["sequence"]
                else:
                    sequence = message.get("sequence", -1)
                outcomes[sequence] = to_outcome(kind, message)
                answered += 1
        except Exception as exc:  # noqa: BLE001 - survival accounting
            for request in stream:
                outcomes.setdefault(request.sequence, exc)
        finally:
            await client.close()
        return [outcomes.get(request.sequence,
                             GatewayError("no reply"))
                for request in stream]

    by_sensor: dict = {}
    for request in requests:
        by_sensor.setdefault(request.sensor_id, []).append(request)
    async with Gateway(service) as gateway:
        host, port = gateway.address
        per_stream = await asyncio.gather(*(
            one_connection(host, port, stream)
            for stream in by_sensor.values()))
    position = {sensor_id: 0 for sensor_id in by_sensor}
    streams = dict(zip(by_sensor, per_stream))
    flattened = []
    for request in requests:
        index = position[request.sensor_id]
        position[request.sensor_id] = index + 1
        flattened.append(streams[request.sensor_id][index])
    return flattened


async def _drive(service: InferenceService,
                 requests: List[EstimateRequest],
                 ) -> List[Union[EstimateResponse, BaseException]]:
    """Fire every request; capture per-request failures instead of
    letting one exception cancel the whole campaign."""

    async def one(request: EstimateRequest):
        try:
            return await service.estimate(request)
        except Exception as exc:  # noqa: BLE001 - survival accounting
            return exc

    return list(await asyncio.gather(*(one(r) for r in requests)))


def _survival(outcomes: List[Union[EstimateResponse, BaseException]]
              ) -> dict:
    """The survival block: outcome counts and the survival rate.

    A *faulted* request is any request that did not come back
    ``quality="ok"``: degraded / recovered / quarantined responses
    (graceful), shed backpressure (``QueueFullError`` after the retry
    budget), or an outright crash (any other exception).
    """
    counts = {"ok": 0, "degraded": 0, "recovered": 0, "quarantined": 0,
              "shed": 0, "crashes": 0}
    crash_types: List[str] = []
    for outcome in outcomes:
        if isinstance(outcome, QueueFullError):
            counts["shed"] += 1
        elif isinstance(outcome, BaseException):
            counts["crashes"] += 1
            crash_types.append(type(outcome).__name__)
        elif outcome.quality in counts:
            counts[outcome.quality] += 1
        else:
            counts["degraded"] += 1
    graceful = sum(counts[q] for q in GRACEFUL_QUALITIES)
    faulted = graceful + counts["shed"] + counts["crashes"]
    return {
        "total_requests": len(outcomes),
        "faulted_requests": faulted,
        "graceful": graceful,
        "survival_rate": (graceful / faulted) if faulted else 1.0,
        "crash_types": sorted(set(crash_types)),
        **counts,
    }


def run_chaos(plan: Optional[FaultPlan] = None,
              profile: Optional[LoadProfile] = None,
              seed: Optional[int] = None,
              model_factory: Optional[ModelFactory] = None,
              transport: str = "inprocess") -> dict:
    """Run the serve campaign under ``plan``; returns the report.

    Args:
        plan: Fault plan to arm; :func:`default_plan` when omitted.
        profile: Load shape; :func:`default_profile` when omitted.
        seed: Overrides the plan seed (``repro chaos --seed``), so one
            committed plan file replays under many seeds.
        model_factory: Config -> model override for the session cache.
        transport: ``"inprocess"`` calls the service directly (the
            default); ``"gateway"`` routes every request through a
            real loopback :class:`repro.gateway.Gateway` socket, so
            injected faults must also survive the network framing
            layer.

    The report's ``events`` and ``survival`` blocks are deterministic
    for fixed arguments on the in-process transport; ``timing`` and
    the instrument snapshot in the manifest are not.  The gateway
    transport keeps the survival accounting (and the zero-crash bar)
    but not event-order determinism — cross-connection arrival order
    over real sockets is scheduler noise.
    """
    if transport not in ("inprocess", "gateway"):
        raise ServeError(
            f"transport must be 'inprocess' or 'gateway', got "
            f"{transport!r}")
    if plan is None:
        plan = default_plan(seed if seed is not None else 0)
    elif seed is not None and seed != plan.seed:
        plan = FaultPlan(specs=plan.specs, seed=seed, name=plan.name)
    if profile is None:
        profile = default_profile()
    policy = BatchPolicy(
        max_batch=profile.max_batch,
        max_delay_s=profile.max_delay_s,
        max_queue=max(1024, profile.total_requests),
    )
    with recording() as recorder, observed() as registry:
        service = InferenceService(policy=policy,
                                   model_factory=model_factory)
        estimator = service.sessions.estimator(profile.config)
        requests = generate_requests(estimator.model, profile)
        with inject(plan) as injector:
            start = time.perf_counter()
            if transport == "gateway":
                outcomes = asyncio.run(_drive_gateway(service, requests))
            else:
                outcomes = asyncio.run(_drive(service, requests))
            wall = time.perf_counter() - start
            events = injector.event_dicts()
        for event in events:
            recorder.note_fault(event)
        survival = _survival(outcomes)
        recorder.note("chaos.survival", **survival)
        if survival["crashes"]:
            recorder.trigger("chaos.crash",
                             crashes=survival["crashes"],
                             crash_types=survival["crash_types"])
        recording_path = recorder.dump("chaos.complete")
    config = {"plan": plan.to_dict(), "seed": plan.seed,
              "sensors": profile.sensors,
              "requests_per_sensor": profile.requests_per_sensor,
              "transport": transport}
    report = {
        "plan": plan.to_dict(),
        "transport": transport,
        "profile": {
            "sensors": profile.sensors,
            "requests_per_sensor": profile.requests_per_sensor,
            "total_requests": profile.total_requests,
            "max_batch": profile.max_batch,
            "max_delay_s": profile.max_delay_s,
            "seed": profile.seed,
        },
        "events": events,
        "injected_faults": len(events),
        "survival": survival,
        "timing": {
            "wall_seconds": wall,
            "throughput_rps": (len(requests) / wall) if wall > 0 else 0.0,
        },
        "telemetry": service.telemetry_snapshot(),
        "flight_recording": (str(recording_path)
                             if recording_path is not None else None),
    }
    return stamp_report(report, config=config, registry=registry)


def summarize(report: dict) -> str:
    """Human-readable one-screen summary of a chaos report."""
    survival = report["survival"]
    timing = report["timing"]
    lines = [
        f"plan              : {report['plan']['name']} "
        f"(seed {report['plan']['seed']}, "
        f"{len(report['plan']['specs'])} specs, "
        f"{report.get('transport', 'inprocess')} transport)",
        f"requests          : {survival['total_requests']} "
        f"({report['profile']['sensors']} sensors x "
        f"{report['profile']['requests_per_sensor']} samples)",
        f"injected faults   : {report['injected_faults']}",
        f"faulted requests  : {survival['faulted_requests']} "
        f"(degraded {survival['degraded']}, "
        f"recovered {survival['recovered']}, "
        f"quarantined {survival['quarantined']}, "
        f"shed {survival['shed']}, crashes {survival['crashes']})",
        f"survival rate     : {survival['survival_rate']:.3f}",
        f"wall / throughput : {timing['wall_seconds']:.2f} s / "
        f"{timing['throughput_rps']:.0f} req/s",
    ]
    return "\n".join(lines)
