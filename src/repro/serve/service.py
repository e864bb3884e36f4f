"""The asyncio inference service: streams in, estimates out.

:class:`InferenceService` is the façade that ties the serve subsystem
together.  Per request it

1. routes the sample to its :class:`SensorSession` (building or
   reusing the calibrated model via the config-keyed cache),
2. awaits the micro-batch scheduler (requests from every sensor that
   shares a config coalesce into one ``invert_batch`` call),
3. folds the tracked sample into the session's touch segmentation
   and returns an :class:`EstimateResponse` carrying the estimate plus
   batching telemetry.

Phases arrive baseline-referenced: the reader fits the untouched
reference and the tag clock's drift, so the service inverts them as
they come.

The service is transport-agnostic: ``estimate`` takes and returns the
protocol dataclasses, and a transport adapter owns the wire codec.
Telemetry covers the full request path — admission counters,
end-to-end latency histograms, and the scheduler's batch/queue
instruments share one registry, exported by :meth:`telemetry_snapshot`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.core.tracking import TouchEvent, TrackedSample
from repro.errors import (EstimationError, ProtocolError, QueueFullError,
                          ServeError)
from repro.faults.retry import RetryPolicy, retry_async
from repro.obs.registry import Registry
from repro.serve.protocol import EstimateRequest, EstimateResponse
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler
from repro.serve.session import ModelFactory, SessionManager


class InferenceService:
    """Multiplexes many sensor streams into batched model inversions.

    Args:
        policy: Micro-batching knobs (see :class:`BatchPolicy`).
        model_factory: Config -> model builder for the session cache.
        registry: Share an existing :class:`repro.obs.Registry` (e.g.
            the one ``repro.obs.enable()`` returns) so the service's
            instruments land next to the reader/estimator/campaign
            ones; default is a private registry, keeping services
            isolated.
        retry_policy: Bounded retry budget applied when the scheduler
            answers :class:`QueueFullError` — transient backpressure
            (a momentarily full queue, an injected rejection) is
            retried with seeded exponential backoff before the error
            reaches the caller.  ``attempts=1`` disables retrying.
        max_sessions / idle_ttl_s: Session-eviction bounds forwarded
            to the :class:`SessionManager` (both off by default; the
            network gateway turns them on so connect/disconnect churn
            cannot grow memory without bound).
    """

    def __init__(self, policy: Optional[BatchPolicy] = None,
                 model_factory: Optional[ModelFactory] = None,
                 registry: Optional[Registry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_sessions: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None):
        self.telemetry = registry if registry is not None else Registry()
        self.sessions = SessionManager(model_factory,
                                       max_sessions=max_sessions,
                                       idle_ttl_s=idle_ttl_s)
        self.scheduler = MicroBatchScheduler(policy,
                                             telemetry=self.telemetry)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())

    async def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Serve one request (may park awaiting its micro-batch).

        Raises:
            QueueFullError: Backpressure — the scheduler queue stayed
                full through the whole retry budget.
            ProtocolError: The location hint's search window misses
                the session model's calibrated span.
            ServeError: Session/config routing failure.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        with self.telemetry.span(
                "serve.estimate",
                {"sensor_id": request.sensor_id,
                 "sequence": request.sequence}):
            with self.telemetry.span(
                    "serve.session", {"sensor_id": request.sensor_id}):
                session = self.sessions.session(request.sensor_id,
                                                request.config)
                # A hint that fails invert_batch's span check would
                # fail the whole micro-batch flush it joined; reject
                # it here so it fails alone.
                try:
                    session.estimator.location_span(request.location_hint)
                except EstimationError as exc:
                    raise ProtocolError(str(exc)) from exc
                phi1, phi2 = session.correct(request.time, request.phi1,
                                             request.phi2)
            retried = False

            def _saw_retry(attempt: int, exc: BaseException) -> None:
                nonlocal retried
                retried = True

            scheduled = await retry_async(
                lambda: self.scheduler.submit(
                    session.estimator, phi1, phi2,
                    location_hint=request.location_hint,
                    key=session.config),
                policy=self.retry_policy,
                retry_on=(QueueFullError,),
                name="serve.submit",
                on_retry=_saw_retry)
            quality = scheduled.quality
            if retried and quality == "ok":
                quality = "recovered"
            session.note_quality(quality)
            if session.quarantined:
                quality = "quarantined"
            estimate = scheduled.estimate
            session.record(TrackedSample(
                time=request.time, phi1=phi1, phi2=phi2,
                touched=estimate.touched, force=estimate.force,
                location=estimate.location, quality=quality))
        latency = loop.time() - start
        self.telemetry.histogram("serve.latency_seconds").observe(latency)
        self.telemetry.counter("serve.responses").increment()
        return EstimateResponse(
            sensor_id=request.sensor_id, sequence=request.sequence,
            time=request.time, estimate=estimate,
            batch_size=scheduled.batch_size, latency_s=latency,
            quality=quality)

    def touch_events(self, sensor_id: str,
                     min_groups: int = 1) -> List[TouchEvent]:
        """Every touch event of one sensor's session, in order.

        The session keeps the press still held plus one record per
        released press, so the query lists the released events and the
        held press, not a re-scan of every served reading.

        Raises:
            ServeError: No session exists for ``sensor_id`` (queries
                never open sessions — only requests do).
        """
        session = self.sessions.get(sensor_id)
        if session is None:
            raise ServeError(f"no session for sensor {sensor_id!r}")
        return session.touch_events(min_groups=min_groups)

    def drain(self) -> None:
        """Flush any parked micro-batches immediately."""
        self.scheduler.flush_all()

    def telemetry_snapshot(self) -> Dict:
        """Counters/histograms plus session-cache stats (JSON-ready)."""
        snapshot = self.telemetry.snapshot()
        snapshot["sessions"] = {
            "count": len(self.sessions),
            "model_builds": self.sessions.model_builds,
            "model_hits": self.sessions.model_hits,
            "evictions": self.sessions.evictions,
        }
        return snapshot
