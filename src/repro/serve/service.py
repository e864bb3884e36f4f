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
Telemetry covers the full request path — admission counters, the
``serve.estimate`` span that times each request (one that raises
included), and the scheduler's batch/queue instruments — and lands in
the process registry (:func:`repro.obs.registry.process_registry`),
exported by :meth:`telemetry_snapshot`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.core.estimator import ForceLocationEstimator
from repro.core.tracking import TouchEvent, TrackedSample
from repro.errors import (EstimationError, ProtocolError, QueueFullError,
                          ServeError)
from repro.obs.registry import process_registry
from repro.serve.protocol import EstimateRequest, EstimateResponse
from repro.serve.scheduler import (BatchPolicy, MicroBatchScheduler,
                                   ScheduledEstimate)
from repro.serve.session import ModelFactory, SessionManager

#: Backoff before each retry of a submit the scheduler refused with
#: :class:`QueueFullError` [s]; the third refusal reaches the caller.
#: These are the jittered delays the committed chaos baseline
#: (``benchmarks/results/BENCH_chaos.json``) was recorded with, so its
#: replay stays bit-identical.
RETRY_DELAYS_S = (0.0010688843703050097, 0.0021031817611761212)


class InferenceService:
    """Multiplexes many sensor streams into batched model inversions.

    Args:
        policy: Micro-batching knobs (see :class:`BatchPolicy`).
        model_factory: Config -> model builder for the session cache.
        max_sessions / idle_ttl_s: Session-eviction bounds forwarded
            to the :class:`SessionManager` (both off by default; the
            network gateway turns them on so connect/disconnect churn
            cannot grow memory without bound).

    Transient backpressure (a momentarily full queue, an injected
    rejection) is retried after each delay of :data:`RETRY_DELAYS_S`
    before the :class:`QueueFullError` reaches the caller.
    """

    def __init__(self, policy: Optional[BatchPolicy] = None,
                 model_factory: Optional[ModelFactory] = None,
                 max_sessions: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None):
        self.sessions = SessionManager(model_factory,
                                       max_sessions=max_sessions,
                                       idle_ttl_s=idle_ttl_s)
        self.scheduler = MicroBatchScheduler(policy)

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
        registry = process_registry()
        with registry.span(
                "serve.estimate",
                {"sensor_id": request.sensor_id,
                 "sequence": request.sequence}):
            with registry.span(
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
            scheduled, retried = await self._submit(
                session.estimator, phi1, phi2, request.location_hint)
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
        process_registry().counter("serve.responses").increment()
        return EstimateResponse(
            sensor_id=request.sensor_id, sequence=request.sequence,
            time=request.time, estimate=estimate,
            batch_size=scheduled.batch_size,
            latency_s=loop.time() - start, quality=quality)

    async def _submit(self, estimator: ForceLocationEstimator,
                      phi1: float, phi2: float,
                      location_hint: Optional[float],
                      ) -> Tuple[ScheduledEstimate, bool]:
        """Submit one inversion, retrying scheduler backpressure.

        Returns the result and whether a retry was needed.  The third
        :class:`QueueFullError` propagates; any other error propagates
        at once.
        """
        for attempt, delay in enumerate(RETRY_DELAYS_S + (None,)):
            try:
                scheduled = await self.scheduler.submit(
                    estimator, phi1, phi2, location_hint=location_hint)
            except QueueFullError:
                if delay is None:
                    raise
                process_registry().counter(
                    "fault.retries.serve.submit").increment()
                await asyncio.sleep(delay)
            else:
                return scheduled, attempt > 0

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
        """The process registry's counters/histograms plus the live
        session count (JSON-ready)."""
        snapshot = process_registry().snapshot()
        snapshot["sessions"] = {"count": len(self.sessions)}
        return snapshot
