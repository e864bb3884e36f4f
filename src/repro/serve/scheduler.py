"""Adaptive micro-batch scheduling over ``invert_batch``.

Many concurrent sessions await estimates; one estimator inversion over
N stacked samples costs far less than N single-row inversions, because
the solver's fixed steps pay numpy's per-call overhead once per batch
(see ``benchmarks/results/BENCH_estimator.json``).  The scheduler
exploits that: requests for the same estimator are parked in a
per-estimator group and flushed as one
:meth:`ForceLocationEstimator.invert_batch` call when either

* the group reaches ``max_batch`` requests (size flush), or
* the oldest request has waited ``max_delay_s`` (deadline flush),

whichever comes first — small batches under light load keep latency
bounded, large batches under heavy load keep throughput high.

Robustness:

* **Backpressure** — admission is bounded by ``max_queue`` pending
  requests; beyond it :class:`repro.errors.QueueFullError` is raised
  instead of growing the queue without bound.
* **Graceful degradation** — if a batched flush raises, the
  scheduler falls back to inverting each request alone so one
  poisoned sample only fails its own future.

Parity: :meth:`ForceLocationEstimator.invert` is ``invert_batch`` of
one row, and the solver is element-wise over rows, so batching is
purely a throughput optimisation — results never depend on which
requests happened to share a micro-batch (property-tested in
``tests/test_serve_service.py`` and ``tests/test_estimator_solver.py``).
"""

from __future__ import annotations

import asyncio
import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.estimator import ForceLocationEstimate, ForceLocationEstimator
from repro.errors import QueueFullError, ServeError
from repro.faults.inject import FaultEvent, armed as fault_armed
from repro.obs import trace
from repro.obs.instruments import BATCH_BUCKETS
from repro.obs.registry import process_registry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs.

    Attributes:
        max_batch: Flush a group at this many pending requests.
        max_delay_s: Flush a group when its oldest request has waited
            this long [s] (the latency budget spent on coalescing).
        max_queue: Total pending requests admitted before
            :class:`QueueFullError` backpressure kicks in.
    """

    max_batch: int = 32
    max_delay_s: float = 0.002
    max_queue: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if not (math.isfinite(self.max_delay_s) and self.max_delay_s >= 0.0):
            raise ServeError(
                f"max_delay_s must be finite and >= 0, got "
                f"{self.max_delay_s}")
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")


@dataclass(frozen=True)
class ScheduledEstimate:
    """One scheduler result: the estimate plus batching telemetry.

    Attributes:
        estimate: The inverted reading.
        batch_size: How many requests shared the flushed micro-batch
            (1 on the per-request fallback).
        queue_seconds: Time spent parked waiting for the flush [s].
        quality: ``"ok"`` on the nominal path; ``"degraded"`` when the
            result rode a degraded path (an injected stall, or the
            per-request fallback after a failed flush) — the estimate
            is still real, but its latency/coalescing guarantees were
            not met.
    """

    estimate: ForceLocationEstimate
    batch_size: int
    queue_seconds: float
    quality: str = "ok"


@dataclass
class _Pending:
    """One parked request."""

    phi1: float
    phi2: float
    location_hint: Optional[float]
    future: "asyncio.Future[ScheduledEstimate]"
    enqueued: float
    quality: str = "ok"
    #: The submitter's trace context: the flush span parents on the
    #: first member's and links every member's, so a batch shared by
    #: many requests is reachable from each request's trace.
    trace_ctx: Optional[trace.TraceContext] = None


@dataclass
class _Group:
    """Per-estimator batch group."""

    entries: List[_Pending] = field(default_factory=list)
    timer: Optional[asyncio.TimerHandle] = None


class MicroBatchScheduler:
    """Coalesces concurrent estimate requests into micro-batches.

    Requests are grouped by the estimator object they name — samples
    from different sensor models can never share an ``invert_batch``
    call, and a group holds its estimator until it flushes, so a
    request parked with an estimator the session cache has since
    dropped still completes with it.  Single event-loop use only; the
    service owns exactly one scheduler.  Its instruments land in the
    process registry.

    Args:
        policy: Batching knobs (see :class:`BatchPolicy`).
    """

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy if policy is not None else BatchPolicy()
        self._groups: Dict[ForceLocationEstimator, _Group] = {}
        self._pending_total = 0

    @property
    def pending(self) -> int:
        """Requests currently parked awaiting a flush."""
        return self._pending_total

    async def submit(self, estimator: ForceLocationEstimator,
                     phi1: float, phi2: float,
                     location_hint: Optional[float] = None
                     ) -> ScheduledEstimate:
        """Schedule one inversion; resolves when its batch flushes.

        Args:
            estimator: The calibrated estimator to invert with (its
                batch group).
            phi1 / phi2: Measured differential phases [rad].
            location_hint: Optional prior location [m].

        Raises:
            QueueFullError: The bounded queue is full (backpressure).
        """
        loop = asyncio.get_running_loop()
        process_registry().counter("serve.requests").increment()
        quality = "ok"
        inj = fault_armed()
        if inj is not None:
            fault = inj.draw("serve.scheduler")
            if fault is not None:
                quality = await self._apply_fault(fault)
        if self._pending_total >= self.policy.max_queue:
            process_registry().counter("serve.rejected").increment()
            raise QueueFullError(
                f"micro-batch queue is full ({self.policy.max_queue} "
                f"pending); retry later or shed load"
            )
        group = self._groups.get(estimator)
        if group is None:
            group = self._groups[estimator] = _Group()
        entry = _Pending(phi1=float(phi1), phi2=float(phi2),
                         location_hint=location_hint,
                         future=loop.create_future(),
                         enqueued=loop.time(),
                         quality=quality,
                         trace_ctx=trace.current_context())
        group.entries.append(entry)
        self._pending_total += 1
        if len(group.entries) >= self.policy.max_batch:
            self._flush(estimator)
        elif group.timer is None:
            group.timer = loop.call_later(self.policy.max_delay_s,
                                          self._flush, estimator)
        return await entry.future

    async def _apply_fault(self, fault: FaultEvent) -> str:
        """Apply one injected scheduler fault; returns the quality tag.

        ``reject`` raises synthetic backpressure (exercising the
        retry path); ``stall`` / ``slow_consumer`` sleep for the
        fault's magnitude [s] and tag the eventual result
        ``"degraded"`` so consumers know the latency budget was blown.
        """
        if fault.kind == "reject":
            process_registry().counter("serve.rejected").increment()
            raise QueueFullError(
                "injected backpressure fault (serve.scheduler/reject); "
                "retry later or shed load")
        await asyncio.sleep(fault.magnitude)
        return "degraded"

    def flush_all(self) -> None:
        """Flush every group now (shutdown / end-of-load drain)."""
        for estimator in list(self._groups):
            self._flush(estimator)

    def _flush(self, estimator: ForceLocationEstimator) -> None:
        """Flush one group: invert the coalesced batch, fan out."""
        group = self._groups.pop(estimator, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        entries = group.entries
        self._pending_total -= len(entries)
        if not entries:
            return
        loop = asyncio.get_running_loop()
        size = len(entries)
        registry = process_registry()
        registry.counter("serve.batches").increment()
        registry.histogram("serve.batch_size", BATCH_BUCKETS).observe(size)
        member_contexts = [entry.trace_ctx for entry in entries
                           if entry.trace_ctx is not None]
        with registry.span(
                "serve.flush", {"batch_size": size},
                parent=member_contexts[0] if member_contexts else None,
                links=member_contexts) as span:
            try:
                with registry.span("estimator.invert_batch",
                                   {"batch_size": size}):
                    estimates = self._invert_batched(estimator, entries)
            except Exception as exc:
                # Batcher failure: degrade to per-request scalar
                # inversion so one poisoned sample fails alone.
                span.set("fallback", type(exc).__name__)
                logger.warning(
                    "micro-batch flush of %d requests failed (%s: %s); "
                    "degrading to per-request scalar inversion",
                    size, type(exc).__name__, exc)
                registry.counter("serve.batch_fallbacks").increment()
                self._resolve_scalar(estimator, entries, loop)
                return
        now = loop.time()
        queue_hist = registry.histogram("serve.queue_seconds")
        for entry, estimate in zip(entries, estimates):
            waited = now - entry.enqueued
            queue_hist.observe(waited)
            if not entry.future.done():
                entry.future.set_result(ScheduledEstimate(
                    estimate=estimate, batch_size=size,
                    queue_seconds=waited, quality=entry.quality))

    @staticmethod
    def _invert_batched(estimator: ForceLocationEstimator,
                        entries: List[_Pending],
                        ) -> List[ForceLocationEstimate]:
        """One coalesced inversion, aligned back to ``entries``.

        ``invert_batch`` takes either no hints or a full hint array,
        so hinted and hint-free requests batch separately; both halves
        still amortise the solver's per-call cost across their
        members.
        """
        results: Dict[int, ForceLocationEstimate] = {}
        plain = [e for e in entries if e.location_hint is None]
        hinted = [e for e in entries if e.location_hint is not None]
        for subset, with_hints in ((plain, False), (hinted, True)):
            if not subset:
                continue
            phi1 = np.array([e.phi1 for e in subset])
            phi2 = np.array([e.phi2 for e in subset])
            hints = (np.array([e.location_hint for e in subset])
                     if with_hints else None)
            batch = estimator.invert_batch(phi1, phi2,
                                           location_hint=hints)
            for entry, estimate in zip(subset, batch):
                results[id(entry)] = estimate
        return [results[id(entry)] for entry in entries]

    def _resolve_scalar(self, estimator: ForceLocationEstimator,
                        entries: List[_Pending], loop) -> None:
        """Per-request single-row fallback after a failed batch flush."""
        for entry in entries:
            if entry.future.done():
                continue
            try:
                estimate = estimator.invert(
                    entry.phi1, entry.phi2,
                    location_hint=entry.location_hint)
            except Exception as exc:
                entry.future.set_exception(exc)
                continue
            entry.future.set_result(ScheduledEstimate(
                estimate=estimate, batch_size=1,
                queue_seconds=loop.time() - entry.enqueued,
                quality="degraded"))
