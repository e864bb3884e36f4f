"""Parallel campaign execution: one process pool per campaign run.

The evaluation campaigns are embarrassingly parallel: every trial
builds its own scenario from an explicit per-trial seed, so execution
order and placement cannot change the numbers.  :class:`CampaignExecutor`
exploits that — each :meth:`~CampaignExecutor.run` shards its trial
list across its own ``concurrent.futures.ProcessPoolExecutor`` and
shuts that pool down before it returns, so no worker process outlives
a campaign and no pool state is global.  The results are bit-for-bit
what a serial loop would produce.

Trials ship in contiguous chunks of two submission waves per worker,
so N trials cost O(N / chunk) pickled round-trips instead of O(N).

Rules for trial functions:

* They must be **module-level** callables (picklable by reference),
  with picklable positional arguments.
* All randomness must derive from the trial's own arguments (e.g.
  ``np.random.default_rng(seed + trial)``) — never from shared state.

Worker count resolution: an explicit ``workers`` argument wins,
otherwise the ``REPRO_WORKERS`` environment variable, otherwise 1
(serial).  ``REPRO_WORKERS=0`` is the operational kill switch — it
disables parallelism and forces the serial path.  Serial execution is
also the graceful fallback whenever a process pool cannot be used
(unpicklable work, sandboxed interpreter, broken pool).

A trial that raises is a *campaign* failure, not an infrastructure
failure: the exception is wrapped as
:class:`repro.errors.CampaignTrialError` naming the failing trial
index, and propagates identically from the sharded and serial paths
(it is never swallowed by the serial fallback).  The sharded path
cancels the chunks that have not started and shuts its pool down
first.

A worker that *dies* (SIGKILL, OOM) is an infrastructure failure: the
broken pool is shut down, a fresh one is spawned, and the incomplete
chunks are resubmitted — the re-shard is deterministic (trials are
keyed by index, and every trial seeds its own randomness), so the
completed campaign is bit-identical to an undisturbed run.
``campaign.worker_respawns`` counts the respawns; after
:data:`MAX_RESPAWNS` pool rebuilds the run degrades to the serial
path like any other broken pool.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CampaignTrialError, ConfigurationError
from repro.faults.inject import armed as fault_armed, disarm, inject
from repro.faults.plan import FaultPlan
from repro.obs import trace
from repro.obs.instruments import MemorySink
from repro.obs.recorder import flight_recorder
from repro.obs.registry import active, is_enabled, maybe_span, observed

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"

#: Pool rebuilds tolerated after worker deaths (SIGKILL/OOM) before a
#: run degrades to the serial fallback.
MAX_RESPAWNS = 3

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignExecution:
    """One campaign run: ordered results plus execution telemetry.

    Attributes:
        results: Per-trial return values, in submission order.
        mode: ``"parallel"`` or ``"serial"`` (how it actually ran).
        workers: Worker processes used (1 for serial).
        wall_seconds: End-to-end wall-clock time.
        trial_seconds: Per-trial execution time, in submission order.
        fallback_reason: Why a requested parallel run fell back to
            serial (empty when it did not).
    """

    results: List[Any]
    mode: str
    workers: int
    wall_seconds: float
    trial_seconds: Tuple[float, ...]
    fallback_reason: str = ""

    def summary(self) -> str:
        """One-line progress/timing summary for logs."""
        trials = len(self.results)
        mean = (sum(self.trial_seconds) / trials) if trials else 0.0
        line = (f"{trials} trials in {self.wall_seconds:.2f} s "
                f"({self.mode}, {self.workers} worker"
                f"{'s' if self.workers != 1 else ''}, "
                f"mean trial {mean:.2f} s)")
        if self.fallback_reason:
            line += f" [fell back to serial: {self.fallback_reason}]"
        return line


#: One trial inside a chunk: (index, trial, arguments).
_Entry = Tuple[int, Callable[..., Any], Sequence[Any]]

#: One unit of pool work: (entries, attempt, traceparent, obs_enabled,
#: fault_plan).  ``attempt`` counts pool respawns (crash faults only
#: fire on attempt 0, so a respawned chunk completes).
#: ``traceparent`` carries the campaign span's trace context across
#: the process boundary (empty when tracing is off).  ``obs_enabled``
#: and ``fault_plan`` are the parent's observation flag and armed
#: plan, which :func:`_chunk_call` applies afresh in the worker.
_ChunkPayload = Tuple[Tuple[_Entry, ...], int, str, bool,
                      Optional[FaultPlan]]

#: What one trial sends back: (index, result, seconds).
_TrialReturn = Tuple[int, Any, float]

#: What one chunk sends back: the ordered trial returns plus the
#: worker telemetry payload (``None`` unless observation was
#: requested, where it carries the worker registry snapshot and its
#: span events for the parent to merge).
_ChunkReturn = Tuple[Tuple[_TrialReturn, ...], Optional[dict]]


def _run_trial(index: int, trial: Callable[..., Any],
               arguments: Sequence[Any],
               traceparent: str) -> Tuple[Any, float]:
    """The measured trial call, wrapped in a ``campaign.trial`` span.

    The span parents onto the traceparent shipped in the payload, so
    worker-process spans stitch into the parent's ``campaign.run``
    trace; with an empty/invalid traceparent it falls back to the
    ambient context (the serial path) or a fresh root.
    """
    parent = trace.parse_traceparent(traceparent) if traceparent else None
    start = time.perf_counter()
    with maybe_span("campaign.trial", {"trial": index}, parent=parent):
        try:
            result = trial(*arguments)
        except Exception as exc:
            name = getattr(trial, "__qualname__", repr(trial))
            raise CampaignTrialError(
                f"campaign trial {index} ({name}) raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return result, time.perf_counter() - start


def _chunk_trials(entries: Sequence[_Entry], traceparent: str,
                  crash_faults: bool) -> Tuple[_TrialReturn, ...]:
    """Run trials in order; a raising one surfaces as
    :class:`CampaignTrialError` naming it.

    With ``crash_faults`` (a pool worker's first attempt) an armed
    ``experiments.parallel``/``crash`` spec is a real ``SIGKILL`` of
    the worker, exercising the executor's respawn path.  The decision
    is keyed on the *trial index*, so every worker, and every respawn,
    computes the same answer.  The serial loop passes False: it must
    never kill the main process.
    """
    inj = fault_armed() if crash_faults else None
    returns: List[_TrialReturn] = []
    for index, trial, arguments in entries:
        if inj is not None:
            fault = inj.draw_at("experiments.parallel", index)
            if fault is not None and fault.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
        result, seconds = _run_trial(index, trial, arguments, traceparent)
        returns.append((index, result, seconds))
    return tuple(returns)


def _chunk_call(payload: _ChunkPayload) -> _ChunkReturn:
    """Run one chunk of trials in a pool worker (module-level, so it
    pickles).

    The chunk drops whatever injector the worker inherited and arms
    the payload's plan afresh: re-arming per chunk keeps fault draws
    independent of chunk placement.  When observation is requested the
    chunk records into a fresh worker registry whose snapshot and span
    events ride back in the return value, because a forked copy of the
    parent's registry cannot report home.
    """
    entries, attempt, traceparent, obs_enabled, plan = payload
    disarm()
    with (inject(plan) if plan is not None else nullcontext()):
        if not obs_enabled:
            return _chunk_trials(entries, traceparent, attempt == 0), None
        sink = MemorySink()
        with observed(sink=sink) as worker_registry:
            returns = _chunk_trials(entries, traceparent, attempt == 0)
            telemetry = {"snapshot": worker_registry.snapshot(),
                         "events": list(sink.events)}
        return returns, telemetry


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``REPRO_WORKERS``, else 1 (serial).

    ``REPRO_WORKERS=0`` in the environment means "parallelism off" and
    resolves to 1 worker (serial); an explicit ``workers=0`` argument
    is still a configuration error.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                )
            if workers == 0:
                workers = 1
        else:
            workers = 1
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


class CampaignExecutor:
    """Shards deterministic trials across one process pool per run.

    Args:
        workers: Worker processes; ``None`` resolves via
            :func:`resolve_workers`.  1 means serial execution.

    Because every trial seeds its own generators from its arguments,
    a parallel run returns exactly what the serial loop would — the
    executor only changes wall-clock time, never results.  That also
    makes worker-death recovery safe: resubmitting the incomplete
    chunks after a respawn reproduces the exact results the dead
    worker would have returned.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    def _resolve_chunk(self, trials: int) -> int:
        """Trials per pickled round-trip: two waves per worker."""
        return max(1, math.ceil(trials / (2 * self.workers)))

    def run(self, trial: Callable[..., Any],
            argument_lists: Sequence[Sequence[Any]]) -> CampaignExecution:
        """Execute ``trial(*args)`` for every args tuple, in order.

        Worker processes that die mid-campaign are respawned (up to
        :data:`MAX_RESPAWNS` pool rebuilds) and their incomplete
        chunks resubmitted.  Falls back to a serial loop (recording
        the reason) when the process pool cannot run the work at all —
        unpicklable callables, sandboxed interpreters, or a pool still
        broken after the respawn budget.
        """
        entries: List[_Entry] = [
            (index, trial, tuple(arguments))
            for index, arguments in enumerate(argument_lists)]
        start = time.perf_counter()
        with maybe_span("campaign.run", {"trials": len(entries)}):
            parent_tp = trace.current_traceparent()
            try:
                execution = self._execute(entries, parent_tp, start)
            except CampaignTrialError as exc:
                obs = active()
                if obs is not None:
                    obs.counter("campaign.trial_failures").increment()
                logger.error("campaign trial failed: %s", exc)
                raise
            self._observe(execution)
        logger.debug("campaign finished: %s", execution.summary())
        return execution

    def _execute(self, entries: List[_Entry], parent_tp: str,
                 start: float) -> CampaignExecution:
        """The sharded run, or the serial loop when no pool can run it.

        A raising trial surfaces as :class:`CampaignTrialError`, which
        no fallback catches: it would fail identically in the serial
        loop, so the work is not re-run.
        """
        reason = ""
        if self.workers > 1 and entries:
            # Imported here, not at module level: only a sharded run
            # needs the pool machinery, so the serial path and a process
            # that only imports the runners never load multiprocessing.
            from concurrent.futures.process import BrokenProcessPool

            try:
                return self._execution(self._run_pool(entries, parent_tp),
                                       "parallel", self.workers, start)
            except (pickle.PicklingError, AttributeError, TypeError,
                    BrokenProcessPool, OSError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "campaign fell back to serial execution: %s", reason)
        return self._execution(_chunk_trials(entries, parent_tp, False),
                               "serial", 1, start, reason)

    def _run_pool(self, entries: List[_Entry],
                  parent_tp: str) -> List[_TrialReturn]:
        """Chunked sharded execution with worker-death recovery.

        Every attempt opens a fresh pool and shuts it down, cancelling
        chunks that have not started, before it retries or returns.
        When a worker dies the pool breaks: completed chunks are
        salvaged and the incomplete ones resubmitted to a new pool
        with the attempt counter bumped.  Raises
        :class:`BrokenProcessPool` once :data:`MAX_RESPAWNS` rebuilds
        have been spent (the caller's serial fallback takes over).
        """
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        chunk_size = self._resolve_chunk(len(entries))
        inj = fault_armed()
        shipped = (parent_tp, is_enabled(),
                   inj.plan if inj is not None else None)
        chunk_returns: Dict[int, _ChunkReturn] = {}
        done: set = set()
        respawns = 0
        remaining = entries
        while remaining:
            chunks = [tuple(remaining[at:at + chunk_size])
                      for at in range(0, len(remaining), chunk_size)]
            broken: Optional[BrokenProcessPool] = None
            pool = ProcessPoolExecutor(max_workers=self.workers)
            futures = []
            try:
                try:
                    for chunk in chunks:
                        futures.append(pool.submit(
                            _chunk_call, (chunk, respawns) + shipped))
                except BrokenProcessPool as exc:
                    # A crash fault on an early chunk outraced the
                    # remaining submits: a worker death like any other.
                    broken = exc
                for chunk, future in zip(chunks, futures):
                    try:
                        chunk_returns[chunk[0][0]] = future.result()
                        done.update(index for index, _, _ in chunk)
                    except BrokenProcessPool as exc:
                        # Keep scanning: chunks that finished before
                        # the crash still carry salvageable results.
                        broken = exc
            finally:
                # Cancel the chunks that have not started one by one:
                # ``shutdown(cancel_futures=True)`` can wait forever on
                # a chunk that failed to pickle.
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=True)
            if broken is None:
                break
            respawns += 1
            obs = active()
            if obs is not None:
                obs.counter("campaign.worker_respawns").increment()
            if respawns > MAX_RESPAWNS:
                raise broken
            remaining = [entry for entry in remaining
                         if entry[0] not in done]
            logger.warning(
                "campaign worker died; respawning pool (%d/%d) and "
                "resubmitting %d incomplete trial(s)",
                respawns, MAX_RESPAWNS, len(remaining))
        ordered = [chunk_returns[key] for key in sorted(chunk_returns)]
        self._merge_worker_obs(ordered)
        return [entry for returns, _ in ordered for entry in returns]

    @staticmethod
    def _merge_worker_obs(chunk_returns: List[_ChunkReturn]) -> None:
        """Fold worker-process telemetry into the parent registry.

        Walks the chunk returns in submission order: snapshots merge
        (counters sum, histograms merge) and span events re-emit
        through the parent's sink and flight recorder, so a sharded
        campaign's counts match the serial loop's exactly.
        """
        obs = active()
        if obs is None:
            return
        recorder = flight_recorder()
        for _, payload in chunk_returns:
            if not payload:
                continue
            obs.merge_snapshot(payload.get("snapshot") or {})
            for event in payload.get("events") or ():
                obs.sink.emit(event)
                recorder.record_span_event(event)

    @staticmethod
    def _observe(execution: CampaignExecution) -> None:
        """Record one finished campaign into the shared registry."""
        obs = active()
        if obs is None:
            return
        obs.counter("campaign.runs").increment()
        obs.counter("campaign.trials").increment(len(execution.results))
        if execution.fallback_reason:
            obs.counter("campaign.serial_fallbacks").increment()
        busy = sum(execution.trial_seconds)
        capacity = execution.workers * execution.wall_seconds
        if capacity > 0.0:
            obs.gauge("campaign.worker_utilization").set(
                min(busy / capacity, 1.0))

    def map(self, trial: Callable[..., Any],
            argument_lists: Sequence[Sequence[Any]]) -> List[Any]:
        """Like :meth:`run` but returns just the ordered results."""
        return self.run(trial, argument_lists).results

    @staticmethod
    def _execution(trial_returns: Sequence[_TrialReturn], mode: str,
                   workers: int, start: float,
                   reason: str = "") -> CampaignExecution:
        ordered = sorted(trial_returns, key=lambda entry: entry[0])
        return CampaignExecution(
            results=[result for _, result, _ in ordered],
            mode=mode,
            workers=workers,
            wall_seconds=time.perf_counter() - start,
            trial_seconds=tuple(seconds for _, _, seconds in ordered),
            fallback_reason=reason,
        )
