"""Parallel campaign execution across persistent worker processes.

The evaluation campaigns are embarrassingly parallel: every trial
builds its own scenario from an explicit per-trial seed, so execution
order and placement cannot change the numbers.  :class:`CampaignExecutor`
exploits that — it shards a trial list across a
``concurrent.futures.ProcessPoolExecutor`` and guarantees the results
are bit-for-bit what a serial loop would produce.

Three mechanisms make the sharding actually pay (a freshly spawned
pool costs more than a small campaign's entire serial runtime —
``BENCH_estimator.json`` once recorded a 0.52x "speedup"):

* **Persistent warm pools** — one module-level
  ``ProcessPoolExecutor`` per ``(workers, warmup)`` key is reused
  across :meth:`CampaignExecutor.run` calls, so only the first
  campaign in a process pays the spawn.  :func:`shutdown_pools`
  disposes of them explicitly (also registered via ``atexit``); a
  pool broken by a worker death is discarded and respawned
  transparently.
* **Chunked submission** — trials are grouped into contiguous chunks
  of :attr:`CampaignExecutor.chunk_size` (default: two waves per
  worker), so N trials cost O(N / chunk) pickled round-trips instead
  of O(N).
* **Warm-started workers** — a pool initializer pre-imports the hot
  modules and primes the read-only contact-table/calibration caches
  through the :mod:`repro.cache` disk tier, so children never rebuild
  what any process on the machine already paid for.

Because a warm pool's workers may have been forked *before* the
caller armed a fault plan or enabled observation, both travel **in
the task payload**: each chunk carries the parent's armed
:class:`~repro.faults.plan.FaultPlan` (re-armed in the worker for the
chunk's duration) and the parent's observation flag (the worker
records into a fresh registry and ships the snapshot home), so warm
pools behave bit-identically to freshly forked ones.

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
(it is never swallowed by the serial fallback).

A worker that *dies* (SIGKILL, OOM) is an infrastructure failure: the
broken pool is discarded, a fresh one is spawned under the same key,
and the incomplete chunks are resubmitted — the re-shard is
deterministic (trials are keyed by index, and every trial seeds its
own randomness), so the completed campaign is bit-identical to an
undisturbed run.  ``campaign.worker_respawns`` counts the respawns;
after ``max_respawns`` pool rebuilds the run degrades to the serial
path like any other broken pool.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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

logger = logging.getLogger(__name__)

#: A warm-start spec: ``(carrier_frequency_hz, fast)`` pairs whose
#: calibrated models the pool initializer primes in every worker.
WarmupSpec = Tuple[Tuple[float, bool], ...]


# ---------------------------------------------------------------------------
# Persistent pool registry
# ---------------------------------------------------------------------------

_pools: Dict[Tuple[int, WarmupSpec], ProcessPoolExecutor] = {}


def _warm_worker(warmup: WarmupSpec) -> None:
    """Pool initializer: pre-import the hot path, prime the caches.

    Runs once per worker process at spawn.  The imports cover what
    every campaign trial touches (scenario builders, the estimator,
    the fast sounder); the optional ``warmup`` specs then build
    each ``(carrier, fast)`` calibrated model, which flows through
    the :mod:`repro.cache` disk tier — so a worker whose parent (or
    any earlier process on the machine) already calibrated starts
    warm from disk instead of recomputing, and the in-process
    memoization is hot before the first trial arrives.

    Warmup failures are deliberately non-fatal: a missing cache entry
    or an exotic carrier must not poison the pool — the trial itself
    will rebuild (and report) whatever the warmup could not.
    """
    import repro.core.estimator  # noqa: F401  (hot-module pre-import)
    import repro.reader.batch  # noqa: F401

    from repro.experiments import scenarios

    for carrier, fast in warmup:
        try:
            scenarios.calibrated_model(carrier, fast=fast)
        except Exception:  # pragma: no cover - depends on warmup spec
            logger.debug("worker warmup skipped for carrier %r", carrier,
                         exc_info=True)


def get_pool(workers: int,
             warmup: WarmupSpec = ()) -> ProcessPoolExecutor:
    """The persistent pool for ``(workers, warmup)`` (spawns on first use).

    The returned executor is shared by every campaign in the process
    that asks for the same key; callers must not shut it down
    themselves — use :func:`discard_pool` / :func:`shutdown_pools`.
    """
    key = (int(workers), tuple(warmup))
    pool = _pools.get(key)
    obs = active()
    if pool is not None:
        if obs is not None:
            obs.counter("campaign.pool_reuses").increment()
        return pool
    pool = ProcessPoolExecutor(max_workers=int(workers),
                               initializer=_warm_worker,
                               initargs=(tuple(warmup),))
    _pools[key] = pool
    if obs is not None:
        obs.counter("campaign.pool_spawns").increment()
    logger.debug("spawned persistent campaign pool (%d workers)", workers)
    return pool


def discard_pool(workers: int, warmup: WarmupSpec = ()) -> bool:
    """Drop (and shut down) one persistent pool; True if it existed.

    Used after a :class:`BrokenProcessPool` — a pool whose worker died
    is permanently unusable, so the registry entry must go before a
    respawn can take its place.
    """
    pool = _pools.pop((int(workers), tuple(warmup)), None)
    if pool is None:
        return False
    pool.shutdown(wait=False)
    return True


def shutdown_pools(wait: bool = True) -> int:
    """Shut down every persistent pool; returns how many there were.

    Safe to call repeatedly (and registered via ``atexit``).  The next
    :func:`get_pool` simply spawns fresh.
    """
    count = len(_pools)
    while _pools:
        _, pool = _pools.popitem()
        pool.shutdown(wait=wait)
    return count


atexit.register(shutdown_pools, wait=False)


# ---------------------------------------------------------------------------
# Execution record
# ---------------------------------------------------------------------------

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
        chunk_size: Trials per pickled round-trip on the pool path
            (1 for serial).
        pool_reused: Whether the run rode an already-warm persistent
            pool instead of paying a spawn.
    """

    results: List[Any]
    mode: str
    workers: int
    wall_seconds: float
    trial_seconds: Tuple[float, ...]
    fallback_reason: str = ""
    chunk_size: int = 1
    pool_reused: bool = False

    def summary(self) -> str:
        """One-line progress/timing summary for logs."""
        trials = len(self.results)
        mean = (sum(self.trial_seconds) / trials) if trials else 0.0
        line = (f"{trials} trials in {self.wall_seconds:.2f} s "
                f"({self.mode}, {self.workers} worker"
                f"{'s' if self.workers != 1 else ''}, "
                f"mean trial {mean:.2f} s)")
        if self.mode == "parallel":
            line += (f" [chunk {self.chunk_size}, pool "
                     f"{'warm' if self.pool_reused else 'cold'}]")
        if self.fallback_reason:
            line += f" [fell back to serial: {self.fallback_reason}]"
        return line


#: One trial inside a chunk: (index, trial, arguments).
_Entry = Tuple[int, Callable[..., Any], Sequence[Any]]

#: One unit of pool work: (entries, attempt, in_worker, traceparent,
#: obs_enabled, fault_plan).  ``attempt`` counts pool respawns (crash
#: faults only fire on attempt 0, so a respawned chunk completes);
#: ``in_worker`` is True only on the process-pool path — the serial
#: loop must never SIGKILL the main process.  ``traceparent`` carries
#: the campaign span's trace context across the process boundary
#: (empty when tracing is off).  ``obs_enabled`` and ``fault_plan``
#: ship the parent's observation flag and armed plan explicitly —
#: a *persistent* pool's workers may have been forked before either
#: was set, so fork inheritance alone is not enough.
_ChunkPayload = Tuple[Tuple[_Entry, ...], int, bool, str, bool,
                      Optional[FaultPlan]]

#: What one trial sends back: (index, result, seconds).
_TrialReturn = Tuple[int, Any, float]

#: What one chunk sends back: the ordered trial returns plus the
#: worker telemetry payload (``None`` unless the chunk ran in-worker
#: with observation requested, where it carries the worker registry
#: snapshot and its span events for the parent to merge).
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


def _chunk_trials(entries: Tuple[_Entry, ...], attempt: int,
                  in_worker: bool,
                  traceparent: str) -> Tuple[_TrialReturn, ...]:
    """Run one chunk's trials in order (crash faults first).

    When a fault plan with an ``experiments.parallel``/``crash`` spec
    is armed, the decision is keyed on the *trial index* — every
    worker, and every respawn, computes the same answer — and the
    crash is a real ``SIGKILL`` of the worker, exercising the
    executor's respawn path.  Crashes only fire on attempt 0, so a
    respawned chunk completes.
    """
    returns: List[_TrialReturn] = []
    for index, trial, arguments in entries:
        inj = fault_armed()
        if inj is not None and in_worker and attempt == 0:
            fault = inj.draw_at("experiments.parallel", index)
            if fault is not None and fault.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
        result, seconds = _run_trial(index, trial, arguments, traceparent)
        returns.append((index, result, seconds))
    return tuple(returns)


def _chunk_call(payload: _ChunkPayload) -> _ChunkReturn:
    """Run one chunk of trials (module-level, so it pickles).

    A raising trial is re-raised as :class:`CampaignTrialError` naming
    the trial, so a failure deep inside a 4-process shard reads the
    same as one from a plain serial loop.

    The payload carries the parent's observation flag and armed fault
    plan explicitly: a persistent pool's workers may predate both, so
    the chunk re-arms the plan locally (skipped when the worker
    already inherited an armed injector via fork) and, when
    observation is requested, records into a fresh worker registry
    whose snapshot and span events ride back in the return value — a
    forked copy of the parent registry could never deliver its counts
    home, so none are silently dropped.
    """
    entries, attempt, in_worker, traceparent, obs_enabled, plan = payload
    if not in_worker:
        return _chunk_trials(entries, attempt, in_worker, traceparent), None
    # The payload is the source of truth for fault state: a persistent
    # pool's workers may have been forked inside an older ``inject``
    # context, and that inherited injector is stale by definition —
    # drop it, then arm exactly what the parent has armed right now
    # (fresh per chunk, so the chunk is the unit of fault determinism).
    disarm()
    if plan is not None:
        with inject(plan):
            return _observed_chunk(entries, attempt, traceparent,
                                   obs_enabled)
    return _observed_chunk(entries, attempt, traceparent, obs_enabled)


def _observed_chunk(entries: Tuple[_Entry, ...], attempt: int,
                    traceparent: str, obs_enabled: bool) -> _ChunkReturn:
    """The in-worker chunk body, with optional telemetry collection."""
    if not obs_enabled:
        return _chunk_trials(entries, attempt, True, traceparent), None
    sink = MemorySink()
    with observed(sink=sink) as worker_registry:
        returns = _chunk_trials(entries, attempt, True, traceparent)
        payload_out = {"snapshot": worker_registry.snapshot(),
                       "events": list(sink.events)}
    return returns, payload_out


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
    """Shards deterministic trials across persistent worker processes.

    Args:
        workers: Worker processes; ``None`` resolves via
            :func:`resolve_workers`.  1 means serial execution.
        max_respawns: Pool rebuilds tolerated after worker deaths
            (SIGKILL/OOM) before the run degrades to the serial
            fallback.
        chunk_size: Trials per pickled round-trip; ``None`` picks
            two submission waves per worker
            (``ceil(trials / (2 * workers))``), balancing round-trip
            amortization against load balancing.
        warmup: ``(carrier_hz, fast)`` pairs primed by the pool
            initializer in every worker (see :func:`get_pool`); part
            of the pool key, so campaigns with different warmups get
            different pools.
        persistent: Reuse the module-level pool across runs (the
            default).  ``False`` spawns a private pool per run and
            shuts it down afterwards — what the cold-pool benchmarks
            and one-shot scripts use.

    Because every trial seeds its own generators from its arguments,
    a parallel run returns exactly what the serial loop would — the
    executor only changes wall-clock time, never results.  That also
    makes worker-death recovery safe: resubmitting the incomplete
    chunks after a respawn reproduces the exact results the dead
    worker would have returned.
    """

    def __init__(self, workers: Optional[int] = None,
                 max_respawns: int = 3,
                 chunk_size: Optional[int] = None,
                 warmup: WarmupSpec = (),
                 persistent: bool = True):
        self.workers = resolve_workers(workers)
        if max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {max_respawns}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.max_respawns = int(max_respawns)
        self.chunk_size = chunk_size
        self.warmup = tuple(warmup)
        self.persistent = bool(persistent)

    def _resolve_chunk(self, trials: int) -> int:
        """Chunk size for ``trials`` (two waves per worker by default)."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(trials / (2 * self.workers)))

    def run(self, trial: Callable[..., Any],
            argument_lists: Sequence[Sequence[Any]]) -> CampaignExecution:
        """Execute ``trial(*args)`` for every args tuple, in order.

        Worker processes that die mid-campaign are respawned (up to
        ``max_respawns`` pool rebuilds) and their incomplete chunks
        resubmitted.  Falls back to a serial loop (recording the
        reason) when the process pool cannot run the work at all —
        unpicklable callables, sandboxed interpreters, or a pool still
        broken after the respawn budget.
        """
        entries: List[_Entry] = [
            (index, trial, tuple(arguments))
            for index, arguments in enumerate(argument_lists)]
        start = time.perf_counter()
        with maybe_span("campaign.run", {"trials": len(entries)}):
            parent_tp = trace.current_traceparent()
            pool_reused = False
            try:
                if self.workers > 1 and entries:
                    try:
                        pool_reused = (self.persistent and
                                       (self.workers, self.warmup)
                                       in _pools)
                        timed = self._run_pool(entries, parent_tp)
                        execution = self._execution(
                            timed, "parallel", self.workers, start,
                            chunk_size=self._resolve_chunk(len(entries)),
                            pool_reused=pool_reused)
                        self._observe(execution)
                        return execution
                    except CampaignTrialError:
                        # The trial itself failed — that is a campaign
                        # error and would fail identically in the serial
                        # loop, so propagate instead of re-running the
                        # work.
                        raise
                    except (pickle.PicklingError, AttributeError,
                            TypeError, BrokenProcessPool, OSError) as exc:
                        reason = f"{type(exc).__name__}: {exc}"
                        logger.warning(
                            "campaign fell back to serial execution: %s",
                            reason)
                else:
                    reason = ""
                serial_returns = [
                    _chunk_call(((entry,), 0, False, parent_tp, False,
                                 None))[0][0]
                    for entry in entries]
                execution = self._execution(
                    [(serial_returns, None)] if serial_returns else [],
                    "serial", 1, start, reason)
            except CampaignTrialError as exc:
                obs = active()
                if obs is not None:
                    obs.counter("campaign.trial_failures").increment()
                logger.error("campaign trial failed: %s", exc)
                raise
            self._observe(execution)
        logger.debug("campaign finished: %s", execution.summary())
        return execution

    def _acquire_pool(self) -> ProcessPoolExecutor:
        """The run's pool: persistent (shared) or private (one-shot)."""
        if self.persistent:
            return get_pool(self.workers, self.warmup)
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_warm_worker,
            initargs=(self.warmup,))

    def _retire_pool(self, pool: ProcessPoolExecutor,
                     broken: bool) -> None:
        """Dispose of a run's pool appropriately for its mode."""
        if self.persistent:
            if broken:
                discard_pool(self.workers, self.warmup)
        else:
            pool.shutdown(wait=not broken)

    def _run_pool(self, entries: List[_Entry],
                  parent_tp: str = "") -> List[_ChunkReturn]:
        """Chunked sharded execution with worker-death recovery.

        Submits one future per *chunk* of trials; when a worker dies
        the pool breaks, so completed chunks are salvaged, the broken
        pool is discarded and respawned, and the incomplete chunks
        are resubmitted with the attempt counter bumped.  Raises
        :class:`BrokenProcessPool` once ``max_respawns`` rebuilds have
        been spent (the caller's serial fallback takes over).
        """
        chunk_size = self._resolve_chunk(len(entries))
        obs_enabled = is_enabled()
        inj = fault_armed()
        plan = inj.plan if inj is not None else None
        chunk_returns: Dict[int, _ChunkReturn] = {}
        done: set = set()
        respawns = 0
        remaining = list(entries)
        while remaining:
            pool = self._acquire_pool()
            broken: Optional[BrokenProcessPool] = None
            chunks = [tuple(remaining[at:at + chunk_size])
                      for at in range(0, len(remaining), chunk_size)]
            try:
                futures = [
                    pool.submit(_chunk_call,
                                (chunk, respawns, True, parent_tp,
                                 obs_enabled, plan))
                    for chunk in chunks
                ]
            except BrokenProcessPool as exc:
                # A worker died before submission finished — either
                # the persistent pool broke while idle between
                # campaigns, or a crash fault on an early chunk
                # outraced the remaining submits.  Either way it is a
                # worker death: spend one respawn on a fresh pool
                # instead of punting straight to serial.
                self._retire_pool(pool, broken=True)
                respawns += 1
                obs = active()
                if obs is not None:
                    obs.counter("campaign.worker_respawns").increment()
                if respawns > self.max_respawns:
                    raise
                logger.warning(
                    "campaign pool was broken at submit; respawning "
                    "(%d/%d): %s", respawns, self.max_respawns, exc)
                continue
            try:
                for chunk, future in zip(chunks, futures):
                    try:
                        chunk_returns[chunk[0][0]] = future.result()
                        done.update(index for index, _, _ in chunk)
                    except BrokenProcessPool as exc:
                        # Keep scanning: chunks that finished before
                        # the crash still carry salvageable results.
                        broken = exc
            except CampaignTrialError:
                # Leave the pool healthy for the next campaign, but
                # drop work that has not started — its results can
                # never be collected.
                for future in futures:
                    future.cancel()
                self._retire_pool(pool, broken=False)
                raise
            self._retire_pool(pool, broken=broken is not None)
            if broken is None:
                break
            respawns += 1
            obs = active()
            if obs is not None:
                obs.counter("campaign.worker_respawns").increment()
            if respawns > self.max_respawns:
                raise broken
            remaining = [entry for entry in remaining
                         if entry[0] not in done]
            logger.warning(
                "campaign worker died; respawning pool (%d/%d) and "
                "resubmitting %d incomplete trial(s)",
                respawns, self.max_respawns, len(remaining))
        ordered = [chunk_returns[key] for key in sorted(chunk_returns)]
        self._merge_worker_obs(ordered)
        return ordered

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
        trial_hist = obs.histogram("campaign.trial_seconds")
        for seconds in execution.trial_seconds:
            trial_hist.observe(seconds)
        obs.histogram("campaign.wall_seconds").observe(
            execution.wall_seconds)
        busy = sum(execution.trial_seconds)
        capacity = execution.workers * execution.wall_seconds
        if capacity > 0.0:
            obs.gauge("campaign.worker_utilization").set(
                min(busy / capacity, 1.0))

    def map(self, trial: Callable[..., Any],
            argument_lists: Sequence[Sequence[Any]]) -> List[Any]:
        """Like :meth:`run` but returns just the ordered results."""
        return self.run(trial, argument_lists).results

    def _execution(self, chunk_returns: List[_ChunkReturn], mode: str,
                   workers: int, start: float, reason: str = "",
                   chunk_size: int = 1,
                   pool_reused: bool = False) -> CampaignExecution:
        by_index: Dict[int, Tuple[Any, float]] = {}
        for returns, _ in chunk_returns:
            for index, result, seconds in returns:
                by_index[index] = (result, seconds)
        ordered = [by_index[index] for index in sorted(by_index)]
        return CampaignExecution(
            results=[result for result, _ in ordered],
            mode=mode,
            workers=workers,
            wall_seconds=time.perf_counter() - start,
            trial_seconds=tuple(seconds for _, seconds in ordered),
            fallback_reason=reason,
            chunk_size=chunk_size,
            pool_reused=pool_reused,
        )
