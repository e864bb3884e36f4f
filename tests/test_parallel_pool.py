"""Pool lifecycle for the campaign executor: one pool per run.

Every ``run()`` opens its own ``ProcessPoolExecutor``, ships trials in
chunks of two waves per worker, and shuts the pool down before it
returns, whether the run succeeds, a trial raises, or a worker dies.
The parent's fault plan and observation flag travel in the chunk
payload and are applied afresh per chunk.  These tests pin that no
worker outlives a run, the bit-identical-to-serial contract, the
SIGKILL respawn path, the ``REPRO_WORKERS=0`` kill switch, and
telemetry homecoming from workers.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import CampaignTrialError
from repro.experiments.parallel import CampaignExecutor, resolve_workers
from repro.faults import FaultPlan, FaultSpec, inject
from repro.obs.registry import observed

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash faults reach workers via the payload fault plan, "
           "but the suite assumes cheap fork-started pools",
)


def _square(value):
    """Module-level trial (picklable by reference)."""
    return value * value


def _crash_plan(*indices):
    return FaultPlan(name="crash", specs=(
        FaultSpec(site="experiments.parallel", kind="crash",
                  schedule=tuple(indices)),))


def _instrumented_trial(value):
    """Trial that records counters/histograms in its worker."""
    from repro.obs.registry import active

    obs = active()
    if obs is not None:
        obs.counter("trial.units").increment(value)
        obs.histogram("trial.value", (2.0, 5.0)).observe(float(value))
    return value


def _failing_trial(value):
    """Module-level trial that raises on one input."""
    if value == 3:
        raise ValueError("synthetic failure")
    return value


class TestPoolLifecycle:
    @needs_fork
    def test_no_worker_outlives_a_run(self):
        arguments = [(value,) for value in range(8)]
        executor = CampaignExecutor(workers=2)
        execution = executor.run(_square, arguments)
        if execution.mode != "parallel":
            pytest.skip(f"pool unavailable: {execution.fallback_reason}")
        assert multiprocessing.active_children() == []
        with pytest.raises(CampaignTrialError):
            executor.run(_failing_trial, arguments)
        assert multiprocessing.active_children() == []
        with inject(_crash_plan(3)):
            recovered = executor.run(_square, arguments)
        assert recovered.mode == "parallel"
        assert recovered.results == execution.results
        assert multiprocessing.active_children() == []

    def test_chunk_size_defaults_to_two_waves_per_worker(self):
        executor = CampaignExecutor(workers=2)
        assert executor._resolve_chunk(8) == 2
        assert executor._resolve_chunk(3) == 1


class TestWarmPoolParity:
    def test_warm_pool_bit_identical_to_cold_serial(self):
        # Two runs of one executor, each on its own pool, both return
        # exactly what the serial loop returns.
        arguments = [(value,) for value in range(12)]
        serial = CampaignExecutor(workers=1).run(_square, arguments)
        assert serial.mode == "serial"
        executor = CampaignExecutor(workers=3)
        first = executor.run(_square, arguments)
        second = executor.run(_square, arguments)
        if first.mode != "parallel":
            pytest.skip(f"pool unavailable: {first.fallback_reason}")
        assert first.results == serial.results
        assert second.results == serial.results

    @needs_fork
    def test_respawn_after_sigkill_on_reused_pool(self):
        # An unarmed run, then an armed one on the same executor: the
        # crash reaches the second run's workers through the chunk
        # payload, the pool respawns, and a third run is undisturbed.
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(8)]
        first = executor.run(_square, arguments)
        if first.mode != "parallel":
            pytest.skip(f"pool unavailable: {first.fallback_reason}")
        with observed() as registry:
            with inject(_crash_plan(3)):
                execution = executor.run(_square, arguments)
        assert execution.mode == "parallel"
        assert execution.results == [value * value for value in range(8)]
        counters = registry.snapshot()["counters"]
        assert counters["campaign.worker_respawns"] >= 1
        after = executor.run(_square, arguments)
        assert after.mode == "parallel"
        assert after.results == execution.results

    def test_stale_inherited_plan_does_not_fire_on_later_campaigns(self):
        # A run inside an armed fault context forks workers that
        # inherit the armed injector.  A later unarmed campaign on the
        # same executor must not see that plan, so no trial crashes.
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(8)]
        with inject(_crash_plan(999)):  # armed, but never fires
            primed = executor.run(_square, arguments)
        if primed.mode != "parallel":
            pytest.skip(f"pool unavailable: {primed.fallback_reason}")
        with observed() as registry:
            execution = executor.run(_square, arguments)
        assert execution.mode == "parallel"
        assert execution.results == [value * value for value in range(8)]
        counters = registry.snapshot()["counters"]
        assert counters.get("campaign.worker_respawns", 0) == 0


class TestKillSwitch:
    def test_repro_workers_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers() == 1
        execution = CampaignExecutor().run(
            _square, [(value,) for value in range(4)])
        assert execution.mode == "serial"
        assert execution.workers == 1
        assert execution.results == [0, 1, 4, 9]
        assert multiprocessing.active_children() == []

    def test_explicit_workers_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert CampaignExecutor(workers=2).workers == 2


class TestWarmPoolTelemetry:
    def test_snapshots_merge_from_pool_that_predates_registry(self):
        # An unobserved run comes first, so the executor has already
        # run with observation off.  The flag ships per chunk, so the
        # later observed run still gets every count home through the
        # snapshot payload.
        executor = CampaignExecutor(workers=2)
        primer = executor.run(_square, [(value,) for value in range(4)])
        if primer.mode != "parallel":
            pytest.skip(f"pool unavailable: {primer.fallback_reason}")
        values = list(range(1, 9))
        with observed() as registry:
            execution = executor.run(_instrumented_trial,
                                     [(value,) for value in values])
        assert execution.mode == "parallel"
        assert execution.results == values
        snapshot = registry.snapshot()
        assert snapshot["counters"]["trial.units"] == sum(values)
        histogram = snapshot["histograms"]["trial.value"]
        assert histogram["count"] == len(values)
        assert histogram["sum"] == pytest.approx(sum(values))
