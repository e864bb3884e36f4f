"""Persistent warm-pool lifecycle for the campaign executor.

PR 1 gave campaigns process sharding; the warm-pool layer makes it
pay: one module-level ``ProcessPoolExecutor`` per ``(workers, warmup)``
key is reused across ``run()`` calls, trials ship in chunks, and the
parent's fault plan / observation flag travel in the chunk payload so
a pool forked long ago behaves bit-identically to a fresh one.  These
tests pin the lifecycle (spawn / reuse / discard / shutdown), the
bit-identical-to-serial contract on a warm pool, the SIGKILL respawn
path *through a reused pool*, the ``REPRO_WORKERS=0`` kill switch, and
telemetry homecoming from workers that predate the parent's registry.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    CampaignExecutor,
    discard_pool,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.faults import FaultPlan, FaultSpec, inject
from repro.obs.registry import observed

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash faults reach workers via the payload fault plan, "
           "but the suite assumes cheap fork-started pools",
)


@pytest.fixture(autouse=True)
def clean_pools():
    """Every test starts and ends with no live persistent pools."""
    shutdown_pools()
    yield
    shutdown_pools()


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


class TestPoolLifecycle:
    def test_pool_is_reused_across_runs(self):
        arguments = [(value,) for value in range(8)]
        executor = CampaignExecutor(workers=2)
        first = executor.run(_square, arguments)
        second = executor.run(_square, arguments)
        if first.mode != "parallel":
            pytest.skip(f"pool unavailable: {first.fallback_reason}")
        assert first.pool_reused is False
        assert second.pool_reused is True
        assert first.results == second.results

    def test_get_pool_returns_same_executor_for_same_key(self):
        pool = get_pool(2)
        assert get_pool(2) is pool
        # A different warmup spec is a different pool key.
        other = get_pool(2, warmup=((900e6, True),))
        assert other is not pool

    def test_discard_and_shutdown(self):
        get_pool(2)
        assert discard_pool(2) is True
        assert discard_pool(2) is False
        get_pool(2)
        get_pool(3)
        assert shutdown_pools() == 2
        assert shutdown_pools() == 0

    def test_non_persistent_run_leaves_no_live_pool(self):
        executor = CampaignExecutor(workers=2, persistent=False)
        execution = executor.run(_square, [(value,) for value in range(4)])
        assert execution.results == [0, 1, 4, 9]
        assert shutdown_pools() == 0

    def test_chunk_size_defaults_to_two_waves_per_worker(self):
        executor = CampaignExecutor(workers=2)
        assert executor._resolve_chunk(8) == 2
        assert executor._resolve_chunk(3) == 1
        assert CampaignExecutor(workers=2,
                                chunk_size=5)._resolve_chunk(100) == 5

    def test_chunk_size_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=2, chunk_size=0)


class TestWarmPoolParity:
    def test_warm_pool_bit_identical_to_cold_serial(self):
        arguments = [(value,) for value in range(12)]
        serial = CampaignExecutor(workers=1).run(_square, arguments)
        assert serial.mode == "serial"
        executor = CampaignExecutor(workers=3)
        cold = executor.run(_square, arguments)
        warm = executor.run(_square, arguments)
        if cold.mode != "parallel":
            pytest.skip(f"pool unavailable: {cold.fallback_reason}")
        assert warm.pool_reused is True
        assert cold.results == serial.results
        assert warm.results == serial.results

    @needs_fork
    def test_respawn_after_sigkill_on_reused_pool(self):
        # Warm the persistent pool with an unarmed campaign first —
        # its workers were forked with *no* fault plan, so the crash
        # below can only reach them through the chunk payload.
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(8)]
        warmup_run = executor.run(_square, arguments)
        if warmup_run.mode != "parallel":
            pytest.skip(f"pool unavailable: {warmup_run.fallback_reason}")
        with observed() as registry:
            with inject(_crash_plan(3)):
                execution = executor.run(_square, arguments)
        assert execution.mode == "parallel"
        assert execution.pool_reused is True
        assert execution.results == [value * value for value in range(8)]
        counters = registry.snapshot()["counters"]
        assert counters["campaign.worker_respawns"] >= 1
        # The respawn replaced the broken pool under the same key, so
        # the *next* campaign rides the rebuilt pool, still warm.
        after = executor.run(_square, arguments)
        assert after.pool_reused is True
        assert after.results == execution.results

    def test_stale_inherited_plan_does_not_fire_on_later_campaigns(self):
        # Spawn the pool *inside* an armed fault context: fork-started
        # workers inherit the armed injector.  A later unarmed campaign
        # on the same warm pool must disarm that stale plan (the chunk
        # payload is the source of truth), so no trial crashes.
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
        assert shutdown_pools() == 0

    def test_explicit_workers_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert CampaignExecutor(workers=2).workers == 2


class TestWarmPoolTelemetry:
    def test_snapshots_merge_from_pool_that_predates_registry(self):
        # The pool spawns while observation is *off*: its workers were
        # forked with no registry and a disabled flag.  The flag ships
        # per chunk, so a later observed campaign still gets every
        # count home through the snapshot payload.
        executor = CampaignExecutor(workers=2)
        primer = executor.run(_square, [(value,) for value in range(4)])
        if primer.mode != "parallel":
            pytest.skip(f"pool unavailable: {primer.fallback_reason}")
        values = list(range(1, 9))
        with observed() as registry:
            execution = executor.run(_instrumented_trial,
                                     [(value,) for value in values])
        assert execution.mode == "parallel"
        assert execution.pool_reused is True
        assert execution.results == values
        snapshot = registry.snapshot()
        assert snapshot["counters"]["trial.units"] == sum(values)
        histogram = snapshot["histograms"]["trial.value"]
        assert histogram["count"] == len(values)
        assert histogram["sum"] == pytest.approx(sum(values))

    def test_pool_spawn_and_reuse_counters(self):
        values = [(value,) for value in range(4)]
        with observed() as registry:
            executor = CampaignExecutor(workers=2)
            first = executor.run(_square, values)
            executor.run(_square, values)
        if first.mode != "parallel":
            pytest.skip(f"pool unavailable: {first.fallback_reason}")
        counters = registry.snapshot()["counters"]
        assert counters["campaign.pool_spawns"] == 1
        assert counters["campaign.pool_reuses"] == 1
