"""Worker-death recovery in the campaign executor.

An ``experiments.parallel``/``crash`` fault SIGKILLs a worker process
mid-campaign (for real — the fault decision is keyed on the trial
index, so fork-started workers inherit the armed plan and agree on
which trial dies).  The executor must salvage completed results,
respawn the pool, resubmit the incomplete trials, and return results
bit-identical to an undisturbed serial run.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import CampaignExecutor
from repro.faults import FaultPlan, FaultSpec, inject
from repro.obs.registry import observed

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash faults reach workers via fork inheritance",
)


def _square(value):
    """Module-level trial (picklable by reference)."""
    return value * value


def _crash_plan(*indices):
    return FaultPlan(name="crash", specs=(
        FaultSpec(site="experiments.parallel", kind="crash",
                  schedule=tuple(indices)),))


class TestWorkerRespawn:
    def test_sigkilled_worker_is_respawned_and_campaign_completes(self):
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(8)]
        with observed() as registry:
            with inject(_crash_plan(3)):
                execution = executor.run(_square, arguments)
        assert execution.mode == "parallel"
        assert execution.results == [value * value for value in range(8)]
        counters = registry.snapshot()["counters"]
        assert counters["campaign.worker_respawns"] == 1
        # The respawned shard re-ran the crashed trial (attempt > 0
        # suppresses the fault), so the campaign is complete, in order.

    def test_multiple_crashes_within_budget(self):
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(10)]
        with observed() as registry:
            with inject(_crash_plan(1, 6)):
                execution = executor.run(_square, arguments)
        assert execution.results == [value * value
                                     for value in range(10)]
        respawns = registry.snapshot()["counters"][
            "campaign.worker_respawns"]
        assert 1 <= respawns <= 2

    def test_exhausted_respawn_budget_degrades_to_serial(
            self, monkeypatch):
        # MAX_RESPAWNS = 0: the first worker death exhausts the budget
        # and the run falls back to the serial loop — which never
        # SIGKILLs the main process and still produces the full
        # result set.
        monkeypatch.setattr(parallel, "MAX_RESPAWNS", 0)
        executor = CampaignExecutor(workers=2)
        arguments = [(value,) for value in range(6)]
        with inject(_crash_plan(2)):
            execution = executor.run(_square, arguments)
        assert execution.mode == "serial"
        assert "BrokenProcessPool" in execution.fallback_reason
        assert execution.results == [value * value for value in range(6)]

    def test_serial_path_never_crashes_the_main_process(self):
        executor = CampaignExecutor(workers=1)
        with inject(_crash_plan(0, 1, 2)):
            execution = executor.run(_square, [(1,), (2,), (3,)])
        assert execution.mode == "serial"
        assert execution.results == [1, 4, 9]

    def test_unarmed_parallel_run_matches_serial(self):
        arguments = [(value,) for value in range(6)]
        parallel = CampaignExecutor(workers=2).run(_square, arguments)
        serial = CampaignExecutor(workers=1).run(_square, arguments)
        assert parallel.results == serial.results


def _instrumented_trial(value):
    """Trial that exercises every instrument kind in the worker."""
    from repro.obs.registry import active

    obs = active()
    if obs is not None:
        obs.counter("trial.units").increment(value)
        obs.counter("trial.calls").increment()
        obs.histogram("trial.value", (2.0, 5.0)).observe(float(value))
    return value


class TestWorkerTelemetryHomecoming:
    """Worker-process telemetry merges into the parent registry.

    Each trial runs under a fresh registry in its worker, and the
    executor ships the snapshot home in the result payload — so the
    parent's counters equal the sum over all trials and histogram
    observations survive the process boundary, with nothing lost.
    """

    def test_no_counts_lost_across_processes(self):
        values = list(range(1, 9))
        with observed() as registry:
            execution = CampaignExecutor(workers=2).run(
                _instrumented_trial, [(value,) for value in values])
        assert execution.results == values
        if execution.mode != "parallel":
            pytest.skip(f"pool unavailable: {execution.fallback_reason}")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["trial.calls"] == len(values)
        assert snapshot["counters"]["trial.units"] == sum(values)
        histogram = snapshot["histograms"]["trial.value"]
        assert histogram["count"] == len(values)
        assert histogram["sum"] == pytest.approx(sum(values))
        assert histogram["min"] == pytest.approx(min(values))
        assert histogram["max"] == pytest.approx(max(values))

    def test_respawned_campaign_still_merges_counts(self):
        values = list(range(6))
        with observed() as registry:
            with inject(_crash_plan(2)):
                execution = CampaignExecutor(workers=2).run(
                    _instrumented_trial,
                    [(value,) for value in values])
        assert execution.mode == "parallel"
        assert execution.results == values
        counters = registry.snapshot()["counters"]
        assert counters["campaign.worker_respawns"] == 1
        assert counters["trial.calls"] == len(values)
        assert counters["trial.units"] == sum(values)
