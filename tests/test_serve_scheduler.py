"""Micro-batch scheduler: coalescing, deadlines, backpressure,
graceful degradation."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.errors import QueueFullError, ServeError
from repro.obs import MemorySink, observed, process_registry
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler


@pytest.fixture(scope="module")
def estimator(model_900):
    return ForceLocationEstimator(model_900)


@pytest.fixture(scope="module")
def press_phases(model_900):
    """Six well-separated touched phase pairs inside the envelope."""
    forces = np.array([1.0, 2.5, 4.0, 5.5, 7.0, 8.0])
    locations = np.linspace(0.022, 0.058, forces.size)
    phi1, phi2 = model_900.predict_batch(forces, locations)
    return list(zip(phi1.tolist(), phi2.tolist()))


class _ExplodingBatcher:
    """Estimator facade whose batch path always raises."""

    def __init__(self, estimator):
        self._estimator = estimator
        self.model = estimator.model

    def invert_batch(self, phi1, phi2, location_hint=None):
        raise RuntimeError("batcher down")

    def invert(self, phi1, phi2, location_hint=None):
        return self._estimator.invert(phi1, phi2,
                                      location_hint=location_hint)


class TestPolicy:
    def test_rejects_invalid_knobs(self):
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=0)
        for delay in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ServeError):
                BatchPolicy(max_delay_s=delay)
        with pytest.raises(ServeError):
            BatchPolicy(max_queue=0)


class TestCoalescing:
    def test_size_flush_coalesces_concurrent_requests(self, estimator,
                                                      press_phases):
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=4,
                                                    max_delay_s=10.0))

        async def drive():
            return await asyncio.gather(*(
                scheduler.submit(estimator, phi1, phi2)
                for phi1, phi2 in press_phases[:4]))

        results = asyncio.run(drive())
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        counters = process_registry().snapshot()["counters"]
        assert counters["serve.batches"] == 1
        assert counters["serve.requests"] == 4
        assert scheduler.pending == 0

    def test_batched_results_match_scalar(self, estimator, press_phases):
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=6,
                                                    max_delay_s=10.0))

        async def drive():
            return await asyncio.gather(*(
                scheduler.submit(estimator, phi1, phi2)
                for phi1, phi2 in press_phases))

        results = asyncio.run(drive())
        for (phi1, phi2), result in zip(press_phases, results):
            expected = estimator.invert(phi1, phi2)
            assert result.estimate == expected

    def test_deadline_flush(self, estimator, press_phases):
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=64,
                                                    max_delay_s=0.01))

        async def drive():
            return await asyncio.gather(*(
                scheduler.submit(estimator, phi1, phi2)
                for phi1, phi2 in press_phases[:2]))

        results = asyncio.run(drive())
        # Never reached max_batch, so the deadline flushed both as one.
        assert [r.batch_size for r in results] == [2, 2]
        assert all(r.queue_seconds >= 0.0 for r in results)

    def test_mixed_hints_match_scalar(self, estimator, press_phases):
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=4,
                                                    max_delay_s=10.0))
        hints = [None, 0.03, None, 0.05]

        async def drive():
            return await asyncio.gather(*(
                scheduler.submit(estimator, phi1, phi2,
                                 location_hint=hint)
                for (phi1, phi2), hint in zip(press_phases[:4], hints)))

        results = asyncio.run(drive())
        for (phi1, phi2), hint, result in zip(press_phases, hints,
                                              results):
            expected = estimator.invert(phi1, phi2, location_hint=hint)
            assert result.estimate == expected

    def test_distinct_estimators_batch_apart(self, estimator, model_900,
                                             press_phases):
        """Requests are grouped by estimator object: two estimators of
        one model never share a flush, even with equal configs."""
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=8,
                                                    max_delay_s=10.0))
        twin = ForceLocationEstimator(model_900)
        phi1, phi2 = press_phases[0]

        async def drive():
            first = asyncio.ensure_future(
                scheduler.submit(estimator, phi1, phi2))
            second = asyncio.ensure_future(
                scheduler.submit(twin, phi1, phi2))
            await asyncio.sleep(0)
            assert scheduler.pending == 2
            scheduler.flush_all()
            return await first, await second

        first, second = asyncio.run(drive())
        assert (first.batch_size, second.batch_size) == (1, 1)
        assert first.estimate == second.estimate \
            == estimator.invert(phi1, phi2)


class TestBackpressure:
    def test_queue_full_rejects(self, estimator, press_phases):
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=64,
                                                    max_delay_s=10.0,
                                                    max_queue=2))

        async def drive():
            tasks = [asyncio.ensure_future(
                scheduler.submit(estimator, phi1, phi2))
                for phi1, phi2 in press_phases[:2]]
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await scheduler.submit(estimator, *press_phases[2])
            scheduler.flush_all()
            return await asyncio.gather(*tasks)

        results = asyncio.run(drive())
        assert len(results) == 2
        counters = process_registry().snapshot()["counters"]
        assert counters["serve.rejected"] == 1


class TestDegradation:
    def test_batcher_error_falls_back_to_scalar(self, estimator,
                                                press_phases):
        sink = MemorySink()
        scheduler = MicroBatchScheduler(
            BatchPolicy(max_batch=3, max_delay_s=10.0))
        broken = _ExplodingBatcher(estimator)

        async def drive():
            return await asyncio.gather(*(
                scheduler.submit(broken, phi1, phi2)
                for phi1, phi2 in press_phases[:3]))

        with observed(sink=sink) as registry:
            results = asyncio.run(drive())
        counters = registry.snapshot()["counters"]
        assert counters["serve.batch_fallbacks"] == 1
        for (phi1, phi2), result in zip(press_phases, results):
            assert result.batch_size == 1
            assert result.estimate == estimator.invert(phi1, phi2)
        # The flush span recorded the fallback.
        flush_events = [e for e in sink.events if e["span"] == "serve.flush"]
        assert flush_events and flush_events[0]["fallback"] == "RuntimeError"

    def test_failed_flushes_leave_batching_on(self, estimator,
                                              press_phases):
        """A failed flush degrades only its own requests: after five in
        a row, the next group still flushes as one ``ok`` batch."""
        scheduler = MicroBatchScheduler(BatchPolicy(max_batch=2,
                                                    max_delay_s=10.0))
        broken = _ExplodingBatcher(estimator)

        async def group(target, phases):
            return await asyncio.gather(*(
                scheduler.submit(target, phi1, phi2)
                for phi1, phi2 in phases))

        async def drive():
            failed = [await group(broken, press_phases[:2])
                      for _ in range(5)]
            return failed, await group(estimator, press_phases[2:4])

        failed, served = asyncio.run(drive())
        counters = process_registry().snapshot()["counters"]
        assert counters["serve.batch_fallbacks"] == 5
        assert [result.quality for results in failed
                for result in results] == ["degraded"] * 10
        assert [(result.quality, result.batch_size)
                for result in served] == [("ok", 2)] * 2
        for (phi1, phi2), result in zip(press_phases[2:4], served):
            assert result.estimate == estimator.invert(phi1, phi2)
