"""Serve-path degradation under injected faults.

Covers the graceful-degradation contracts: transient backpressure is
retried inside the service (the session survives and the response says
``"recovered"``), injected stalls mark responses ``"degraded"``, an
open circuit breaker reroutes to the scalar path instead of failing,
and a streak of degraded results quarantines and then re-warms the
session.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.errors import QueueFullError
from repro.faults import CircuitBreaker, FaultPlan, FaultSpec, RetryPolicy, inject
from repro.obs.registry import observed
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.session import SensorSession


@pytest.fixture(scope="module")
def estimator(model_900):
    return ForceLocationEstimator(model_900)


@pytest.fixture(scope="module")
def press_phases(model_900):
    import numpy as np

    forces = np.array([1.0, 2.5, 4.0, 5.5])
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


def _service(model, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8,
                                            max_delay_s=0.001))
    return InferenceService(model_factory=lambda config: model, **kwargs)


def _request(phi1, phi2, sequence=0, sensor="s-0", time=None):
    return EstimateRequest(sensor_id=sensor, sequence=sequence,
                           time=(0.01 * sequence if time is None
                                 else time),
                           phi1=phi1, phi2=phi2, config=SensorConfig())


def _plan(*specs, seed=0):
    return FaultPlan(name="test", seed=seed, specs=tuple(specs))


class TestBackpressureRetry:
    def test_transient_reject_recovers_without_killing_session(
            self, model_900, press_phases):
        """Satellite regression: a momentarily full queue (here an
        injected rejection) is absorbed by the bounded retry budget —
        the caller sees a successful ``"recovered"`` response and the
        session keeps serving."""
        service = _service(model_900)
        plan = _plan(FaultSpec(site="serve.scheduler", kind="reject",
                               schedule=(0,)))
        phi1, phi2 = press_phases[0]
        with observed() as registry:
            with inject(plan):
                first = asyncio.run(service.estimate(
                    _request(phi1, phi2)))
        assert first.quality == "recovered"
        assert first.estimate.touched
        # Session is intact: the next (unarmed) request is plain ok.
        follow = asyncio.run(service.estimate(
            _request(phi1, phi2, sequence=1)))
        assert follow.quality == "ok"
        session = service.sessions.get("s-0")
        assert not session.quarantined
        assert len(session.samples) == 2
        counters = registry.snapshot()["counters"]
        assert counters["fault.retries.serve.submit"] == 1

    def test_exhausted_retry_budget_sheds_as_queue_full(
            self, model_900, press_phases):
        service = _service(model_900,
                           retry_policy=RetryPolicy(
                               attempts=2, base_delay_s=0.0001))
        plan = _plan(FaultSpec(site="serve.scheduler", kind="reject",
                               probability=1.0))
        phi1, phi2 = press_phases[0]
        with inject(plan):
            with pytest.raises(QueueFullError):
                asyncio.run(service.estimate(_request(phi1, phi2)))
        # Shed, not crashed: the service still serves afterwards.
        response = asyncio.run(service.estimate(
            _request(phi1, phi2, sequence=1)))
        assert response.quality == "ok"


class TestStallDegradation:
    def test_stall_marks_response_degraded(self, model_900, press_phases):
        service = _service(model_900)
        plan = _plan(FaultSpec(site="serve.scheduler", kind="stall",
                               schedule=(0,), magnitude=0.001))
        phi1, phi2 = press_phases[1]
        with inject(plan):
            response = asyncio.run(service.estimate(
                _request(phi1, phi2)))
        assert response.quality == "degraded"
        # Degraded responses still carry a real estimate.
        assert response.estimate.touched

    def test_unarmed_service_reports_ok(self, model_900, press_phases):
        service = _service(model_900)
        phi1, phi2 = press_phases[1]
        response = asyncio.run(service.estimate(_request(phi1, phi2)))
        assert response.quality == "ok"


class TestCircuitBreaker:
    def test_open_breaker_serves_scalar_degraded(self, estimator,
                                                 press_phases):
        """Once the batch path has failed enough, the breaker opens and
        requests go straight to the scalar path (flagged degraded)
        instead of re-attempting the broken batcher."""
        breaker = CircuitBreaker(failure_threshold=1,
                                 recovery_timeout_s=60.0)
        scheduler = MicroBatchScheduler(
            BatchPolicy(max_batch=4, max_delay_s=0.0005),
            breaker=breaker)
        exploding = _ExplodingBatcher(estimator)

        async def drive():
            first = await scheduler.submit(exploding,
                                           *press_phases[0])
            second = await scheduler.submit(exploding,
                                            *press_phases[1])
            return first, second

        first, second = asyncio.run(drive())
        # First request rode the batch-failure fallback; the failure
        # opened the breaker, so the second never touched the batcher.
        assert first.quality == "degraded"
        assert second.quality == "degraded"
        assert breaker.state == "open"
        telemetry = scheduler.telemetry.snapshot()["counters"]
        assert telemetry["serve.breaker_scalar"] == 1
        assert telemetry["serve.scalar_direct"] == 1
        # Both degraded paths still answer with the exact scalar estimate.
        for (phi1, phi2), result in zip(press_phases, (first, second)):
            assert result.batch_size == 1
            assert result.estimate == estimator.invert(phi1, phi2)

    def test_breaker_closes_after_successful_probe(self, estimator,
                                                   press_phases):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(failure_threshold=1,
                                 recovery_timeout_s=1.0,
                                 clock=lambda: clock["t"])
        scheduler = MicroBatchScheduler(
            BatchPolicy(max_batch=4, max_delay_s=0.0005),
            breaker=breaker)
        asyncio.run(scheduler.submit(_ExplodingBatcher(estimator),
                                     *press_phases[0]))
        assert breaker.state == "open"
        clock["t"] = 2.0  # past the cooldown: half-open probe allowed
        result = asyncio.run(scheduler.submit(estimator,
                                              *press_phases[1]))
        assert result.quality == "ok"
        assert breaker.state == "closed"


class TestQuarantine:
    def _session(self, estimator, **kwargs):
        return SensorSession("q-0", SensorConfig(), estimator, **kwargs)

    def test_streak_quarantines_and_ok_lifts(self, estimator):
        session = self._session(estimator, quarantine_after=2)
        session.note_quality("degraded")
        assert not session.quarantined
        session.note_quality("degraded")
        assert session.quarantined
        assert session.quarantines == 1
        # baseline_samples=0 means the baseline is always ready, so a
        # clean result lifts the quarantine immediately.
        session.note_quality("ok")
        assert not session.quarantined

    def test_quarantine_discards_baseline_and_rewarns(self, estimator):
        session = self._session(estimator, baseline_samples=2,
                                quarantine_after=2)
        session.correct(0.0, 0.1, 0.2)
        session.correct(0.1, 0.1, 0.2)
        assert session.baseline_ready
        session.note_quality("degraded")
        session.note_quality("degraded")
        assert session.quarantined
        assert not session.baseline_ready
        # Re-warmup: two more samples refit the baseline and lift the
        # quarantine from inside _fit_baseline.
        session.correct(0.2, 0.1, 0.2)
        session.correct(0.3, 0.1, 0.2)
        assert session.baseline_ready
        assert not session.quarantined

    def test_service_streak_flags_quarantined_responses(
            self, model_900, press_phases):
        service = _service(model_900)
        plan = _plan(FaultSpec(site="serve.scheduler", kind="stall",
                               schedule=tuple(range(8)),
                               magnitude=0.0005))
        phi1, phi2 = press_phases[2]
        with inject(plan):
            responses = [
                asyncio.run(service.estimate(
                    _request(phi1, phi2, sequence=i)))
                for i in range(6)
            ]
        qualities = [r.quality for r in responses]
        assert qualities[:4] == ["degraded"] * 4
        assert "quarantined" in qualities[4:]
        assert service.sessions.get("s-0").quarantines == 1
