"""Serve-path degradation under injected faults.

Covers the graceful-degradation contracts: transient backpressure is
retried inside the service (the session survives and the response says
``"recovered"``), injected stalls mark responses ``"degraded"``, and a
streak of degraded results quarantines the session until an ok one.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.errors import QueueFullError
from repro.faults import FaultPlan, FaultSpec, inject
from repro.obs.registry import observed
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)
from repro.serve.session import QUARANTINE_AFTER, SensorSession


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
        service = _service(model_900)
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


class TestQuarantine:
    def test_streak_quarantines_and_ok_lifts(self, estimator):
        session = SensorSession("q-0", SensorConfig(), estimator)
        with observed() as registry:
            for _ in range(QUARANTINE_AFTER - 1):
                session.note_quality("degraded")
            assert not session.quarantined
            session.note_quality("degraded")
        assert session.quarantined
        assert registry.snapshot()["counters"]["fault.quarantines"] == 1
        # A clean result lifts the quarantine immediately.
        session.note_quality("ok")
        assert not session.quarantined

    def test_service_streak_flags_quarantined_responses(
            self, model_900, press_phases):
        service = _service(model_900)
        plan = _plan(FaultSpec(site="serve.scheduler", kind="stall",
                               schedule=tuple(range(8)),
                               magnitude=0.0005))
        phi1, phi2 = press_phases[2]
        with inject(plan), observed() as registry:
            responses = [
                asyncio.run(service.estimate(
                    _request(phi1, phi2, sequence=i)))
                for i in range(6)
            ]
        qualities = [r.quality for r in responses]
        assert qualities[:4] == ["degraded"] * 4
        assert "quarantined" in qualities[4:]
        assert registry.snapshot()["counters"]["fault.quarantines"] == 1
