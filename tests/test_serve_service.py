"""InferenceService end-to-end: routing, parity, telemetry, events.

The load-bearing guarantee is *batch parity*: whatever micro-batches
the scheduler happens to form, every response must be element-wise
equal to what the scalar ``ForceLocationEstimator.invert`` path
returns for the same phases.  The hypothesis property below drives
randomized multi-sensor loads through the full service to check it.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import ForceLocationEstimator
from repro.errors import ServeError
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)
from tests.clients import estimate_many

#: Phases seen in practice live well inside one wrap.
_PHASE = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False)


def _service(model, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8,
                                            max_delay_s=0.001))
    return InferenceService(model_factory=lambda config: model, **kwargs)


def _requests(phases, sensors=3):
    config = SensorConfig()
    return [
        EstimateRequest(sensor_id=f"s-{index % sensors}",
                        sequence=index // sensors,
                        time=0.01 * (index // sensors),
                        phi1=phi1, phi2=phi2, config=config)
        for index, (phi1, phi2) in enumerate(phases)
    ]


class TestServiceBasics:
    def test_response_echoes_request_identity(self, model_900):
        service = _service(model_900)
        request = _requests([(0.5, 0.4)])[0]
        response = asyncio.run(service.estimate(request))
        assert response.sensor_id == request.sensor_id
        assert response.sequence == request.sequence
        assert response.time == request.time
        assert response.batch_size >= 1
        assert response.latency_s >= 0.0

    def test_untouched_sample_is_classified_untouched(self, model_900):
        service = _service(model_900)
        response = asyncio.run(service.estimate(
            _requests([(0.0, 0.0)])[0]))
        assert not response.touched
        assert response.force == 0.0

    def test_telemetry_snapshot_counts_requests(self, model_900):
        service = _service(model_900)
        requests = _requests([(0.5, 0.4), (0.7, 0.6), (0.0, 0.0)])
        asyncio.run(estimate_many(service, requests))
        snapshot = service.telemetry_snapshot()
        assert snapshot["counters"]["serve.requests"] == 3
        assert snapshot["counters"]["serve.responses"] == 3
        assert snapshot["histograms"]["span.serve.estimate.seconds"][
            "count"] == 3
        assert snapshot["sessions"] == {"count": 3}
        assert snapshot["counters"]["serve.session.model_builds"] == 1

    def test_parked_request_outlives_its_dropped_estimator(self,
                                                          model_900):
        """Evicting a config's last session drops its estimator while a
        request parked with it waits: that request still completes, the
        returning sensor's new estimator batches apart from it, and
        both answers are bit-identical."""
        service = _service(model_900, max_sessions=1,
                           policy=BatchPolicy(max_batch=8,
                                              max_delay_s=10.0))
        phi1, phi2 = model_900.predict(3.0, 0.035)

        def request(sensor_id, sequence, config=SensorConfig()):
            return EstimateRequest(sensor_id=sensor_id, sequence=sequence,
                                   time=0.01 * sequence, phi1=phi1,
                                   phi2=phi2, config=config)

        async def drive():
            first = asyncio.ensure_future(service.estimate(request("a", 0)))
            await asyncio.sleep(0)
            dropped = weakref.ref(service.sessions.get("a").estimator)
            # "b" evicts "a", the default config's last session.
            other = asyncio.ensure_future(service.estimate(request(
                "b", 0, SensorConfig(touch_threshold_deg=9.0))))
            await asyncio.sleep(0)
            returning = asyncio.ensure_future(
                service.estimate(request("a", 1)))
            await asyncio.sleep(0)
            assert service.sessions.get("a").estimator is not dropped()
            assert service.scheduler.pending == 3
            service.drain()
            return (await first, await other, await returning), dropped

        (first, other, returning), dropped = asyncio.run(drive())
        gc.collect()
        assert dropped() is None
        expected = ForceLocationEstimator(model_900).invert(phi1, phi2)
        assert first.estimate == returning.estimate == expected
        assert (first.batch_size, returning.batch_size) == (1, 1)
        assert first.quality == returning.quality == "ok"
        assert other.estimate.touched

    def test_touch_events_served_history(self, model_900):
        service = _service(model_900)
        phi1, phi2 = model_900.predict_batch(
            np.array([3.0, 4.0]), np.array([0.04, 0.04]))
        requests = [
            EstimateRequest(sensor_id="s-0", sequence=0, time=0.00,
                            phi1=0.0, phi2=0.0),
            EstimateRequest(sensor_id="s-0", sequence=1, time=0.01,
                            phi1=float(phi1[0]), phi2=float(phi2[0])),
            EstimateRequest(sensor_id="s-0", sequence=2, time=0.02,
                            phi1=float(phi1[1]), phi2=float(phi2[1])),
            EstimateRequest(sensor_id="s-0", sequence=3, time=0.03,
                            phi1=0.0, phi2=0.0),
        ]
        asyncio.run(estimate_many(service, requests))
        events = service.touch_events("s-0")
        assert len(events) == 1
        assert events[0].onset == 0.01
        assert events[0].release == 0.02
        assert events[0].peak_force > 0.0

    def test_touch_events_unknown_sensor_raises(self, model_900):
        service = _service(model_900)
        with pytest.raises(ServeError):
            service.touch_events("never-served")


class TestServiceParity:
    """Service == scalar invert, element-wise, under random loads."""

    @settings(max_examples=20, deadline=None)
    @given(phases=st.lists(st.tuples(_PHASE, _PHASE), min_size=1,
                           max_size=24),
           sensors=st.integers(min_value=1, max_value=4),
           max_batch=st.integers(min_value=1, max_value=16))
    def test_randomized_multi_sensor_parity(self, model_900, phases,
                                            sensors, max_batch):
        reference = ForceLocationEstimator(model_900)
        service = _service(
            model_900,
            policy=BatchPolicy(max_batch=max_batch, max_delay_s=0.001))
        requests = _requests(phases, sensors=sensors)
        responses = asyncio.run(estimate_many(service, requests))
        for request, response in zip(requests, responses):
            expected = reference.invert(request.phi1, request.phi2)
            assert response.estimate == expected
