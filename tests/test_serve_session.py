"""Session state: model cache, phase pass-through, events."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.core.tracking import TrackedSample
from repro.errors import ServeError
from repro.obs.registry import process_registry
from repro.serve.protocol import SensorConfig
from repro.serve.session import SessionManager


def _counter(name):
    """A ``serve.session.*`` counter of the process registry (0 until
    first counted)."""
    return process_registry().snapshot()["counters"].get(
        f"serve.session.{name}", 0)


@pytest.fixture()
def manager(model_900):
    """A session manager whose factory reuses the cached test model
    and counts invocations."""
    calls = []

    def factory(config):
        calls.append(config)
        return model_900

    built = SessionManager(model_factory=factory)
    built.factory_calls = calls
    return built


class TestModelCache:
    def test_sensors_sharing_config_share_one_model(self, manager):
        config = SensorConfig()
        first = manager.session("sensor-a", config)
        second = manager.session("sensor-b", config)
        assert len(manager.factory_calls) == 1
        assert _counter("model_builds") == 1
        assert _counter("model_hits") >= 1
        assert first.estimator is second.estimator

    def test_threshold_change_reuses_calibration(self, manager):
        base = SensorConfig()
        stricter = SensorConfig(touch_threshold_deg=9.0)
        a = manager.session("sensor-a", base)
        b = manager.session("sensor-b", stricter)
        # One expensive calibration, two estimators.
        assert _counter("model_builds") == 1
        assert a.estimator is not b.estimator
        assert a.estimator.model is b.estimator.model

    def test_session_config_mismatch_raises(self, manager):
        manager.session("sensor-a", SensorConfig())
        with pytest.raises(ServeError):
            manager.session("sensor-a",
                            SensorConfig(touch_threshold_deg=9.0))

    def test_get_and_close(self, manager):
        assert manager.get("ghost") is None
        assert len(manager) == 0
        session = manager.session("sensor-a", SensorConfig())
        assert manager.get("sensor-a") is session
        assert len(manager) == 1


class TestBaselineCorrection:
    def test_no_warmup_passes_phases_through(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        assert session.correct(0.0, 0.3, -0.2) == (0.3, -0.2)


class TestHistoryAndEvents:
    @staticmethod
    def _sample(time, touched, force=0.0, location=0.0):
        return TrackedSample(time=time, phi1=0.0, phi2=0.0,
                             touched=touched, force=force,
                             location=location)

    def test_touch_events_from_history(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        for sample in (self._sample(0.0, False),
                       self._sample(0.1, True, 2.0, 0.03),
                       self._sample(0.2, True, 4.0, 0.04),
                       self._sample(0.3, False),
                       self._sample(0.4, True, 1.0, 0.05)):
            session.record(sample)
        events = session.touch_events()
        assert len(events) == 2
        assert events[0].peak_force == 4.0
        assert events[1].onset == 0.4

    def test_empty_history_has_no_events(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        assert session.touch_events() == []

    def test_session_memory_is_bounded(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for index in range(20_000):
                session.record(self._sample(0.036 * index, False))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        # Presses of 3 and 5 groups, released, then 4 groups still held.
        flags = [True] * 3 + [False] + [True] * 5 + [False] + [True] * 4
        for index, touched in enumerate(flags, 20_000):
            session.record(self._sample(0.036 * index, touched, 2.0, 0.04))
        assert len(session.samples) == 4
        assert len(session.closed_touch_events()) == 2
        assert len(session.touch_events()) == 3


class TestEviction:
    @staticmethod
    def _manager(model, clock=None, **kwargs):
        return SessionManager(model_factory=lambda config: model,
                              clock=clock, **kwargs)

    def test_lru_cap_evicts_least_recently_used(self, model_900):
        manager = self._manager(model_900, max_sessions=2)
        manager.session("a", SensorConfig())
        manager.session("b", SensorConfig())
        manager.session("a", SensorConfig())  # refresh a -> b is LRU
        manager.session("c", SensorConfig())
        assert manager.get("b") is None
        assert manager.get("a") is not None
        assert manager.get("c") is not None
        assert len(manager) == 2
        assert _counter("evictions") == 1

    def test_idle_ttl_evicts_stale_sessions(self, model_900):
        now = [0.0]
        manager = self._manager(model_900, clock=lambda: now[0],
                                idle_ttl_s=10.0)
        manager.session("a", SensorConfig())
        now[0] = 5.0
        manager.session("b", SensorConfig())
        now[0] = 16.0  # a idle 16 s > TTL; b idle 11 s > TTL
        manager.session("c", SensorConfig())
        assert manager.get("a") is None
        assert manager.get("b") is None
        assert manager.get("c") is not None
        assert _counter("evictions") == 2

    def test_access_refreshes_idle_clock(self, model_900):
        now = [0.0]
        manager = self._manager(model_900, clock=lambda: now[0],
                                idle_ttl_s=10.0)
        manager.session("a", SensorConfig())
        now[0] = 8.0
        manager.session("a", SensorConfig())  # touch before the TTL
        now[0] = 15.0  # only 7 s since the touch
        manager.session("b", SensorConfig())
        assert manager.get("a") is not None
        assert _counter("evictions") == 0

    def test_eviction_counter_lands_in_registry(self, model_900):
        from repro.obs.registry import observed

        with observed() as registry:
            manager = self._manager(model_900, max_sessions=1)
            manager.session("a", SensorConfig())
            manager.session("b", SensorConfig())
        counters = registry.snapshot()["counters"]
        assert counters["serve.session.evictions"] == 1

    def test_evicted_session_state_is_discarded(self, model_900):
        manager = self._manager(model_900, max_sessions=1)
        session = manager.session("a", SensorConfig())
        session.record(TrackedSample(time=0.0, phi1=0.1, phi2=0.2,
                                     touched=True, force=1.0,
                                     location=0.03))
        assert len(session.touch_events()) == 1
        manager.session("b", SensorConfig())
        reopened = manager.session("a", SensorConfig())
        assert reopened is not session
        assert reopened.touch_events() == []

    def test_eviction_bounds_are_validated(self, model_900):
        with pytest.raises(ServeError):
            self._manager(model_900, max_sessions=0)
        for ttl in (0.0, float("nan"), float("inf")):
            with pytest.raises(ServeError):
                self._manager(model_900, idle_ttl_s=ttl)

    def test_service_exposes_eviction_knobs(self, model_900):
        import asyncio

        from repro.serve import EstimateRequest, InferenceService

        service = InferenceService(
            model_factory=lambda config: model_900, max_sessions=2)
        config = SensorConfig()
        for index, sensor in enumerate("abc"):
            asyncio.run(service.estimate(EstimateRequest(
                sensor_id=sensor, sequence=index, time=0.0,
                phi1=0.1, phi2=0.1, config=config)))
        snapshot = service.telemetry_snapshot()
        assert snapshot["sessions"] == {"count": 2}
        assert snapshot["counters"]["serve.session.evictions"] == 1

    def test_estimator_goes_with_the_last_session_of_its_config(
            self, model_900):
        """Evicting a config's last session drops its estimator; the
        calibrated model stays, so a returning sensor re-opens without
        a model build."""
        manager = self._manager(model_900, max_sessions=2)
        default, stricter = (SensorConfig(),
                             SensorConfig(touch_threshold_deg=9.0))
        first = weakref.ref(manager.session("a", default).estimator)
        manager.session("b", default)
        manager.session("c", stricter)  # evicts "a"; "b" keeps default
        gc.collect()
        assert manager.session("b").estimator is first()
        manager.session("d", stricter)  # evicts "c"
        manager.session("e", stricter)  # evicts "b", default's last
        gc.collect()
        assert first() is None
        returning = manager.session("a", default)
        assert returning.estimator.model is model_900
        assert _counter("model_builds") == 1

    def test_estimators_bounded_by_live_sessions(self, model_900):
        """200 distinct thresholds through a 4-session manager keep 4
        estimators alive."""
        manager = self._manager(model_900, max_sessions=4)
        alive = []
        for index in range(200):
            session = manager.session(
                f"s-{index}",
                SensorConfig(touch_threshold_deg=1.0 + index * 1e-3))
            alive.append(weakref.ref(session.estimator))
        del session
        gc.collect()
        assert sum(ref() is not None for ref in alive) == 4
        assert _counter("evictions") == 196
