"""Shared observability registry: gauges, gating, scoped observation."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Histogram,
    MemorySink,
    Registry,
    active,
    disable,
    enable,
    enable_from_env,
    is_enabled,
    maybe_span,
    observed,
    set_registry,
)
from repro.obs.registry import _NULL_SPAN


@pytest.fixture(autouse=True)
def _restore_obs_state():
    """Snapshot and restore the process-wide obs state per test."""
    previous_enabled = is_enabled()
    previous_registry = set_registry(Registry())
    yield
    set_registry(previous_registry)
    if previous_enabled:
        enable()
    else:
        disable()


class TestGauge:
    def test_set_and_add(self):
        gauge = Registry().gauge("queue_depth")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_registry_reuses_instance(self):
        registry = Registry()
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")


class TestGating:
    def test_off_by_default_state(self):
        disable()
        assert not is_enabled()
        assert active() is None

    def test_enable_returns_default_registry(self):
        registry = enable()
        assert is_enabled()
        assert active() is registry

    def test_enable_installs_given_registry(self):
        mine = Registry()
        assert enable(mine) is mine
        assert active() is mine

    def test_disable_keeps_instruments(self):
        registry = enable()
        registry.counter("kept").increment()
        disable()
        assert active() is None
        assert enable().counter("kept").value == 1

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("", False),
        ("  ", False), ("FALSE", False),
    ])
    def test_enable_from_env(self, value, expected):
        disable()
        assert enable_from_env({"REPRO_OBS": value}) is expected
        assert is_enabled() is expected

    def test_enable_from_env_unset(self):
        disable()
        assert enable_from_env({}) is False


class TestMaybeSpan:
    def test_disabled_returns_shared_noop(self):
        disable()
        span = maybe_span("stage", {"k": 1})
        assert span is _NULL_SPAN
        with span as s:
            s.set("ignored", True)  # must be harmless

    def test_enabled_records_span(self):
        registry = Registry()
        enable(registry)
        with maybe_span("stage") as span:
            span.set("k", 2)
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.stage.seconds"]["count"] == 1


class TestObserved:
    def test_scopes_a_fresh_registry(self):
        disable()
        with observed() as registry:
            assert is_enabled()
            assert active() is registry
            registry.counter("inside").increment()
        assert not is_enabled()
        assert "inside" not in enable().snapshot()["counters"]

    def test_restores_previous_enabled_state(self):
        outer = enable()
        with observed() as inner:
            assert active() is inner
        assert is_enabled()
        assert active() is outer

    def test_restores_on_exception(self):
        disable()
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("boom")
        assert not is_enabled()

    def test_accepts_sink(self):
        sink = MemorySink()
        with observed(sink) as registry:
            with registry.span("s"):
                pass
        assert sink.events[0]["span"] == "s"

    def test_accepts_existing_registry(self):
        mine = Registry()
        with observed(registry=mine) as registry:
            assert registry is mine


class TestSpanStatus:
    def test_ok_span_has_explicit_status(self):
        sink = MemorySink()
        registry = Registry(sink)
        with registry.span("stage"):
            pass
        event = sink.events[0]
        assert event["status"] == "ok"
        assert event["error"] is None
        assert "error_message" not in event

    def test_error_span_records_message_not_just_type(self):
        sink = MemorySink()
        registry = Registry(sink)
        with pytest.raises(ValueError):
            with registry.span("stage"):
                raise ValueError("bad frame at index 7")
        event = sink.events[0]
        assert event["status"] == "error"
        assert event["error"] == "ValueError"
        assert event["error_message"] == "bad frame at index 7"


class TestHistogramMerge:
    def test_merge_adds_counts_and_widens_extremes(self):
        left = Histogram("h", (1.0, 2.0))
        right = Histogram("h", (1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.count == 3
        assert left.total == pytest.approx(11.0)
        assert left.minimum == pytest.approx(0.5)
        assert left.maximum == pytest.approx(9.0)

    def test_merge_empty_other_keeps_extremes(self):
        left = Histogram("h", (1.0,))
        left.observe(0.25)
        left.merge(Histogram("h", (1.0,)))
        assert left.count == 1
        assert left.minimum == pytest.approx(0.25)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", (1.0,)).merge(Histogram("h", (2.0,)))


class TestMergeSnapshot:
    def test_counters_sum_and_histograms_merge(self):
        parent = Registry()
        parent.counter("c").increment(2)
        parent.histogram("h", (1.0,)).observe(0.5)
        child = Registry()
        child.counter("c").increment(3)
        child.counter("only_child").increment()
        child.gauge("g").set(7.0)
        child.histogram("h", (1.0,)).observe(2.0)
        child.histogram("h2", (1.0,)).observe(0.1)
        parent.merge_snapshot(child.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["counters"]["only_child"] == 1
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h2"]["count"] == 1

    def test_empty_snapshot_is_a_noop(self):
        parent = Registry()
        parent.counter("c").increment()
        parent.merge_snapshot({})
        assert parent.snapshot()["counters"]["c"] == 1
