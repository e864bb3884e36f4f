"""Telemetry instruments: counters, histograms, spans, snapshots.

The inference service records into the shared :mod:`repro.obs`
registry; these tests pin the instrument behaviour it relies on.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import BATCH_BUCKETS, Histogram, MemorySink, Registry


class TestCounter:
    def test_increments(self):
        telemetry = Registry()
        counter = telemetry.counter("requests")
        counter.increment()
        counter.increment(4)
        assert telemetry.counter("requests").value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ObservabilityError):
            Registry().counter("x").increment(-1)


class TestHistogram:
    def test_observe_statistics(self):
        histogram = Histogram("latency", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 10.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.mean == pytest.approx(3.75)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 10.0

    def test_quantile_bounds(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for _ in range(100):
            histogram.observe(1.5)
        quantile = histogram.quantile(0.5)
        assert 1.0 <= quantile <= 2.0
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)

    def test_empty_quantile_is_nan(self):
        """Prometheus semantics: no observations means no quantile."""
        assert math.isnan(Histogram("h", bounds=(1.0,)).quantile(0.99))
        assert math.isnan(Histogram("h", bounds=(1.0,)).quantile(0.0))

    def test_overflow_quantile_clamps_to_largest_bound(self):
        """All mass beyond the last bound clamps, never invents values."""
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(100.0)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(0.99) == 2.0

    def test_mixed_overflow_quantile(self):
        """Quantiles below the overflow mass still use finite buckets."""
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for _ in range(9):
            histogram.observe(0.5)
        histogram.observe(50.0)
        # Median interpolates inside the first finite bucket...
        assert 0.0 < histogram.quantile(0.5) <= 1.0
        # ...while the tail that lands in overflow clamps to the bound.
        assert histogram.quantile(0.99) == 2.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("empty", bounds=())

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(1.0,)).quantile(1.5)


class TestSpan:
    def test_span_emits_to_sink(self):
        sink = MemorySink()
        telemetry = Registry(sink)
        with telemetry.span("flush", {"batch_size": 8}) as span:
            span.set("path", "batched")
        assert len(sink.events) == 1
        event = sink.events[0]
        assert event["span"] == "flush"
        assert event["batch_size"] == 8
        assert event["path"] == "batched"
        assert event["error"] is None
        assert event["duration_s"] >= 0.0

    def test_span_records_error(self):
        sink = MemorySink()
        telemetry = Registry(sink)
        with pytest.raises(RuntimeError):
            with telemetry.span("flush"):
                raise RuntimeError("boom")
        assert sink.events[0]["error"] == "RuntimeError"

    def test_span_duration_lands_in_histogram(self):
        """Spans double as latency histograms in the snapshot."""
        telemetry = Registry()
        with telemetry.span("flush"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["histograms"]["span.flush.seconds"]["count"] == 1


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        telemetry = Registry()
        telemetry.counter("requests").increment(3)
        telemetry.histogram("batch_size", BATCH_BUCKETS).observe(4)
        snapshot = json.loads(json.dumps(telemetry.snapshot()))
        assert snapshot["counters"]["requests"] == 3
        assert snapshot["histograms"]["batch_size"]["count"] == 1
        assert snapshot["histograms"]["batch_size"]["mean"] == 4.0
