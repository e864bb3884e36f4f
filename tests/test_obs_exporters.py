"""Exporter: Prometheus text rendering."""

from __future__ import annotations

from pathlib import Path

from repro.obs import Registry, to_prometheus

GOLDEN = Path(__file__).parent / "data" / "obs_prometheus.golden.txt"


def _example_registry() -> Registry:
    """Deterministic instruments matching the committed golden file."""
    registry = Registry()
    registry.counter("estimator.inversions").increment(3)
    registry.gauge("campaign.worker_utilization").set(0.75)
    histogram = registry.histogram("reader.capture_seconds",
                                   bounds=(1.0, 2.0))
    for value in (0.5, 1.5, 4.0):
        histogram.observe(value)
    return registry


class TestPrometheus:
    def test_matches_golden_file(self):
        """The text exposition format is a contract — diff vs golden."""
        assert to_prometheus(_example_registry()) == GOLDEN.read_text()

    def test_accepts_snapshot_dict(self):
        registry = _example_registry()
        assert (to_prometheus(registry.snapshot())
                == to_prometheus(registry))

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(Registry()) == ""

    def test_names_are_sanitized(self):
        registry = Registry()
        registry.counter("serve/flush-errors.total").increment()
        text = to_prometheus(registry)
        assert "repro_serve_flush_errors_total 1" in text

    def test_custom_prefix(self):
        registry = Registry()
        registry.counter("c").increment()
        assert "wiforce_c 1" in to_prometheus(registry, prefix="wiforce")

    def test_buckets_are_cumulative(self):
        text = to_prometheus(_example_registry())
        lines = [line for line in text.splitlines() if "_bucket" in line]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3  # +Inf bucket equals the total count
