"""ASCII figures and latency-baseline tests."""

import numpy as np
import pytest

from repro.baselines.vision_haptics import (
    SLIP_DEADLINE,
    VisionHapticsPipeline,
    WiForceLatency,
    latency_comparison,
)
from repro.errors import ConfigurationError
from repro.experiments.figures import ascii_cdf, ascii_plot


class TestAsciiPlot:
    def test_renders_series(self):
        x = np.linspace(0.0, 8.0, 20)
        plot = ascii_plot([("phase", x, x ** 2)], x_label="force [N]",
                          y_label="deg")
        assert "p" in plot
        assert "force [N]" in plot
        assert "64" in plot  # y_max label (8^2) appears on the axis

    def test_two_series_distinct_markers(self):
        x = np.linspace(0.0, 1.0, 10)
        plot = ascii_plot([("a-series", x, x), ("b-series", x, 1 - x)])
        assert "a" in plot and "b" in plot

    def test_extremes_labelled(self):
        x = np.linspace(0.0, 1.0, 10)
        plot = ascii_plot([("s", x, 3.0 + x)])
        assert "3" in plot  # y_min label
        assert "4" in plot  # y_max label

    def test_constant_series_does_not_crash(self):
        x = np.linspace(0.0, 1.0, 10)
        plot = ascii_plot([("s", x, np.ones_like(x))])
        assert "s" in plot

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ascii_plot([])

    def test_rejects_mismatched(self):
        with pytest.raises(ConfigurationError):
            ascii_plot([("s", np.arange(3), np.arange(4))])

    def test_rejects_tiny_canvas(self):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            ascii_plot([("s", x, x)], width=4, height=2)


class TestAsciiCdfHistogram:
    def test_cdf_monotone_output(self, rng):
        errors = rng.normal(0.0, 1.0, 200)
        plot = ascii_cdf([("errors", errors)])
        assert "CDF" in plot

    def test_cdf_rejects_single_sample(self):
        with pytest.raises(ConfigurationError):
            ascii_cdf([("one", [0.5])])


class TestVisionLatencyBaseline:
    def test_vision_misses_slip_deadline(self):
        """The section 6 claim: a 30 fps vision pipeline cannot close
        the incipient-slip loop."""
        assert not VisionHapticsPipeline().meets_slip_deadline()

    def test_wiforce_meets_slip_deadline(self):
        assert WiForceLatency().meets_slip_deadline()

    def test_latency_ordering(self):
        result = latency_comparison()
        assert result["wiforce_latency_s"] < result["vision_latency_s"]
        assert result["advantage"] > 1.5

    def test_fast_camera_narrows_the_gap(self):
        slow = VisionHapticsPipeline(frame_rate=30.0)
        fast = VisionHapticsPipeline(frame_rate=240.0, inference_time=5e-3)
        assert fast.feedback_latency < slow.feedback_latency

    def test_deadline_parameter(self):
        assert VisionHapticsPipeline().meets_slip_deadline(deadline=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            VisionHapticsPipeline(frame_rate=0.0)
        with pytest.raises(ConfigurationError):
            WiForceLatency(group_duration=0.0)

    def test_slip_deadline_constant_sane(self):
        assert 0.01 <= SLIP_DEADLINE <= 0.2
