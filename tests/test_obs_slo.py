"""SLO objectives and multi-window burn-rate alerting."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    Slo,
    SloMonitor,
    default_slos,
    evaluate_slo,
)

_AVAIL = Slo(name="avail", kind="availability", target=0.99,
             total=("requests",), bad=("errors",))
_LATENCY = Slo(name="lat", kind="latency", target=0.9,
               histogram="latency", threshold_s=0.1)


def _snapshot(requests=0, errors=0, latency=None):
    snapshot = {"counters": {"requests": requests, "errors": errors},
                "gauges": {}, "histograms": {}}
    if latency is not None:
        fast, slow = latency
        snapshot["histograms"]["latency"] = {
            "name": "latency", "bounds": [0.1, 1.0],
            "counts": [fast, slow, 0], "count": fast + slow,
            "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 1.0,
        }
    return snapshot


class TestSloValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ObservabilityError):
            Slo(name="x", kind="vibes")
        with pytest.raises(ObservabilityError):
            Slo(name="x", kind="report")

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ObservabilityError):
            Slo(name="x", kind="availability", target=1.0)

class TestPointInTime:
    def test_no_traffic_is_compliant(self):
        status = evaluate_slo(_AVAIL, _snapshot())
        assert status["ok"] and status["no_data"]
        assert status["compliance"] is None
        assert status["budget_remaining"] == 1.0

    def test_availability_math(self):
        status = evaluate_slo(_AVAIL,
                              _snapshot(requests=1000, errors=15))
        assert status["compliance"] == pytest.approx(0.985)
        assert not status["ok"]
        assert status["budget_remaining"] == 0.0

    def test_availability_within_budget(self):
        status = evaluate_slo(_AVAIL, _snapshot(requests=1000, errors=2))
        assert status["ok"]
        assert status["budget_remaining"] == pytest.approx(0.8)

    def test_latency_from_bucket_counts(self):
        status = evaluate_slo(_LATENCY,
                              _snapshot(latency=(95, 5)))
        assert status["compliance"] == pytest.approx(0.95)
        assert status["ok"]
        failing = evaluate_slo(_LATENCY, _snapshot(latency=(80, 20)))
        assert not failing["ok"]


class TestBurnRates:
    def _monitor(self, windows=DEFAULT_WINDOWS):
        clock = {"now": 0.0}
        monitor = SloMonitor((_AVAIL,), windows=windows,
                             clock=lambda: clock["now"])
        return monitor, clock

    def test_no_samples_is_quiet(self):
        monitor, _ = self._monitor()
        statuses = monitor.evaluate()
        assert statuses[0]["burn"] == []
        assert not statuses[0]["alerting"]

    def test_single_sample_has_no_burn(self):
        monitor, _ = self._monitor()
        statuses = monitor.observe(_snapshot(requests=10))
        for burn in statuses[0]["burn"]:
            assert burn["burn_rate"] is None
        assert not statuses[0]["alerting"]

    def test_fast_burn_alerts_when_all_windows_burn(self):
        monitor, clock = self._monitor()
        monitor.observe(_snapshot(requests=1000, errors=0))
        clock["now"] = 60.0
        # 50% error rate over the window = 50x budget velocity for a
        # 99% objective — above both the 14.4x and 6x factors.
        statuses = monitor.observe(_snapshot(requests=1200,
                                             errors=100))
        status = statuses[0]
        rates = [burn["burn_rate"] for burn in status["burn"]]
        assert all(rate == pytest.approx(50.0) for rate in rates)
        assert status["alerting"]

    def test_slow_clean_window_vetoes_the_alert(self):
        monitor, clock = self._monitor(
            windows=((60.0, 14.4), (3600.0, 6.0)))
        monitor.observe(_snapshot(requests=1000, errors=0))
        clock["now"] = 1800.0
        monitor.observe(_snapshot(requests=101000, errors=10))
        clock["now"] = 1830.0
        # Short window burns hot; the hour window has absorbed the
        # clean history, so its rate sits under 6x and vetoes.
        statuses = monitor.observe(_snapshot(requests=101100,
                                             errors=40))
        status = statuses[0]
        short, long = status["burn"]
        assert short["alerting"]
        assert not long["alerting"]
        assert not status["alerting"]

    def test_counter_reset_does_not_go_negative(self):
        monitor, clock = self._monitor()
        monitor.observe(_snapshot(requests=100, errors=50))
        clock["now"] = 10.0
        statuses = monitor.observe(_snapshot(requests=200, errors=0))
        for burn in statuses[0]["burn"]:
            if burn["burn_rate"] is not None:
                assert burn["burn_rate"] == 0.0

    def test_default_slos_cover_gateway_and_latency(self):
        names = {slo.name for slo in default_slos()}
        assert names == {"gateway-availability", "serve-latency"}

