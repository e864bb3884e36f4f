"""The perf-regression gate: benchmarks/compare_bench.py.

The script lives in ``benchmarks/`` (not a package), so it is loaded
via importlib straight from its path — exactly how CI executes it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).parent.parent / "benchmarks"
           / "compare_bench.py")


def _load():
    spec = importlib.util.spec_from_file_location("compare_bench",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load()

ESTIMATOR_BASELINE = {
    "n_samples": 1000,
    "scalar_seconds": 0.60,
    "batch_seconds": 0.10,
    "batch_speedup": 6.0,
}


class TestExtractMetrics:
    def test_estimator_schema_ratio_only(self):
        metrics = compare_bench.extract_metrics(ESTIMATOR_BASELINE)
        assert metrics == {"batch_speedup": 6.0}

    def test_cache_schema(self):
        report = {"warm_speedup": 3.8, "cold_seconds": 7.0,
                  "warm_seconds": 1.85}
        assert compare_bench.extract_metrics(report) == {
            "warm_speedup": 3.8}

    def test_reader_schema(self):
        report = {"cold_speedup": 24.8, "oracle_frames_per_s": 2.4e5,
                  "fast_frames_per_s": 5.9e6,
                  "stream_batch_speedup": 0.96}
        assert compare_bench.extract_metrics(report) == {
            "cold_speedup": 24.8}

    def test_chaos_schema(self):
        report = {"survival": {"survival_rate": 0.98, "crashes": 0},
                  "injected_faults": 20}
        assert compare_bench.extract_metrics(report) == {
            "chaos_survival_rate": 0.98}

    def test_chaos_survival_regression_fails(self):
        baseline = {"survival": {"survival_rate": 1.0}}
        fresh = {"survival": {"survival_rate": 0.5}}
        _, failures = compare_bench.compare(baseline, fresh)
        assert len(failures) == 1
        assert "chaos_survival_rate" in failures[0]

    def test_unknown_schema_is_empty(self):
        assert compare_bench.extract_metrics({"something": 1}) == {}


class TestCompare:
    def test_small_drop_passes(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=5.5)
        lines, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_large_drop_fails(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=4.0)  # -33%
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert len(failures) == 1
        assert "batch_speedup" in failures[0]
        assert "33.3%" in failures[0]

    def test_improvement_passes(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=9.0)
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert failures == []

    def test_gate_threshold_is_configurable(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=5.5)  # -8.3%
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh,
                                            max_regression=0.05)
        assert failures

    def test_missing_fresh_metric_fails(self):
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE,
                                            {"something": 1})
        assert any("missing" in f for f in failures)

    def test_metric_missing_from_baseline_fails(self):
        """A baseline regenerated from part of a suite must not
        silently stop gating the metrics it dropped."""
        partial = {"campaign": {"parallel_speedup": 2.5}}
        fresh = dict(ESTIMATOR_BASELINE, campaign={"parallel_speedup": 2.5})
        lines, failures = compare_bench.compare(partial, fresh)
        assert failures == ["metric batch_speedup missing from baseline "
                            "report (regenerate the baseline from the "
                            "whole suite)"]
        assert any(line.startswith("batch_speedup") and "FAIL" in line
                   for line in lines)

    def test_empty_baseline_fails(self):
        _, failures = compare_bench.compare({"something": 1},
                                            ESTIMATOR_BASELINE)
        assert failures == ["baseline report carries no tracked metrics"]

    def test_non_positive_baseline_skipped(self):
        baseline = {"batch_speedup": 0.0}
        lines, failures = compare_bench.compare(
            baseline, {"batch_speedup": 1.0})
        assert failures == []
        assert any("skip" in line for line in lines)


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        fresh = self._write(tmp_path, "fresh.json",
                            dict(ESTIMATOR_BASELINE, batch_speedup=5.8))
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh]) == 0
        out = capsys.readouterr().out
        assert "perf gate passed" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        fresh = self._write(tmp_path, "fresh.json",
                            dict(ESTIMATOR_BASELINE, batch_speedup=3.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "FAIL" in captured.out

    def test_rejects_bad_threshold(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        with pytest.raises(SystemExit):
            compare_bench.main(["--baseline", baseline,
                                "--fresh", baseline,
                                "--max-regression", "1.5"])

    def test_gates_committed_baselines(self, capsys):
        """The committed BENCH_*.json files pass against themselves."""
        results = _SCRIPT.parent / "results"
        for name in ("BENCH_estimator.json", "BENCH_cache.json",
                     "BENCH_chaos.json", "BENCH_reader.json"):
            path = results / name
            assert compare_bench.main(["--baseline", str(path),
                                       "--fresh", str(path)]) == 0
        capsys.readouterr()

    def test_estimator_baseline_gates_the_batch_speedup(self):
        """The committed estimator baseline covers the whole suite."""
        path = _SCRIPT.parent / "results" / "BENCH_estimator.json"
        metrics = compare_bench.extract_metrics(
            json.loads(path.read_text()))
        assert set(metrics) == {"batch_speedup",
                                "campaign_parallel_speedup",
                                "campaign_cold_speedup"}
