"""Perf-regression gate: diff a fresh ``BENCH_*.json`` vs a baseline.

CI runs this after the bench-smoke suites regenerate the benchmark
reports, comparing them against the baselines committed in
``benchmarks/results/``.  The gate fails (exit code 1) when any
tracked metric drops by more than ``--max-regression`` (default 20%),
or when one side tracks a metric the other lacks: a fresh report that
lost a metric stopped measuring it, and a baseline that lacks one
(say, regenerated from part of a suite) would silently stop gating it.

Only **machine-normalized ratio metrics** are gated — the
batch-vs-scalar speedup, the campaign/cache/reader speedups and the
chaos survival rate — because a CI runner is not the machine that
produced the committed baseline, so absolute throughputs would gate on
hardware, not code.

The script understands every committed report schema
(``BENCH_estimator``, ``BENCH_cache``, ``BENCH_reader``,
``BENCH_chaos``) by key inspection, so pre-``schema_version``
baselines keep working.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def extract_metrics(report: dict) -> Dict[str, float]:
    """Higher-is-better metrics from any committed report schema."""
    metrics: Dict[str, float] = {}
    # BENCH_estimator.json shape.
    if "batch_speedup" in report:
        metrics["batch_speedup"] = float(report["batch_speedup"])
    # BENCH_estimator.json campaign block: the speedups of two
    # back-to-back sharded runs (each spawns its own pool) over the
    # acquisition-paced serial campaign.  Both are machine-normalized
    # ratios (and the workload is paced by sleeps, not host compute),
    # so they are always gated — the original 0.52x parallel
    # regression shipped precisely because this block was invisible
    # to CI.
    campaign = report.get("campaign")
    if isinstance(campaign, dict):
        if "parallel_speedup" in campaign:
            metrics["campaign_parallel_speedup"] = float(
                campaign["parallel_speedup"])
        if "cold_speedup" in campaign:
            metrics["campaign_cold_speedup"] = float(
                campaign["cold_speedup"])
    # BENCH_cache.json shape.
    if "warm_speedup" in report:
        metrics["warm_speedup"] = float(report["warm_speedup"])
    # BENCH_reader.json shape: the fused-vs-oracle cold speedup.
    if "cold_speedup" in report:
        metrics["cold_speedup"] = float(report["cold_speedup"])
    # BENCH_chaos.json shape: the survival rate is a ratio in [0, 1]
    # and machine-independent, so it is always gated.
    if "survival" in report:
        metrics["chaos_survival_rate"] = float(
            report["survival"]["survival_rate"])
    return metrics


def compare(baseline: dict, fresh: dict, max_regression: float = 0.20
            ) -> Tuple[List[str], List[str]]:
    """Compare two reports; returns (table lines, failure messages)."""
    base_metrics = extract_metrics(baseline)
    fresh_metrics = extract_metrics(fresh)
    if not base_metrics:
        return [], ["baseline report carries no tracked metrics"]
    lines = [f"{'metric':<26}  {'baseline':>12}  {'fresh':>12}  "
             f"{'change':>8}  verdict"]
    failures: List[str] = []
    for name in sorted(set(base_metrics) | set(fresh_metrics)):
        base_value = base_metrics.get(name)
        fresh_value = fresh_metrics.get(name)
        if base_value is None:
            failures.append(f"metric {name} missing from baseline report "
                            f"(regenerate the baseline from the whole "
                            f"suite)")
            lines.append(f"{name:<26}  {'missing':>12}  "
                         f"{fresh_value:>12.3f}  {'-':>8}  FAIL")
            continue
        if fresh_value is None:
            failures.append(f"metric {name} missing from fresh report")
            lines.append(f"{name:<26}  {base_value:>12.3f}  "
                         f"{'missing':>12}  {'-':>8}  FAIL")
            continue
        if base_value <= 0.0:
            lines.append(f"{name:<26}  {base_value:>12.3f}  "
                         f"{fresh_value:>12.3f}  {'-':>8}  skip "
                         f"(non-positive baseline)")
            continue
        change = fresh_value / base_value - 1.0
        regressed = change < -max_regression
        verdict = "FAIL" if regressed else "ok"
        lines.append(f"{name:<26}  {base_value:>12.3f}  "
                     f"{fresh_value:>12.3f}  {change:>+7.1%}  {verdict}")
        if regressed:
            failures.append(
                f"{name} regressed {abs(change):.1%} "
                f"({base_value:.3f} -> {fresh_value:.3f}), "
                f"above the {max_regression:.0%} gate")
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh benchmark report regresses "
                    "throughput vs a baseline")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="tolerated fractional drop (default 0.20)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")
    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    lines, failures = compare(baseline, fresh,
                              max_regression=args.max_regression)
    print(f"perf gate: {args.fresh} vs baseline {args.baseline} "
          f"(max regression {args.max_regression:.0%})")
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
