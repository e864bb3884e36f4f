"""Perf-regression gate: diff a fresh ``BENCH_*.json`` vs a baseline.

CI runs this after the bench-smoke suites regenerate the benchmark
reports, comparing them against the baselines committed in
``benchmarks/results/``.  The gate fails (exit code 1) when any
tracked throughput metric drops — or any latency metric in
``LOWER_IS_BETTER`` rises — by more than ``--max-regression``
(default 20%).

By default only **machine-normalized ratio metrics** are gated — the
batch-vs-scalar speedup and the service-vs-serial speedup — because a
CI runner is not the machine that produced the committed baseline, so
absolute req/s numbers would gate on hardware, not code.  Pass
``--absolute`` to also gate raw throughputs (useful when baseline and
fresh report come from the same machine).

The script understands both report schemas (``BENCH_estimator.json``
and ``BENCH_serve.json``) by key inspection, so pre-``schema_version``
baselines keep working.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Metrics gated on *increase* rather than decrease (latencies).
LOWER_IS_BETTER = frozenset({
    "gateway_p99_latency_ms",
    "gateway_p50_latency_ms",
    "fleet_p99_latency_ms",
})


def extract_metrics(report: dict, absolute: bool = False
                    ) -> Dict[str, float]:
    """Higher-is-better throughput metrics from either report schema."""
    metrics: Dict[str, float] = {}
    # BENCH_estimator.json shape.
    if "batch_speedup" in report:
        metrics["batch_speedup"] = float(report["batch_speedup"])
    if absolute and report.get("batch_seconds") and "n_samples" in report:
        metrics["batch_inversions_per_s"] = (
            report["n_samples"] / report["batch_seconds"])
    if absolute and report.get("scalar_seconds") and "n_samples" in report:
        metrics["scalar_inversions_per_s"] = (
            report["n_samples"] / report["scalar_seconds"])
    # BENCH_estimator.json campaign block: warm- and cold-pool
    # speedups over the acquisition-paced serial campaign.  Both are
    # machine-normalized ratios (and the workload is paced by sleeps,
    # not host compute), so they are always gated — the original
    # 0.52x parallel regression shipped precisely because this block
    # was invisible to CI.
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
    # BENCH_reader.json shape.  Only the fused-vs-oracle cold speedup
    # is gated; the stream batch ratio sits near 1 by design (both
    # sides are bound by the same per-frame noise draws) and would
    # gate on timer noise.
    if "cold_speedup" in report:
        metrics["cold_speedup"] = float(report["cold_speedup"])
    if absolute and report.get("fast_frames_per_s"):
        metrics["fast_frames_per_s"] = float(report["fast_frames_per_s"])
    if absolute and report.get("oracle_frames_per_s"):
        metrics["oracle_frames_per_s"] = float(
            report["oracle_frames_per_s"])
    # BENCH_chaos.json shape: the survival rate is a ratio in [0, 1]
    # and machine-independent, so it is always gated.
    if "survival" in report:
        metrics["chaos_survival_rate"] = float(
            report["survival"]["survival_rate"])
    # BENCH_gateway.json shape.  The gateway-vs-in-process throughput
    # ratio and the accept rate are machine-normalized, so they are
    # always gated; absolute throughput and latency percentiles gate
    # hardware as much as code and sit behind ``--absolute``.
    if "gateway_vs_inprocess" in report:
        metrics["gateway_vs_inprocess"] = float(
            report["gateway_vs_inprocess"])
        gateway = report.get("gateway", {})
        if "rejection_rate" in gateway:
            metrics["gateway_accept_rate"] = 1.0 - float(
                gateway["rejection_rate"])
        if absolute:
            if "throughput_rps" in gateway:
                metrics["gateway_throughput_rps"] = float(
                    gateway["throughput_rps"])
            for percentile in ("p50", "p99"):
                key = f"{percentile}_latency_ms"
                if key in gateway:
                    metrics[f"gateway_{key}"] = float(gateway[key])
    # BENCH_fleet.json shape.  The sharded-vs-single ratio and the
    # ring balance are machine-normalized; parity is the bit-identical
    # contract collapsed to 1.0/0.0, so any nonzero delta fails the
    # gate outright (a 1.0 baseline cannot tolerate a 0.0).
    if "sharded_vs_single" in report:
        metrics["sharded_vs_single"] = float(report["sharded_vs_single"])
        if "shard_balance" in report:
            metrics["fleet_shard_balance"] = float(
                report["shard_balance"])
        parity = report.get("parity", {})
        if parity:
            metrics["fleet_parity_ok"] = float(
                parity.get("max_force_delta_n", 1.0) == 0.0
                and parity.get("max_location_delta_m", 1.0) == 0.0
                and parity.get("touched_match", False))
        if absolute and "fleet" in report:
            metrics["fleet_throughput_rps"] = float(
                report["fleet"]["throughput_rps"])
            metrics["fleet_p99_latency_ms"] = float(
                report["fleet"]["latency_p99_s"]) * 1e3
    # BENCH_serve.json shape.
    if "speedup_vs_serial" in report:
        metrics["speedup_vs_serial"] = float(report["speedup_vs_serial"])
    if absolute and "service" in report:
        metrics["service_throughput_rps"] = float(
            report["service"]["throughput_rps"])
    if absolute and "serial_baseline" in report:
        metrics["serial_throughput_rps"] = float(
            report["serial_baseline"]["throughput_rps"])
    return metrics


def compare(baseline: dict, fresh: dict, max_regression: float = 0.20,
            absolute: bool = False
            ) -> Tuple[List[str], List[str]]:
    """Compare two reports; returns (table lines, failure messages)."""
    base_metrics = extract_metrics(baseline, absolute=absolute)
    fresh_metrics = extract_metrics(fresh, absolute=absolute)
    if not base_metrics:
        return [], ["baseline report carries no tracked metrics"]
    lines = [f"{'metric':<26}  {'baseline':>12}  {'fresh':>12}  "
             f"{'change':>8}  verdict"]
    failures: List[str] = []
    for name, base_value in sorted(base_metrics.items()):
        fresh_value = fresh_metrics.get(name)
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
        if name in LOWER_IS_BETTER:
            regressed = change > max_regression
            direction = "rose"
        else:
            regressed = change < -max_regression
            direction = "regressed"
        verdict = "FAIL" if regressed else "ok"
        lines.append(f"{name:<26}  {base_value:>12.3f}  "
                     f"{fresh_value:>12.3f}  {change:>+7.1%}  {verdict}")
        if regressed:
            failures.append(
                f"{name} {direction} {abs(change):.1%} "
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
    parser.add_argument("--absolute", action="store_true",
                        help="also gate raw throughputs, not just "
                             "machine-normalized speedups")
    parser.add_argument("--slo", action="store_true",
                        help="also evaluate the declarative serve SLOs "
                             "against the fresh report")
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")
    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    lines, failures = compare(baseline, fresh,
                              max_regression=args.max_regression,
                              absolute=args.absolute)
    print(f"perf gate: {args.fresh} vs baseline {args.baseline} "
          f"(max regression {args.max_regression:.0%})")
    for line in lines:
        print(line)
    if args.slo:
        try:
            from repro.obs.slo import (
                evaluate_report,
                render_statuses,
                report_slos,
            )
        except ImportError:
            # Running from a checkout without an installed package.
            sys.path.insert(
                0, str(Path(__file__).resolve().parents[1] / "src"))
            from repro.obs.slo import (
                evaluate_report,
                render_statuses,
                report_slos,
            )

        statuses = evaluate_report(report_slos(), fresh)
        print()
        print(render_statuses(statuses))
        failures.extend(
            f"SLO {status['name']} violated" for status in statuses
            if not status["ok"])
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
