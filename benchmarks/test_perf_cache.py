"""Performance benchmark for the content-addressed artifact cache.

The claim under test: re-running a Monte-Carlo campaign with a warm
artifact cache skips the deterministic cold path (full-resolution
contact tables, nominal-model calibration, per-unit calibrations) and
is >= 3x faster than the cold run — while producing bit-identical
campaign medians, warm, cold, or with the cache disabled outright.

Each measurement runs in a **child process** so every run pays (or
skips) the true cold path: a fresh interpreter has no ``lru_cache``
state, so a warm run exercises exactly the disk tier that a fresh CI
step or a new campaign worker would.  Timing happens inside the child
(imports excluded); results come back as ``float.hex`` strings so the
bit-identity assertion is textual and exact.

The machine-readable summary lands in
``benchmarks/results/BENCH_cache.json`` with the obs counter snapshots
of the cold and warm children, and ``compare_bench.py`` gates the
``warm_speedup`` ratio (machine-normalized: both runs happen on the
same machine seconds apart).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import stamp_report

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_cache.json"

#: Units per campaign (two campaigns per run; kept small — the point
#: is the cold-path fraction, not the load).
UNITS = 3

#: The hard floor the tentpole promises for the warm re-run.
MIN_WARM_SPEEDUP = 3.0

#: Runs both campaigns inside one interpreter and reports timing,
#: medians (exact bits), and the obs counters (``cache.*`` included).
#: The transfer campaign uses the full-resolution nominal model — the
#: expensive artifact the cache is for — and the per-unit campaign
#: runs at a different seed so its units are distinct artifacts.
_CHILD = """\
import json, sys, time
from repro.experiments.montecarlo import (
    calibration_transfer_campaign,
    per_unit_calibration_campaign,
)
from repro.experiments.parallel import CampaignExecutor
from repro.obs import observed

units = int(sys.argv[1])
executor = CampaignExecutor(workers=1)
with observed() as registry:
    start = time.perf_counter()
    transfer = calibration_transfer_campaign(
        units=units, fast=False, executor=executor)
    per_unit = per_unit_calibration_campaign(
        units=units, seed=212, executor=executor)
    seconds = time.perf_counter() - start
    counters = registry.snapshot()["counters"]
medians = [value.hex() for value in (
    *transfer.force_medians, *transfer.location_medians,
    *per_unit.force_medians, *per_unit.location_medians)]
print(json.dumps({"seconds": seconds, "medians": medians,
                  "counters": counters}))
"""

_report: dict = {"units": UNITS, "min_warm_speedup": MIN_WARM_SPEEDUP}


def _run_child(cache_dir: Path, enabled: bool = True) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_CACHE="1" if enabled else "0",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(UNITS)],
        capture_output=True, text=True, env=env, timeout=1200)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the machine-readable summary after the module finishes."""
    yield
    stamp_report(_report, config={"units": UNITS,
                                  "min_warm_speedup": MIN_WARM_SPEEDUP})
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(_report, indent=2, sort_keys=True)
                          + "\n")


def test_warm_campaign_speedup_and_bit_identity(tmp_path_factory):
    """Warm >= 3x cold, zero warm misses, identical medians all ways."""
    cache_dir = tmp_path_factory.mktemp("bench-cache")
    wall = time.perf_counter()
    cold = _run_child(cache_dir)
    warm = _run_child(cache_dir)
    uncached = _run_child(cache_dir, enabled=False)
    wall = time.perf_counter() - wall

    # Bit-identity: the medians' float bits match across a cold write,
    # a warm disk read, and the kill-switch recompute.
    assert cold["medians"] == warm["medians"]
    assert cold["medians"] == uncached["medians"]

    # The cold run populated the store; the warm run never missed (a
    # counter that never incremented is absent from the snapshot).
    cold_counts, warm_counts = cold["counters"], warm["counters"]
    assert cold_counts["cache.misses"] > 0
    assert cold_counts["cache.writes"] == cold_counts["cache.misses"]
    assert "cache.misses" not in warm_counts
    assert warm_counts["cache.disk_hits"] > 0
    assert warm_counts["cache.hits"] == warm_counts["cache.requests"]
    # The kill switch really bypassed the cache.
    assert "cache.requests" not in uncached["counters"]

    speedup = cold["seconds"] / warm["seconds"]
    _report.update({
        "cold_seconds": cold["seconds"],
        "warm_seconds": warm["seconds"],
        "uncached_seconds": uncached["seconds"],
        "warm_speedup": speedup,
        "bench_wall_seconds": wall,
        "medians_hex": cold["medians"],
        "cold_counters": cold["counters"],
        "warm_counters": warm["counters"],
    })
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm campaign is only {speedup:.2f}x faster than cold; the "
        f"artifact cache should deliver >= {MIN_WARM_SPEEDUP:.0f}x"
    )


def test_perf_campaign_cold(benchmark, tmp_path_factory):
    """pytest-benchmark: campaign pair against an empty cache."""
    benchmark.pedantic(
        lambda: _run_child(tmp_path_factory.mktemp("bench-cold")),
        rounds=1, iterations=1)


def test_perf_campaign_warm(benchmark, tmp_path_factory):
    """pytest-benchmark: the same pair against a populated cache."""
    cache_dir = tmp_path_factory.mktemp("bench-warm")
    _run_child(cache_dir)
    benchmark.pedantic(lambda: _run_child(cache_dir),
                       rounds=1, iterations=1)
