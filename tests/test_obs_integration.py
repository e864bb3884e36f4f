"""End-to-end observability: subsystems record into one registry.

These tests drive the real reader, estimator, tracker, and campaign
executor under :func:`repro.obs.observed` and assert the documented
instrument names show up with sane values — the contract the
``repro obs-report`` CLI and the benchmark manifests rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.experiments.montecarlo import environment_campaign
from repro.experiments.parallel import CampaignExecutor
from repro.experiments.scenarios import build_wireless_scenario
from repro.obs import is_enabled, observed
from repro.sensor.tag import TagState


@pytest.fixture(scope="module")
def wireless_reader():
    return build_wireless_scenario(900e6, seed=55, fast=True)


def test_instrumentation_off_by_default(model_900):
    """No observation leaks into normal test runs."""
    assert not is_enabled()
    estimator = ForceLocationEstimator(model_900)
    estimate = estimator.invert(0.01, -0.02)
    assert not estimate.touched  # the plain path still works


def test_reader_records_captures_and_baseline(wireless_reader):
    with observed() as registry:
        wireless_reader.capture_baseline()
        reading = wireless_reader.read(TagState(3.0, 0.040))
    assert reading.estimate.touched
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["reader.baselines"] == 1
    assert counters["reader.reads"] == 1
    # Baseline groups + the read's capture all flow through one path.
    assert counters["reader.captures"] >= 2
    assert counters["reader.frames"] > 0
    histograms = snapshot["histograms"]
    assert histograms["reader.baseline_phase_noise_rad"]["count"] > 0
    assert histograms["span.reader.read.seconds"]["count"] == 1
    assert histograms["span.reader.capture_baseline.seconds"]["count"] == 1
    assert histograms["span.reader.measure_phases.seconds"]["count"] == 1


def test_estimator_records_inversions(model_900):
    estimator = ForceLocationEstimator(model_900)
    rng = np.random.default_rng(7)
    forces = rng.uniform(1.0, 6.0, 16)
    locations = rng.uniform(0.02, 0.06, 16)
    phi1, phi2 = model_900.predict_batch(forces, locations)
    with observed() as registry:
        estimator.invert(float(phi1[0]), float(phi2[0]))
        estimator.invert(0.001, -0.001)  # below touch threshold
        batch = estimator.invert_batch(phi1, phi2)
    assert batch.force.shape == (16,)
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["estimator.inversions"] == 2
    assert counters["estimator.no_touch"] == 1
    assert counters["estimator.batch_inversions"] == 1
    assert counters["estimator.batched_samples"] == 16
    histograms = snapshot["histograms"]
    assert histograms["estimator.invert_seconds"]["count"] == 2
    assert histograms["estimator.batch_seconds"]["count"] == 1
    assert histograms["estimator.batch_size"]["mean"] == 16.0


def test_instrumented_inversion_matches_uninstrumented(model_900):
    """Observation must never change numerical results."""
    estimator = ForceLocationEstimator(model_900)
    phi1, phi2 = model_900.predict_batch(
        np.array([2.0, 5.0]), np.array([0.03, 0.05]))
    plain = estimator.invert_batch(phi1, phi2)
    with observed():
        watched = estimator.invert_batch(phi1, phi2)
    assert np.array_equal(plain.force, watched.force)
    assert np.array_equal(plain.location, watched.location)
    assert np.array_equal(plain.touched, watched.touched)


def test_tracker_records_stream_counters(wireless_reader):
    from repro.core.tracking import StreamingTracker

    sounder = wireless_reader.sounder
    extractor = wireless_reader.extractor
    group = extractor.group_length
    baseline = sounder.capture(TagState(), 6 * group)
    tracker = StreamingTracker(wireless_reader.model, extractor,
                               baseline_groups=4)
    with observed() as registry:
        samples = tracker.process(baseline)
    counters = registry.snapshot()["counters"]
    assert counters["tracker.streams"] == 1
    assert counters["tracker.groups"] == len(samples)
    assert counters["tracker.touched_groups"] == sum(
        1 for s in samples if s.touched)
    histograms = registry.snapshot()["histograms"]
    assert histograms["span.tracker.process.seconds"]["count"] == 1


@pytest.mark.integration
def test_campaign_records_trials_and_utilization():
    with observed() as registry:
        execution = environment_campaign(
            2, executor=CampaignExecutor(workers=2))
    assert execution is not None
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["campaign.runs"] == 1
    assert counters["campaign.trials"] == 2
    assert snapshot["histograms"]["span.campaign.trial.seconds"]["count"] \
        == 2
    assert snapshot["histograms"]["span.campaign.run.seconds"]["count"] == 1
    utilization = snapshot["gauges"]["campaign.worker_utilization"]
    assert 0.0 < utilization <= 1.0
