"""Streaming tracker and frame-synchronization tests."""

import numpy as np
import pytest

from repro.channel.multipath import indoor_channel
from repro.channel.noise import awgn
from repro.channel.propagation import BackscatterLink
from repro.core.harmonics import HarmonicExtractor, integer_period_group_length
from repro.core.tracking import StreamingTracker
from repro.errors import ReaderError
from repro.experiments.scenarios import calibrated_model, fast_transducer
from repro.reader.sounder import FrameLevelSounder, concatenate_streams
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.tag import TagState, WiForceTag
from tests.oracles.ofdm import generate_preamble
from tests.oracles.sync import FrameSynchronizer, apply_cfo, correct_cfo


@pytest.fixture(scope="module")
def tracking_setup():
    rng = np.random.default_rng(31)
    config = OFDMSounderConfig(carrier_frequency=900e6)
    tag = WiForceTag(fast_transducer(), clock_offset_ppm=20.0)
    sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                indoor_channel(900e6, rng=rng), rng=rng)
    group = integer_period_group_length(config.frame_period, 1e3)
    extractor = HarmonicExtractor(
        tones=(tag.clocking.readout_port1, tag.clocking.readout_port2),
        group_length=group)
    model = calibrated_model(900e6, fast=True)
    return sounder, extractor, model, group


def record_interaction(sounder, group, segments):
    """Record a piecewise-static interaction as one stream."""
    streams = []
    clock = 0.0
    for state, groups in segments:
        stream = sounder.capture(state, groups * group, start_time=clock)
        clock += stream.frames * sounder.config.frame_period
        streams.append(stream)
    return concatenate_streams(*streams)


class TestStreamingTracker:
    def test_tracks_press_profile(self, tracking_setup):
        sounder, extractor, model, group = tracking_setup
        stream = record_interaction(sounder, group, [
            (TagState(), 4),
            (TagState(3.0, 0.040), 4),
            (TagState(6.0, 0.040), 4),
            (TagState(), 3),
        ])
        tracker = StreamingTracker(model, extractor, baseline_groups=4)
        samples = tracker.process(stream)
        assert len(samples) == 15
        # Baseline groups untouched.
        assert not any(s.touched for s in samples[:4])
        # The 3 N plateau.
        plateau1 = [s.force for s in samples[4:8] if s.touched]
        assert np.median(plateau1) == pytest.approx(3.0, abs=0.7)
        # The 6 N plateau reads higher.
        plateau2 = [s.force for s in samples[8:12] if s.touched]
        assert np.median(plateau2) > np.median(plateau1)
        # Release detected.
        assert not samples[-1].touched

    def test_location_tracked(self, tracking_setup):
        sounder, extractor, model, group = tracking_setup
        stream = record_interaction(sounder, group, [
            (TagState(), 4),
            (TagState(4.0, 0.055), 4),
        ])
        tracker = StreamingTracker(model, extractor, baseline_groups=4)
        samples = tracker.process(stream)
        touched = [s for s in samples if s.touched]
        assert touched
        locations = [s.location for s in touched]
        assert np.median(locations) == pytest.approx(0.055, abs=2e-3)

    def test_touch_events_segmentation(self, tracking_setup):
        sounder, extractor, model, group = tracking_setup
        stream = record_interaction(sounder, group, [
            (TagState(), 4),
            (TagState(4.0, 0.030), 3),
            (TagState(), 2),
            (TagState(2.0, 0.060), 3),
            (TagState(), 2),
        ])
        tracker = StreamingTracker(model, extractor, baseline_groups=4)
        events = tracker.touch_events(tracker.process(stream))
        assert len(events) == 2
        assert events[0].mean_location == pytest.approx(0.030, abs=3e-3)
        assert events[1].mean_location == pytest.approx(0.060, abs=3e-3)
        assert events[0].peak_force > events[1].peak_force

    def test_requires_enough_groups(self, tracking_setup):
        sounder, extractor, model, group = tracking_setup
        stream = sounder.capture(TagState(), 4 * group)
        tracker = StreamingTracker(model, extractor, baseline_groups=4)
        with pytest.raises(ReaderError):
            tracker.process(stream)

    def test_touch_events_empty_stream_is_empty(self):
        # Regression: segmentation must not assume at least one
        # contact segment exists.
        assert StreamingTracker.touch_events([]) == []

    def test_touch_events_all_below_threshold_is_empty(self):
        from repro.core.tracking import TrackedSample

        untouched = [
            TrackedSample(time=0.01 * g, phi1=0.001, phi2=-0.002,
                          touched=False, force=0.0, location=0.0)
            for g in range(10)
        ]
        assert StreamingTracker.touch_events(untouched) == []
        # Debounce on an untouched stream is equally empty.
        assert StreamingTracker.touch_events(untouched,
                                             min_groups=3) == []

    def test_touch_events_debounce_drops_short_blips(self):
        from repro.core.tracking import TrackedSample

        def sample(g, touched):
            return TrackedSample(time=0.01 * g, phi1=0.0, phi2=0.0,
                                 touched=touched,
                                 force=2.0 if touched else 0.0,
                                 location=0.03 if touched else 0.0)

        blip = [sample(0, False), sample(1, True), sample(2, False),
                sample(3, True), sample(4, True), sample(5, True)]
        events = StreamingTracker.touch_events(blip, min_groups=2)
        assert len(events) == 1
        assert events[0].onset == pytest.approx(0.03)

    def test_rejects_single_tone_extractor(self, tracking_setup):
        _, _, model, group = tracking_setup
        extractor = HarmonicExtractor(tones=(1e3,), group_length=group)
        with pytest.raises(ReaderError):
            StreamingTracker(model, extractor)


class TestConcatenateStreams:
    def test_rejects_non_contiguous(self, tracking_setup):
        sounder, _, _, group = tracking_setup
        a = sounder.capture(TagState(), 10, start_time=0.0)
        b = sounder.capture(TagState(), 10, start_time=1.0)
        with pytest.raises(ValueError):
            concatenate_streams(a, b)

    def test_concatenates_contiguous(self, tracking_setup):
        sounder, _, _, _ = tracking_setup
        a = sounder.capture(TagState(), 10, start_time=0.0)
        b = sounder.capture(TagState(), 10,
                            start_time=10 * sounder.config.frame_period)
        joined = concatenate_streams(a, b)
        assert joined.frames == 20
        assert np.all(np.diff(joined.times) > 0)


class TestFrameSynchronizer:
    @pytest.fixture()
    def config(self):
        return OFDMSounderConfig(carrier_frequency=900e6)

    def make_capture(self, config, offset=100, cfo=0.0, noise=0.0,
                     rng=None):
        preamble = generate_preamble(config)
        samples = np.zeros(offset + preamble.size + 200, dtype=complex)
        samples[offset:offset + preamble.size] = preamble
        if cfo != 0.0:
            samples = apply_cfo(samples, cfo, config.bandwidth)
        if noise > 0.0:
            rng = rng or np.random.default_rng(0)
            samples = samples + awgn(samples.shape,
                                     noise ** 2, rng)
        return samples

    def test_detects_offset(self, config):
        samples = self.make_capture(config, offset=137)
        result = FrameSynchronizer(config).detect(samples)
        assert abs(result.offset - 137) <= 2

    def test_metric_near_one_clean(self, config):
        samples = self.make_capture(config, offset=64)
        result = FrameSynchronizer(config).detect(samples)
        assert result.metric > 0.95

    def test_estimates_cfo(self, config):
        samples = self.make_capture(config, offset=100, cfo=5e3)
        result = FrameSynchronizer(config).detect(samples)
        assert result.cfo == pytest.approx(5e3, rel=0.02)

    def test_cfo_correction_roundtrip(self, config):
        preamble = generate_preamble(config)
        shifted = apply_cfo(preamble, 3e3, config.bandwidth)
        restored = correct_cfo(shifted, 3e3, config.bandwidth)
        np.testing.assert_allclose(restored, preamble, atol=1e-12)

    def test_detects_under_noise(self, config, rng):
        amplitude = float(np.abs(generate_preamble(config)).mean())
        samples = self.make_capture(config, offset=150,
                                    noise=0.1 * amplitude, rng=rng)
        result = FrameSynchronizer(config).detect(samples)
        assert abs(result.offset - 150) <= 3

    def test_raises_without_preamble(self, config, rng):
        noise_only = awgn(2000, 1e-6, rng)
        with pytest.raises(ReaderError):
            FrameSynchronizer(config).detect(noise_only)

    def test_max_cfo(self, config):
        sync = FrameSynchronizer(config)
        assert sync.max_cfo == pytest.approx(12.5e6 / 128)

    def test_rejects_short_capture(self, config):
        with pytest.raises(ReaderError):
            FrameSynchronizer(config).correlation_metric(np.zeros(10))
