"""UWB sounder, viscoelastic creep and gesture-layer tests."""

import numpy as np
import pytest

from repro.channel.propagation import BackscatterLink
from repro.core.calibration import harmonic_differential_phases
from repro.core.harmonics import HarmonicExtractor, integer_period_group_length
from repro.core.phase import differential_phase
from repro.core.tracking import TrackedSample
from repro.errors import ConfigurationError
from repro.experiments.scenarios import fast_transducer
from repro.hci.gestures import GestureClassifier, GestureKind
from repro.sensor.viscoelastic import CreepingTransducer, StandardLinearSolid
from repro.reader.uwb import UWBSounder, UWBSounderConfig
from repro.sensor.tag import TagState, WiForceTag


class TestUWBConfig:
    def test_estimate_period(self):
        config = UWBSounderConfig(pulse_repetition_interval=1e-6,
                                  pulses_per_estimate=57)
        assert config.estimate_period == pytest.approx(57e-6)

    def test_bin_frequencies_span_band(self):
        config = UWBSounderConfig(carrier_frequency=4e9, bandwidth=500e6,
                                  bins=256)
        bins = config.bin_frequencies()
        assert bins.size == 256
        assert bins[0] == pytest.approx(4e9 - 250e6)

    def test_rejects_bandwidth_over_band(self):
        with pytest.raises(ConfigurationError):
            UWBSounderConfig(carrier_frequency=1e9, bandwidth=3e9)


class TestUWBSounder:
    @pytest.fixture(scope="class")
    def setup(self):
        tag = WiForceTag(fast_transducer())
        config = UWBSounderConfig()
        sounder = UWBSounder(config, tag, BackscatterLink(),
                             rng=np.random.default_rng(6))
        return tag, config, sounder

    def test_capture_shape(self, setup):
        _, config, sounder = setup
        stream = sounder.capture(TagState(), 50)
        assert stream.estimates.shape == (50, config.bins)

    def test_differential_phase_recovered(self, setup):
        """The waveform-agnostic claim extends to impulse UWB."""
        tag, config, sounder = setup
        group = integer_period_group_length(config.estimate_period, 1e3)
        tones = (tag.clocking.readout_port1, tag.clocking.readout_port2)
        extractor = HarmonicExtractor(tones=tones, group_length=group)
        base = sounder.capture(TagState(), 2 * group)
        touch = sounder.capture(TagState(4.0, 0.040), 2 * group,
                                start_time=base.duration)
        b = extractor.extract(base)
        t = extractor.extract(touch)
        phi1 = differential_phase(b[tones[0]].values.mean(axis=0),
                                  t[tones[0]].values.mean(axis=0))
        expected = harmonic_differential_phases(
            tag, config.carrier_frequency, 4.0, 0.040)[0]
        assert phi1 == pytest.approx(expected, abs=np.radians(6.0))

    def test_rejects_zero_estimates(self, setup):
        _, _, sounder = setup
        with pytest.raises(ConfigurationError):
            sounder.capture(TagState(), 0)


class TestStandardLinearSolid:
    def test_instantaneous_at_zero(self):
        sls = StandardLinearSolid()
        assert sls.modulus(0.0) == pytest.approx(
            sls.instantaneous_modulus)

    def test_relaxes_to_equilibrium(self):
        sls = StandardLinearSolid()
        assert sls.modulus(100.0) == pytest.approx(
            sls.equilibrium_modulus, rel=1e-6)

    def test_monotone_relaxation(self):
        sls = StandardLinearSolid()
        times = np.linspace(0.0, 2.0, 20)
        moduli = [sls.modulus(float(t)) for t in times]
        assert all(b <= a for a, b in zip(moduli, moduli[1:]))

    def test_settling_time_formula(self):
        sls = StandardLinearSolid(relaxation_time=0.35)
        assert sls.settling_time(0.05) == pytest.approx(
            -0.35 * np.log(0.05))

    def test_settling_in_paper_band(self):
        """Relaxation settles on the paper's 0.5-1 s timescale."""
        assert 0.3 < StandardLinearSolid().settling_time() < 2.0

    def test_rejects_inverted_moduli(self):
        with pytest.raises(ConfigurationError):
            StandardLinearSolid(instantaneous_modulus=50e3,
                                equilibrium_modulus=100e3)


@pytest.mark.integration
class TestCreepingTransducer:
    @pytest.fixture(scope="class")
    def creeping(self):
        return CreepingTransducer(relaxation_levels=2,
                                  force_points=10, location_points=9)

    def test_phase_creeps_then_settles(self, creeping):
        trace = creeping.creep_trace(900e6, 4.0, 0.040,
                                     np.array([0.0, 0.2, 0.5, 1.0, 3.0]))
        # The phase moves early and converges late.
        early = abs(trace[1] - trace[0])
        late = abs(trace[-1] - trace[-2])
        assert late < early or early == 0.0
        assert trace[-1] == pytest.approx(trace[-2], abs=np.radians(0.5))

    def test_rejects_single_level(self):
        with pytest.raises(ConfigurationError):
            CreepingTransducer(relaxation_levels=1)


def track(points):
    """points: list of (time, force, location); force 0 = untouched."""
    return [TrackedSample(time=t, phi1=0.0, phi2=0.0, touched=f > 0,
                          force=f, location=x)
            for t, f, x in points]


class TestGestureClassifier:
    def test_tap(self):
        samples = track([(0.0, 0, 0), (0.04, 3.0, 0.04),
                         (0.08, 3.0, 0.04), (0.12, 0, 0)])
        gestures = GestureClassifier().classify(samples)
        assert [g.kind for g in gestures] == [GestureKind.TAP]

    def test_hold(self):
        points = [(0.0, 0, 0)] + [
            (0.04 * i, 3.0, 0.04) for i in range(1, 15)] + [(0.7, 0, 0)]
        gestures = GestureClassifier().classify(track(points))
        assert [g.kind for g in gestures] == [GestureKind.HOLD]
        assert gestures[0].mean_force == pytest.approx(3.0)

    def test_press_ramp(self):
        points = [(0.0, 0, 0)] + [
            (0.04 * i, 0.5 * i, 0.04) for i in range(1, 15)]
        gestures = GestureClassifier().classify(track(points))
        assert [g.kind for g in gestures] == [GestureKind.PRESS_RAMP]

    def test_slide(self):
        points = [(0.0, 0, 0)] + [
            (0.04 * i, 3.0, 0.02 + 0.003 * i) for i in range(1, 15)]
        gestures = GestureClassifier().classify(track(points))
        assert [g.kind for g in gestures] == [GestureKind.SLIDE]
        assert gestures[0].travel > 0

    def test_multiple_gestures_segmented(self):
        points = ([(0.0, 0, 0), (0.04, 3.0, 0.04), (0.08, 3.0, 0.04),
                   (0.12, 0, 0), (0.16, 0, 0)]
                  + [(0.2 + 0.04 * i, 2.0, 0.03 + 0.004 * i)
                     for i in range(10)])
        gestures = GestureClassifier().classify(track(points))
        assert len(gestures) == 2
        assert gestures[0].kind == GestureKind.TAP
        assert gestures[1].kind == GestureKind.SLIDE

    def test_short_blips_debounced(self):
        samples = track([(0.0, 0, 0), (0.04, 3.0, 0.04), (0.08, 0, 0)])
        assert GestureClassifier().classify(samples) == []

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            GestureClassifier(tap_max_duration=0.0)
        with pytest.raises(ConfigurationError):
            GestureClassifier(min_samples=1)


@pytest.mark.integration
class TestSlideEndToEnd:
    def test_slide_tracked_through_the_stack(self):
        """A finger sliding along the strip is tracked and classified
        — the location-continuum claim in motion."""
        from repro.core.tracking import StreamingTracker
        from repro.experiments.scenarios import calibrated_model
        from repro.reader.sounder import FrameLevelSounder, concatenate_streams
        from repro.reader.waveform import OFDMSounderConfig

        rng = np.random.default_rng(91)
        config = OFDMSounderConfig(carrier_frequency=900e6)
        tag = WiForceTag(fast_transducer(), clock_offset_ppm=20.0)
        sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                    rng=rng)
        group = integer_period_group_length(config.frame_period, 1e3)
        extractor = HarmonicExtractor(
            tones=(tag.clocking.readout_port1,
                   tag.clocking.readout_port2),
            group_length=group)
        model = calibrated_model(900e6, fast=True)

        streams = []
        clock = 0.0
        segments = [(TagState(), 4)]
        for position in np.linspace(0.025, 0.055, 6):
            segments.append((TagState(3.0, float(position)), 1))
        for state, groups in segments:
            stream = sounder.capture(state, groups * group,
                                     start_time=clock)
            clock += stream.frames * config.frame_period
            streams.append(stream)
        tracker = StreamingTracker(model, extractor, baseline_groups=4)
        samples = tracker.process(concatenate_streams(*streams))
        gestures = GestureClassifier().classify(samples)
        assert len(gestures) == 1
        assert gestures[0].kind == GestureKind.SLIDE
        assert gestures[0].travel == pytest.approx(0.03, abs=5e-3)
