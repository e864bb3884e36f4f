"""Antenna, track-smoothing and interference-excision tests."""

import numpy as np
import pytest

from repro.channel.interference import (
    BurstyInterferer,
    corrupt_stream,
    excise_interference,
)
from repro.channel.propagation import BackscatterLink
from repro.core.smoothing import TrackSmoother
from repro.core.tracking import TrackedSample
from repro.errors import ChannelError, ConfigurationError
from repro.experiments.scenarios import fast_transducer
from repro.reader.sounder import FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.rf.antenna import (
    HALF_WAVE_DIPOLE,
    ISOTROPIC,
    PATCH_6DBI,
    Antenna,
    OrientedLinkBudget,
    polarization_loss_db,
)
from repro.sensor.tag import TagState, WiForceTag


class TestAntenna:
    def test_isotropic_flat(self):
        assert ISOTROPIC.gain_dbi(0.0) == ISOTROPIC.gain_dbi(1.2)

    def test_boresight_is_peak(self):
        for theta in (0.3, 0.8, 1.4, 2.5):
            assert PATCH_6DBI.gain_dbi(theta) <= PATCH_6DBI.gain_dbi(0.0)

    def test_front_to_back_floor(self):
        gain_behind = PATCH_6DBI.gain_dbi(np.pi)
        assert gain_behind == pytest.approx(
            PATCH_6DBI.boresight_gain_dbi - PATCH_6DBI.front_to_back_db)

    def test_dipole_gain(self):
        assert HALF_WAVE_DIPOLE.gain_dbi(0.0) == pytest.approx(2.15)

    def test_amplitude_matches_gain(self):
        gain = PATCH_6DBI.gain_dbi(0.5)
        assert PATCH_6DBI.amplitude(0.5) == pytest.approx(10 ** (gain / 20))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ConfigurationError):
            Antenna(pattern_exponent=-1.0)


class TestPolarization:
    def test_aligned_lossless(self):
        assert polarization_loss_db(0.0) == pytest.approx(0.0, abs=0.02)

    def test_45_degrees_is_3db(self):
        assert polarization_loss_db(np.pi / 4) == pytest.approx(3.0,
                                                                abs=0.1)

    def test_orthogonal_limited_by_isolation(self):
        loss = polarization_loss_db(np.pi / 2,
                                    cross_pol_isolation_db=25.0)
        assert loss == pytest.approx(25.0, abs=0.5)

    def test_rejects_bad_isolation(self):
        with pytest.raises(ConfigurationError):
            polarization_loss_db(0.1, cross_pol_isolation_db=0.0)


class TestOrientedBudget:
    def test_aligned_no_penalty(self):
        budget = OrientedLinkBudget()
        assert budget.two_way_penalty_db() == pytest.approx(0.0, abs=0.05)

    def test_rotation_costs(self):
        rotated = OrientedLinkBudget(tag_rotation=np.pi / 4)
        assert rotated.two_way_penalty_db() == pytest.approx(6.0, abs=0.3)

    def test_tilt_costs(self):
        tilted = OrientedLinkBudget(tag_tilt=1.0)
        assert tilted.two_way_penalty_db() > 1.0

    def test_penalty_feeds_link_budget(self):
        """The orientation penalty plugs into the existing machinery."""
        penalty = OrientedLinkBudget(
            tag_rotation=np.pi / 4).two_way_penalty_db()
        aligned = BackscatterLink()
        rotated = BackscatterLink(tag_blockage_db=penalty / 2.0)
        ratio = (np.abs(aligned.tag_path_gain(900e6))
                 / np.abs(rotated.tag_path_gain(900e6)))
        assert 20.0 * np.log10(ratio) == pytest.approx(penalty, abs=0.1)


def make_track(forces, noise, rng, location=0.04):
    samples = []
    for index, force in enumerate(forces):
        touched = force > 0
        samples.append(TrackedSample(
            time=index * 0.036,
            phi1=0.0, phi2=0.0, touched=touched,
            force=max(0.0, force + rng.normal(0, noise)) if touched else 0.0,
            location=location if touched else 0.0))
    return samples


class TestTrackSmoother:
    def test_reduces_jitter(self, rng):
        truth = [0.0] * 3 + [4.0] * 40
        raw = make_track(truth, noise=0.4, rng=rng)
        smoothed = TrackSmoother().smooth(raw)
        raw_jitter = np.std(np.diff([s.force for s in raw if s.touched]))
        smooth_jitter = np.std(np.diff([s.force for s in smoothed
                                        if s.touched]))
        assert smooth_jitter < 0.6 * raw_jitter

    def test_tracks_ramps(self, rng):
        truth = [0.0] * 3 + list(np.linspace(1.0, 6.0, 30))
        raw = make_track(truth, noise=0.2, rng=rng)
        smoothed = TrackSmoother().smooth(raw)
        final = smoothed[-1]
        assert final.force == pytest.approx(6.0, abs=0.6)
        assert final.force_rate > 0.0

    def test_untouched_resets(self, rng):
        truth = [0.0] * 3 + [4.0] * 10 + [0.0] * 3 + [2.0] * 10
        raw = make_track(truth, noise=0.1, rng=rng)
        smoothed = TrackSmoother().smooth(raw)
        assert not smoothed[14].touched
        # The second touch converges to 2 N, not dragged from 4 N.
        assert smoothed[-1].force == pytest.approx(2.0, abs=0.4)

    def test_never_negative(self, rng):
        truth = [0.0] * 3 + [0.3] * 20
        raw = make_track(truth, noise=0.5, rng=rng)
        smoothed = TrackSmoother().smooth(raw)
        assert all(s.force >= 0.0 for s in smoothed)

    def test_empty_track(self):
        assert TrackSmoother().smooth([]) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TrackSmoother(force_process_noise=0.0)
        with pytest.raises(ConfigurationError):
            TrackSmoother(location_smoothing=0.0)


@pytest.fixture(scope="module")
def quiet_stream():
    config = OFDMSounderConfig(carrier_frequency=900e6)
    tag = WiForceTag(fast_transducer())
    sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                rng=np.random.default_rng(8))
    return sounder.capture(TagState(), 625)


class TestInterference:
    def test_hit_mask_duty(self, rng):
        interferer = BurstyInterferer(duty=0.1, burst_frames=4.0)
        mask = interferer.hit_mask(200_000, rng)
        assert mask.mean() == pytest.approx(0.1, abs=0.03)

    def test_zero_duty_no_hits(self, rng):
        interferer = BurstyInterferer(duty=0.0)
        assert not interferer.hit_mask(1000, rng).any()

    def test_hits_are_bursty(self, rng):
        interferer = BurstyInterferer(duty=0.1, burst_frames=5.0)
        mask = interferer.hit_mask(50_000, rng)
        transitions = np.count_nonzero(np.diff(mask.astype(int)))
        hits = mask.sum()
        # Far fewer on/off transitions than hits = contiguous bursts.
        assert transitions < 0.8 * hits

    def test_corrupt_stream_changes_hit_frames_only(self, quiet_stream,
                                                    rng):
        interferer = BurstyInterferer(duty=0.05)
        corrupted, mask = corrupt_stream(quiet_stream, interferer, rng)
        unchanged = ~mask
        np.testing.assert_array_equal(
            corrupted.estimates[unchanged],
            quiet_stream.estimates[unchanged])
        if mask.any():
            assert not np.allclose(corrupted.estimates[mask],
                                   quiet_stream.estimates[mask])

    def test_excision_finds_hits(self, quiet_stream, rng):
        interferer = BurstyInterferer(duty=0.05,
                                      interference_to_signal_db=0.0)
        corrupted, mask = corrupt_stream(quiet_stream, interferer, rng)
        _, flagged = excise_interference(corrupted)
        hits = np.flatnonzero(mask)
        found = np.flatnonzero(flagged)
        recall = np.isin(hits, found).mean() if hits.size else 1.0
        assert recall > 0.9

    def test_excision_restores_estimates(self, quiet_stream, rng):
        interferer = BurstyInterferer(duty=0.05,
                                      interference_to_signal_db=0.0)
        corrupted, mask = corrupt_stream(quiet_stream, interferer, rng)
        cleaned, _ = excise_interference(corrupted)
        error_before = np.abs(corrupted.estimates
                              - quiet_stream.estimates).sum()
        error_after = np.abs(cleaned.estimates
                             - quiet_stream.estimates).sum()
        assert error_after < 0.2 * error_before

    def test_clean_stream_untouched(self, quiet_stream):
        cleaned, flagged = excise_interference(quiet_stream)
        assert flagged.mean() < 0.02

    def test_rejects_bad_duty(self):
        with pytest.raises(ChannelError):
            BurstyInterferer(duty=1.0)

    def test_rejects_bad_threshold(self, quiet_stream):
        with pytest.raises(ChannelError):
            excise_interference(quiet_stream, threshold_factor=0.0)

    def test_rejects_bad_percentile(self, quiet_stream):
        with pytest.raises(ChannelError):
            excise_interference(quiet_stream, reference_percentile=10.0)
