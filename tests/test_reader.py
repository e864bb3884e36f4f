"""Reader substrate tests: waveform, OFDM modem, sounders, front end.

Includes the key cross-validation: the fast frame-level sounder's
noise model must match the sample-level OFDM modem.
"""

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, Path
from repro.channel.propagation import BackscatterLink
from repro.errors import ConfigurationError, DynamicRangeError, ReaderError
from repro.reader.fmcw import FMCWSounder, FMCWSounderConfig
from repro.reader.frontend import SDRFrontEnd, USRP_N210
from repro.reader.sounder import ChannelEstimateStream, FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.tag import TagState, WiForceTag
from tests.oracles.ofdm import OFDMModem, generate_preamble, preamble_tones


@pytest.fixture(scope="module")
def config():
    return OFDMSounderConfig(carrier_frequency=900e6)


class TestWaveformConfig:
    def test_paper_frame_period(self, config):
        """320 + 400 samples at 12.5 MHz = 57.6 us (paper's ~60 us)."""
        assert config.frame_period == pytest.approx(57.6e-6)

    def test_paper_subcarrier_spacing(self, config):
        assert config.subcarrier_spacing == pytest.approx(195.3125e3)

    def test_preamble_length(self, config):
        assert config.preamble_samples == 320
        assert config.frame_samples == 720

    def test_subcarrier_frequencies_span_band(self, config):
        tones = config.subcarrier_frequencies()
        assert tones.size == 64
        assert tones[0] == pytest.approx(900e6 - 32 * 195.3125e3)
        assert np.all(np.diff(tones) > 0)

    def test_frame_times(self, config):
        times = config.frame_times(3)
        np.testing.assert_allclose(np.diff(times), config.frame_period)

    def test_tx_amplitude(self, config):
        assert config.tx_amplitude == pytest.approx(np.sqrt(10e-3), rel=1e-6)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            OFDMSounderConfig(subcarriers=60)

    def test_rejects_bandwidth_above_carrier(self):
        with pytest.raises(ConfigurationError):
            OFDMSounderConfig(carrier_frequency=1e6, bandwidth=12.5e6)

    def test_preamble_power(self, config):
        preamble = generate_preamble(config)
        power = np.mean(np.abs(preamble) ** 2)
        assert power == pytest.approx(config.tx_amplitude ** 2, rel=1e-9)

    def test_preamble_deterministic(self, config):
        np.testing.assert_array_equal(generate_preamble(config),
                                      generate_preamble(config))

    def test_preamble_tones_unit_magnitude(self, config):
        tones = preamble_tones(config)
        np.testing.assert_allclose(np.abs(tones), 1.0)


class TestOFDMModem:
    def test_noiseless_recovery_exact(self, config, rng):
        modem_quiet = OFDMModem(config, noise_figure_db=-300.0, rng=rng)
        channel = np.exp(1j * np.linspace(0.0, 2.0, config.subcarriers))
        estimate = modem_quiet.sound_once(channel)
        np.testing.assert_allclose(estimate, channel, atol=1e-6)

    def test_noisy_recovery_close(self, config, rng):
        modem = OFDMModem(config, rng=rng)
        channel = 1e-2 * np.exp(1j * np.linspace(0.0, 2.0,
                                                 config.subcarriers))
        estimate = modem.sound_once(channel)
        np.testing.assert_allclose(estimate, channel, atol=1e-4)

    def test_noise_matches_analytic_prediction(self, config, rng):
        """Cross-validation: Monte-Carlo modem noise == analytic std."""
        modem = OFDMModem(config, rng=rng)
        channel = np.zeros(config.subcarriers, dtype=complex)
        residuals = np.concatenate([
            modem.sound_once(channel) for _ in range(50)])
        measured = np.sqrt(np.mean(np.abs(residuals) ** 2))
        assert measured == pytest.approx(modem.estimate_noise_std(), rel=0.1)

    def test_frame_sounder_noise_matches_modem(self, config, rng,
                                               transducer):
        """The frame-level sounder must inject the same noise level the
        sample-level modem would produce."""
        modem = OFDMModem(config, rng=rng)
        tag = WiForceTag(transducer)
        link = BackscatterLink()
        sounder = FrameLevelSounder(config, tag, link, rng=rng)
        assert sounder.thermal_noise_std() == pytest.approx(
            modem.estimate_noise_std(), rel=1e-6)

    def test_rejects_wrong_channel_shape(self, config, rng):
        modem = OFDMModem(config, rng=rng)
        with pytest.raises(ReaderError):
            modem.received_preamble(np.zeros(10))

    def test_rejects_wrong_received_shape(self, config, rng):
        modem = OFDMModem(config, rng=rng)
        with pytest.raises(ReaderError):
            modem.estimate_channel(np.zeros(100))


class TestFrameLevelSounder:
    @pytest.fixture()
    def sounder(self, config, transducer, rng):
        tag = WiForceTag(transducer)
        link = BackscatterLink()
        clutter = MultipathChannel([Path(2e-3, 8e-9), Path(1e-3j, 15e-9)])
        return FrameLevelSounder(config, tag, link, clutter, rng=rng)

    def test_capture_shapes(self, sounder):
        stream = sounder.capture(TagState(), 100)
        assert stream.estimates.shape == (100, 64)
        assert stream.times.shape == (100,)
        assert stream.frames == 100

    def test_start_time_offsets_capture(self, sounder):
        stream = sounder.capture(TagState(), 10, start_time=1.0)
        assert stream.times[0] == pytest.approx(1.0)

    def test_static_part_constant_when_tag_quiet(self, config, transducer):
        # With zero noise and a frozen switch state, estimates repeat.
        tag = WiForceTag(transducer)
        link = BackscatterLink()
        ideal_adc = SDRFrontEnd(dynamic_range_db=400.0)
        sounder = FrameLevelSounder(config, tag, link,
                                    front_end=ideal_adc,
                                    noise_figure_db=-300.0,
                                    tag_phase_jitter_deg_per_sqrt_s=0.0)
        stream = sounder.capture(TagState(), 5)
        # All frames within clock1's first on-window (0..250 us).
        np.testing.assert_allclose(stream.estimates[1:],
                                   stream.estimates[:-1])

    def test_tone_visible_in_capture(self, sounder, config):
        """The 1 kHz switching tone must appear in the snapshot FFT."""
        stream = sounder.capture(TagState(), 1250)
        spectrum = np.abs(np.fft.fft(
            stream.estimates - stream.estimates.mean(axis=0), axis=0))
        frequencies = np.fft.fftfreq(1250, d=config.frame_period)
        tone_bin = int(np.argmin(np.abs(frequencies - 1e3)))
        off_bin = int(np.argmin(np.abs(frequencies - 2.5e3)))
        assert (spectrum[tone_bin].mean()
                > 5.0 * spectrum[off_bin].mean())

    def test_snr_decreases_with_distance(self, config, transducer, rng):
        tag = WiForceTag(transducer)
        near = FrameLevelSounder(config, tag, BackscatterLink(), rng=rng)
        far_link = BackscatterLink(tx_to_tag=3.0, tag_to_rx=3.0,
                                   tx_to_rx=6.0)
        far = FrameLevelSounder(config, tag, far_link, rng=rng)
        assert (near.backscatter_snr_db(TagState())
                > far.backscatter_snr_db(TagState()))

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            ChannelEstimateStream(
                estimates=np.zeros((3, 4), dtype=complex),
                times=np.zeros(2),
                frequencies=np.zeros(4),
                frame_period=1e-3,
            )


class TestDynamicRange:
    def test_strong_direct_path_saturates(self, config, transducer, rng):
        """The section 5.2 effect: direct path >> backscatter means the
        quantizer buries the tag."""
        tag = WiForceTag(transducer)
        link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0,
                               tag_blockage_db=40.0)
        sounder = FrameLevelSounder(config, tag, link, rng=rng)
        with pytest.raises(DynamicRangeError):
            sounder.assert_decodable(TagState(4.0, 0.06), min_snr_db=10.0)

    def test_blocking_direct_path_restores_decodability(self, config,
                                                        transducer, rng):
        tag = WiForceTag(transducer)
        link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0,
                               tag_blockage_db=30.0,
                               direct_blockage_db=45.0)
        sounder = FrameLevelSounder(config, tag, link, rng=rng)
        sounder.assert_decodable(TagState(4.0, 0.06), min_snr_db=10.0)

    def test_quantization_floor_formula(self):
        front_end = SDRFrontEnd(dynamic_range_db=60.0)
        floor = front_end.quantization_floor_amplitude(1.0)
        assert floor == pytest.approx(1e-3)

    def test_usrp_limits(self):
        assert USRP_N210.dynamic_range_db == pytest.approx(60.0)

    def test_front_end_rejects_bad_dynamic_range(self):
        with pytest.raises(ConfigurationError):
            SDRFrontEnd(dynamic_range_db=0.0)


class TestFMCW:
    @pytest.fixture()
    def fmcw(self, transducer, rng):
        tag = WiForceTag(transducer)
        config = FMCWSounderConfig(carrier_frequency=900e6)
        return FMCWSounder(config, tag, BackscatterLink(), rng=rng)

    def test_config_step_spacing(self):
        config = FMCWSounderConfig()
        assert config.step_spacing == pytest.approx(12.5e6 / 64)

    def test_capture_shape(self, fmcw):
        stream = fmcw.capture(TagState(), 20)
        assert stream.estimates.shape == (20, 64)

    def test_tone_visible(self, fmcw):
        stream = fmcw.capture(TagState(), 1250)
        spectrum = np.abs(np.fft.fft(
            stream.estimates - stream.estimates.mean(axis=0), axis=0))
        frequencies = np.fft.fftfreq(1250, d=stream.frame_period)
        tone_bin = int(np.argmin(np.abs(frequencies - 1e3)))
        off_bin = int(np.argmin(np.abs(frequencies - 2.7e3)))
        assert spectrum[tone_bin].mean() > 5.0 * spectrum[off_bin].mean()

    def test_rejects_bad_sweeps(self, fmcw):
        with pytest.raises(ConfigurationError):
            fmcw.capture(TagState(), 0)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            FMCWSounderConfig(steps=1)
