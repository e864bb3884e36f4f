"""Phase-group harmonic extraction tests (paper Eqns. 1-3)."""

import numpy as np
import pytest

from repro.core.harmonics import (
    HarmonicExtractor,
    integer_period_group_length,
)
from repro.errors import ConfigurationError, ReaderError
from repro.reader.sounder import ChannelEstimateStream

T = 57.6e-6


def synthetic_stream(frames=1250, subcarriers=8, tone=1e3, amplitude=1e-5,
                     phase=0.7, clutter=1e-2, noise=0.0, rng=None):
    """Stream with DC clutter plus one complex tone of known phase."""
    times = np.arange(frames) * T
    carrier = amplitude * np.exp(1j * (2 * np.pi * tone * times + phase))
    estimates = np.full((frames, subcarriers), clutter, dtype=complex)
    estimates += carrier[:, None]
    if noise > 0.0:
        rng = rng or np.random.default_rng(0)
        estimates += noise * (rng.normal(size=estimates.shape)
                              + 1j * rng.normal(size=estimates.shape))
    return ChannelEstimateStream(
        estimates=estimates,
        times=times,
        frequencies=900e6 + np.arange(subcarriers) * 195e3,
        frame_period=T,
    )


class TestIntegerPeriodGroupLength:
    def test_paper_parameters_give_625(self):
        """57.6 us frames and a 1 kHz clock: N = 625 (36 ms groups)."""
        assert integer_period_group_length(T, 1e3) == 625

    def test_exact_divisor_case(self):
        assert integer_period_group_length(1e-3, 1e3) == 1

    def test_tone_completes_integer_cycles(self):
        n = integer_period_group_length(T, 1e3)
        cycles = 1e3 * n * T
        assert cycles == pytest.approx(round(cycles), abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            integer_period_group_length(0.0, 1e3)


class TestHarmonicExtractor:
    def test_recovers_tone_phase(self):
        stream = synthetic_stream(phase=0.7)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        matrix = extractor.extract(stream)[1e3]
        assert matrix.groups == 2
        # The DFT measures the tone phase at the group start.
        measured = np.angle(matrix.values[0, 0])
        assert measured == pytest.approx(0.7, abs=1e-6)

    def test_recovers_tone_amplitude(self):
        stream = synthetic_stream(amplitude=3e-5)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        matrix = extractor.extract(stream)[1e3]
        assert np.abs(matrix.values[0, 0]) == pytest.approx(3e-5, rel=1e-6)

    def test_dc_clutter_rejected(self):
        """60+ dB of static clutter must not leak into the tone bin."""
        stream = synthetic_stream(amplitude=1e-6, clutter=1.0)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        matrix = extractor.extract(stream)[1e3]
        assert np.abs(matrix.values[0, 0]) == pytest.approx(1e-6, rel=1e-3)

    def test_off_tone_returns_nothing(self):
        stream = synthetic_stream(tone=1e3, amplitude=1e-5, clutter=0.0)
        extractor = HarmonicExtractor(tones=(4e3,), group_length=625)
        matrix = extractor.extract(stream)[4e3]
        assert np.abs(matrix.values[0, 0]) < 1e-9

    def test_multiple_tones_extracted_independently(self):
        times = np.arange(1250) * T
        estimates = (1e-5 * np.exp(1j * 2 * np.pi * 1e3 * times)
                     + 2e-5 * np.exp(1j * 2 * np.pi * 4e3 * times))[:, None]
        stream = ChannelEstimateStream(
            estimates=np.repeat(estimates, 4, axis=1),
            times=times,
            frequencies=900e6 + np.arange(4) * 195e3,
            frame_period=T,
        )
        extractor = HarmonicExtractor(tones=(1e3, 4e3), group_length=625)
        result = extractor.extract(stream)
        assert np.abs(result[1e3].values[0, 0]) == pytest.approx(1e-5,
                                                                 rel=1e-6)
        assert np.abs(result[4e3].values[0, 0]) == pytest.approx(2e-5,
                                                                 rel=1e-6)

    def test_partial_trailing_group_dropped(self):
        stream = synthetic_stream(frames=1500)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        matrix = extractor.extract(stream)[1e3]
        assert matrix.groups == 2

    def test_group_times_increase(self):
        stream = synthetic_stream(frames=1875)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        matrix = extractor.extract(stream)[1e3]
        assert np.all(np.diff(matrix.group_times) > 0)

    def test_nyquist_guard(self):
        stream = synthetic_stream()
        extractor = HarmonicExtractor(tones=(20e3,), group_length=625)
        with pytest.raises(ReaderError):
            extractor.extract(stream)

    def test_too_short_stream_rejected(self):
        stream = synthetic_stream(frames=100)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        with pytest.raises(ReaderError):
            extractor.extract(stream)

    def test_rejects_empty_tones(self):
        with pytest.raises(ConfigurationError):
            HarmonicExtractor(tones=(), group_length=625)


class TestDopplerSpectrum:
    def test_tone_appears_at_right_bin(self):
        stream = synthetic_stream(amplitude=1e-4, clutter=1e-3)
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        frequencies, magnitude = extractor.doppler_spectrum(stream)
        peak_bin = int(np.argmin(np.abs(frequencies - 1e3)))
        neighbours = magnitude[[peak_bin - 3, peak_bin + 3]]
        assert magnitude[peak_bin] > 10.0 * neighbours.max()

    def test_rejects_bad_group_index(self):
        stream = synthetic_stream()
        extractor = HarmonicExtractor(tones=(1e3,), group_length=625)
        with pytest.raises(ReaderError):
            extractor.doppler_spectrum(stream, group_index=5)
