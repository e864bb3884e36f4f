"""Phase groups and the snapshot-axis harmonic DFT (paper Eqns. 1-3).

The channel-estimate stream H[k, n] contains static multipath (DC along
the snapshot axis) plus the tag's duty-cycled modulation at the readout
tones fs and 4 fs.  Dividing the stream into groups of N snapshots and
taking the DFT across each group at the readout tones isolates the tag:

    P_i[k, g] = sum_{n in group g} H[k, n] w_n exp(-j 2 pi f_i t_n)

Static clutter is 60+ dB above the backscatter, so spectral leakage
from the DC bin matters.  The group length is chosen so every readout
tone spans an integer number of cycles (rectangular-window nulls land
exactly on DC leakage, see :func:`integer_period_group_length`), and
each group's per-subcarrier mean is removed before the DFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReaderError
from repro.reader.sounder import ChannelEstimateStream


def integer_period_group_length(frame_period: float, base_frequency: float,
                                max_length: int = 100_000) -> int:
    """Smallest N with ``base_frequency * N * frame_period`` integer.

    With the paper's numbers (T = 57.6 us, fs = 1 kHz) this returns
    N = 625 (36 ms per group): every readout tone then completes an
    integer number of cycles per group and the rectangular-window DFT
    nulls the DC clutter exactly.

    Raises:
        ConfigurationError: No such N up to ``max_length`` (irrational
            ratio).
    """
    if frame_period <= 0.0 or base_frequency <= 0.0:
        raise ConfigurationError("frame period and frequency must be positive")
    cycles_per_frame = Fraction(base_frequency * frame_period).limit_denominator(
        max_length)
    error = abs(float(cycles_per_frame) - base_frequency * frame_period)
    if error > 1e-12:
        raise ConfigurationError(
            "no integer-period group length found; the tone/frame ratio "
            "is effectively irrational"
        )
    length = cycles_per_frame.denominator
    if length > max_length:
        raise ConfigurationError(
            f"integer-period group length {length} exceeds limit {max_length}"
        )
    return length


@dataclass(frozen=True)
class HarmonicMatrix:
    """P_i[k, g] for one readout tone.

    Attributes:
        tone: Readout tone [Hz].
        values: Complex harmonic amplitudes, shape (groups, subcarriers).
        group_times: Mid-group timestamps [s], shape (groups,).
    """

    tone: float
    values: np.ndarray
    group_times: np.ndarray

    @property
    def groups(self) -> int:
        """Number of phase groups."""
        return self.values.shape[0]

    def magnitude_db(self) -> np.ndarray:
        """Mean tone magnitude per group [dB]."""
        return 20.0 * np.log10(
            np.maximum(np.abs(self.values).mean(axis=1), 1e-300))


class HarmonicExtractor:
    """Splits a channel-estimate stream into phase groups and extracts
    the readout-tone amplitudes.

    Each group's per-subcarrier mean is subtracted and the group is
    projected on the readout tones with a rectangular window, which
    nulls the DC clutter exactly when every tone completes an integer
    number of cycles per group.

    Args:
        tones: Readout tones [Hz] (fs and 4 fs for the default scheme).
        group_length: Snapshots N per phase group.
    """

    def __init__(self, tones: Sequence[float], group_length: int):
        if not tones:
            raise ConfigurationError("need at least one readout tone")
        if any(tone <= 0.0 for tone in tones):
            raise ConfigurationError("readout tones must be positive")
        if group_length < 4:
            raise ConfigurationError(
                f"group length must be >= 4, got {group_length}"
            )
        self.tones = tuple(float(tone) for tone in tones)
        self.group_length = int(group_length)

    def check_stream(self, stream: ChannelEstimateStream) -> int:
        """Validate Nyquist and length; return the usable group count."""
        nyquist = 0.5 / stream.frame_period
        for tone in self.tones:
            if tone > nyquist:
                raise ReaderError(
                    f"readout tone {tone} Hz exceeds the stream's Nyquist "
                    f"limit {nyquist:.1f} Hz; slow the switch clocks or "
                    f"shorten the frame"
                )
        groups = stream.frames // self.group_length
        if groups < 1:
            raise ReaderError(
                f"stream too short: {stream.frames} frames < one group of "
                f"{self.group_length}"
            )
        return groups

    def extract(self, stream: ChannelEstimateStream
                ) -> Dict[float, HarmonicMatrix]:
        """Compute P_i[k, g] for every configured tone."""
        groups = self.check_stream(stream)
        n = self.group_length
        usable = groups * n
        estimates = stream.estimates[:usable].reshape(
            groups, n, stream.frequencies.size)
        times = stream.times[:usable].reshape(groups, n)
        estimates = estimates - estimates.mean(axis=1, keepdims=True)
        group_times = times.mean(axis=1)
        result: Dict[float, HarmonicMatrix] = {}
        for tone in self.tones:
            # Rectangular window, normalized to unit sum.
            basis = np.exp(-2j * np.pi * tone * times) * (1.0 / n)
            values = np.einsum("gn,gnk->gk", basis, estimates)
            result[tone] = HarmonicMatrix(tone=tone, values=values,
                                          group_times=group_times)
        return result

    def doppler_spectrum(self, stream: ChannelEstimateStream,
                         group_index: int = 0
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Full snapshot-axis FFT of one phase group (diagnostics).

        Returns (doppler frequencies [Hz], mean magnitude across
        subcarriers) — the "artificial Doppler" view of Fig. 9, with
        clutter at DC and the tag at its readout tones.
        """
        groups = self.check_stream(stream)
        if not 0 <= group_index < groups:
            raise ReaderError(
                f"group index {group_index} out of range [0, {groups})"
            )
        n = self.group_length
        start = group_index * n
        block = stream.estimates[start:start + n]
        spectrum = np.fft.fft(block * (1.0 / n), axis=0)
        frequencies = np.fft.fftfreq(n, d=stream.frame_period)
        order = np.argsort(frequencies)
        magnitude = np.abs(spectrum[order]).mean(axis=1)
        return frequencies[order], magnitude
