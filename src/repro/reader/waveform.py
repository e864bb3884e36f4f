"""OFDM sounding waveform (paper section 4.4).

The prototype sounds the channel with a 64-subcarrier, 12.5 MHz OFDM
preamble of 320 samples (five repeats of one 64-sample symbol) padded
with 400 zeros, giving a fresh channel estimate every
``720 / 12.5 MHz = 57.6 us`` (the paper rounds to 60 us).  The padding
also bounds the Nyquist limit on observable switching harmonics to
``1 / (2 T) ~ 8.7 kHz``, comfortably above the 1 / 4 kHz readout tones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OFDMSounderConfig:
    """Static description of the channel-sounding OFDM waveform.

    Attributes:
        carrier_frequency: RF centre frequency [Hz] (900 MHz / 2.4 GHz).
        bandwidth: Baseband sample rate = sounded bandwidth [Hz].
        subcarriers: FFT size / number of sounded tones.
        symbol_repeats: Preamble repeats of the base symbol.
        zero_padding: Silent samples after the preamble.
        tx_power_dbm: Transmit power [dBm].
    """

    carrier_frequency: float = 900e6
    bandwidth: float = 12.5e6
    subcarriers: int = 64
    symbol_repeats: int = 5
    zero_padding: int = 400
    tx_power_dbm: float = 10.0

    def __post_init__(self) -> None:
        if self.carrier_frequency <= 0.0 or self.bandwidth <= 0.0:
            raise ConfigurationError(
                "carrier frequency and bandwidth must be positive"
            )
        if self.subcarriers < 2 or (self.subcarriers & (self.subcarriers - 1)):
            raise ConfigurationError(
                f"subcarriers must be a power of two >= 2, got "
                f"{self.subcarriers}"
            )
        if self.symbol_repeats < 1:
            raise ConfigurationError(
                f"need at least one symbol repeat, got {self.symbol_repeats}"
            )
        if self.zero_padding < 0:
            raise ConfigurationError(
                f"zero padding must be >= 0, got {self.zero_padding}"
            )
        if self.bandwidth >= self.carrier_frequency:
            raise ConfigurationError(
                "bandwidth must be far below the carrier frequency"
            )

    @property
    def subcarrier_spacing(self) -> float:
        """Tone spacing [Hz] (195 kHz for the paper's parameters)."""
        return self.bandwidth / self.subcarriers

    @property
    def preamble_samples(self) -> int:
        """Preamble length in samples (320 for the paper's parameters)."""
        return self.symbol_repeats * self.subcarriers

    @property
    def frame_samples(self) -> int:
        """Total frame length in samples (720)."""
        return self.preamble_samples + self.zero_padding

    @property
    def frame_period(self) -> float:
        """Channel-estimate repetition period T [s] (57.6 us)."""
        return self.frame_samples / self.bandwidth

    @property
    def tx_amplitude(self) -> float:
        """RMS transmit amplitude [sqrt(W)]."""
        return float(np.sqrt(10.0 ** (self.tx_power_dbm / 10.0) * 1e-3))

    def subcarrier_frequencies(self) -> np.ndarray:
        """Absolute RF frequency of each sounded tone [Hz].

        Baseband tones span ``[-B/2, B/2)`` around the carrier, in FFT
        bin order converted to ascending frequency.
        """
        k = np.arange(self.subcarriers) - self.subcarriers // 2
        return self.carrier_frequency + k * self.subcarrier_spacing

    def frame_times(self, frames: int,
                    start_time: float = 0.0) -> np.ndarray:
        """Start time [s] of each of ``frames`` consecutive frames.

        Args:
            frames: Number of consecutive frames.
            start_time: Offset of the first frame [s] — lets batched
                callers place capture windows without re-deriving the
                grid.
        """
        if frames < 1:
            raise ConfigurationError(f"frames must be >= 1, got {frames}")
        times = np.arange(frames) * self.frame_period
        if start_time != 0.0:
            times = start_time + times
        return times
