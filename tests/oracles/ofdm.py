"""Sample-level OFDM channel-sounding modem.

The slow-but-faithful path: modulates the actual preamble, runs it
through a frequency response (the channel is static within one 57.6 us
frame — the switching clocks are three orders of magnitude slower),
adds thermal noise at the receiver, and least-squares-estimates the
channel from the known tones, averaging the repeated symbols.

The fast frame-level sounder (:mod:`repro.reader.sounder`) must agree
with this modem — a cross-validation test in the suite enforces it.
The known preamble both ends share is built here too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.noise import awgn
from repro.errors import ReaderError
from repro.reader.waveform import OFDMSounderConfig
from repro.units import thermal_noise_power


def generate_preamble(config: OFDMSounderConfig,
                      seed: int = 7) -> np.ndarray:
    """Deterministic QPSK preamble, time domain, unit average power.

    One 64-sample OFDM symbol built from a fixed pseudo-random QPSK
    sequence, repeated ``symbol_repeats`` times.  The receiver knows
    the same sequence (seeded), as with a standards preamble.
    """
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, 4, config.subcarriers)
    tones = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * phases))
    symbol = np.fft.ifft(tones) * np.sqrt(config.subcarriers)
    preamble = np.tile(symbol, config.symbol_repeats)
    return preamble * config.tx_amplitude


def preamble_tones(config: OFDMSounderConfig, seed: int = 7) -> np.ndarray:
    """The frequency-domain QPSK tones the preamble was built from."""
    rng = np.random.default_rng(seed)
    phases = rng.integers(0, 4, config.subcarriers)
    return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * phases))


class OFDMModem:
    """Transmit/receive pair for one sounding frame.

    Args:
        config: Waveform description.
        noise_figure_db: Receiver noise figure [dB].
        rng: Random source for the noise.
    """

    def __init__(self, config: OFDMSounderConfig,
                 noise_figure_db: float = 6.0,
                 rng: Optional[np.random.Generator] = None):
        self.config = config
        self.noise_figure_db = float(noise_figure_db)
        self._rng = rng or np.random.default_rng()
        self._preamble = generate_preamble(config)
        self._tones = preamble_tones(config)

    @property
    def preamble(self) -> np.ndarray:
        """The transmitted preamble (time domain, copy)."""
        return self._preamble.copy()

    def received_preamble(self, channel_response: np.ndarray) -> np.ndarray:
        """Pass the preamble through a per-subcarrier channel response.

        Args:
            channel_response: Complex response on the subcarrier grid in
                ascending-frequency order, shape (subcarriers,).

        Returns:
            Noisy received preamble samples.
        """
        n = self.config.subcarriers
        response = np.asarray(channel_response, dtype=complex)
        if response.shape != (n,):
            raise ReaderError(
                f"channel response must have shape ({n},), got "
                f"{response.shape}"
            )
        # The preamble is periodic with period n, so per-symbol circular
        # convolution is exact; apply the channel tone-by-tone.
        response_fft_order = np.fft.ifftshift(response)
        symbol = self._preamble[:n]
        symbol_spectrum = np.fft.fft(symbol)
        received_symbol = np.fft.ifft(symbol_spectrum * response_fft_order)
        received = np.tile(received_symbol, self.config.symbol_repeats)
        noise_power = thermal_noise_power(self.config.bandwidth,
                                          self.noise_figure_db)
        return received + awgn(received.shape, noise_power, self._rng)

    def estimate_channel(self, received: np.ndarray) -> np.ndarray:
        """LS channel estimate from one received preamble.

        Averages the repeated symbols, divides by the known tones, and
        returns the estimate in ascending-frequency order.
        """
        n = self.config.subcarriers
        repeats = self.config.symbol_repeats
        received = np.asarray(received, dtype=complex)
        if received.shape != (n * repeats,):
            raise ReaderError(
                f"received preamble must have shape ({n * repeats},), got "
                f"{received.shape}"
            )
        symbols = received.reshape(repeats, n)
        averaged = symbols.mean(axis=0)
        spectrum = np.fft.fft(averaged)
        tx_spectrum = np.fft.fft(self._preamble[:n])
        estimate = spectrum / tx_spectrum
        return np.fft.fftshift(estimate)

    def sound_once(self, channel_response: np.ndarray) -> np.ndarray:
        """One complete sounding: TX -> channel -> RX -> LS estimate."""
        received = self.received_preamble(channel_response)
        return self.estimate_channel(received)

    def estimate_noise_std(self) -> float:
        """Predicted per-subcarrier channel-estimate noise std.

        Analytic counterpart used by the frame-level sounder; the
        cross-validation test compares a Monte-Carlo estimate from this
        modem against this prediction.
        """
        noise = thermal_noise_power(self.config.bandwidth,
                                    self.noise_figure_db)
        per_tone_power = (np.abs(self._preamble[:self.config.subcarriers]) ** 2
                          ).mean() * self.config.subcarriers
        averaging = self.config.symbol_repeats
        return float(np.sqrt(noise * self.config.subcarriers
                             / (averaging * per_tone_power)))
