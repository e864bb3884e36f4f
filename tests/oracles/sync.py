"""Frame synchronization and CFO estimation.

The paper's single-USRP reader shares one clock between TX and RX, so
it needs neither timing search nor carrier-frequency-offset correction
(section 4.4).  A reader split across devices — or a listener deployment
on a commodity AP — does.  This module supplies both pieces at the
sample level: Schmidl-Cox-style repeated-symbol detection (the sounding
preamble is five repeats of one 64-sample symbol, so the metric comes
for free) and the classic repeated-symbol CFO estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReaderError
from repro.reader.waveform import OFDMSounderConfig
from tests.oracles.ofdm import generate_preamble


@dataclass(frozen=True)
class SyncResult:
    """Detection outcome for one capture.

    Attributes:
        offset: Sample index where the preamble starts.
        cfo: Estimated carrier frequency offset [Hz].
        metric: Peak detection metric (0-1; ~1 = clean detection).
    """

    offset: int
    cfo: float
    metric: float


class FrameSynchronizer:
    """Detects the sounding preamble and estimates CFO.

    Args:
        config: The sounding waveform description.
        detection_threshold: Minimum correlation metric to accept.
    """

    def __init__(self, config: OFDMSounderConfig,
                 detection_threshold: float = 0.6):
        if not 0.0 < detection_threshold <= 1.0:
            raise ReaderError(
                f"detection threshold must be in (0, 1], got "
                f"{detection_threshold}"
            )
        if config.symbol_repeats < 2:
            raise ReaderError(
                "repetition-based sync needs at least 2 symbol repeats"
            )
        self.config = config
        self.detection_threshold = float(detection_threshold)
        self._template = generate_preamble(config)

    def correlation_metric(self, samples: np.ndarray) -> np.ndarray:
        """Repeated-symbol (Schmidl-Cox) metric at every lag.

        ``|sum x[n] conj(x[n+L])| / sum |x|^2`` over one symbol length
        L — near 1 wherever two consecutive preamble symbols align.
        """
        samples = np.asarray(samples, dtype=complex)
        symbol = self.config.subcarriers
        window = symbol
        if samples.size < 2 * symbol:
            raise ReaderError(
                f"need at least {2 * symbol} samples, got {samples.size}"
            )
        lags = samples.size - 2 * symbol + 1
        metric = np.empty(lags)
        product = samples[:-symbol] * np.conj(samples[symbol:])
        energy = np.abs(samples) ** 2
        correlation = np.convolve(product, np.ones(window), mode="valid")
        power = np.convolve(energy[:-symbol] + energy[symbol:],
                            0.5 * np.ones(window), mode="valid")
        metric = np.abs(correlation[:lags]) / np.maximum(power[:lags],
                                                         1e-300)
        return metric

    def detect(self, samples: np.ndarray) -> SyncResult:
        """Find the preamble and estimate CFO.

        Raises:
            ReaderError: No correlation peak above the threshold.
        """
        samples = np.asarray(samples, dtype=complex)
        metric = self.correlation_metric(samples)
        peak = int(np.argmax(metric))
        if metric[peak] < self.detection_threshold:
            raise ReaderError(
                f"no preamble found: best metric {metric[peak]:.3f} below "
                f"threshold {self.detection_threshold}"
            )
        # The metric is flat across the repeated region; take the first
        # index within 1% of the peak as the frame start.
        plateau = np.flatnonzero(metric >= 0.99 * metric[peak])
        offset = int(plateau[0])
        cfo = self.estimate_cfo(samples, offset)
        return SyncResult(offset=offset, cfo=cfo, metric=float(metric[peak]))

    def estimate_cfo(self, samples: np.ndarray, offset: int = 0) -> float:
        """Repeated-symbol CFO estimate [Hz].

        The phase of ``sum x[n] conj(x[n+L])`` over the preamble equals
        ``-2 pi cfo L / fs``; unambiguous for |cfo| < fs / (2 L)
        (±97.6 kHz for the paper's waveform).
        """
        samples = np.asarray(samples, dtype=complex)
        symbol = self.config.subcarriers
        span = self.config.preamble_samples - symbol
        if offset < 0 or offset + self.config.preamble_samples > samples.size:
            raise ReaderError(
                f"offset {offset} leaves no room for the preamble"
            )
        head = samples[offset:offset + span]
        tail = samples[offset + symbol:offset + symbol + span]
        rotation = np.sum(tail * np.conj(head))
        if rotation == 0:
            raise ReaderError("zero energy in the preamble window")
        return float(np.angle(rotation) * self.config.bandwidth
                     / (2.0 * np.pi * symbol))

    @property
    def max_cfo(self) -> float:
        """Largest unambiguous CFO [Hz]."""
        return self.config.bandwidth / (2.0 * self.config.subcarriers)


def apply_cfo(samples: np.ndarray, cfo: float,
              sample_rate: float) -> np.ndarray:
    """Impart a carrier frequency offset onto baseband samples."""
    if sample_rate <= 0.0:
        raise ReaderError(f"sample rate must be positive, got {sample_rate}")
    samples = np.asarray(samples, dtype=complex)
    n = np.arange(samples.size)
    return samples * np.exp(2j * np.pi * cfo * n / sample_rate)


def correct_cfo(samples: np.ndarray, cfo: float,
                sample_rate: float) -> np.ndarray:
    """Remove an estimated CFO from baseband samples."""
    return apply_cfo(samples, -cfo, sample_rate)
