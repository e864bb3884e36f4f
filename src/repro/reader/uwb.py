"""Impulse-radio UWB channel sounder — the third waveform of section 3.3.

The paper lists UWB alongside FMCW and OFDM as waveforms the algorithm
runs on, since all it needs is periodic wideband channel estimates.  An
impulse radio transmits a short pulse every repetition interval and
correlates the return against the pulse template; the FFT of the
estimated channel impulse response is exactly the H[k, n] snapshot the
phase-group processing consumes — here with hundreds of MHz of span
instead of OFDM's 12.5 MHz, i.e. far more subcarriers to average over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.multipath import MultipathChannel
from repro.channel.noise import awgn
from repro.channel.propagation import BackscatterLink
from repro.errors import ConfigurationError
from repro.reader.sounder import ChannelEstimateStream
from repro.sensor.tag import TagState, WiForceTag
from repro.units import thermal_noise_power


@dataclass(frozen=True)
class UWBSounderConfig:
    """Impulse-radio sounding parameters.

    Attributes:
        carrier_frequency: Band centre [Hz] (3.5-6.5 GHz typical).
        bandwidth: Pulse bandwidth [Hz] (>= 500 MHz for regulatory UWB).
        bins: Frequency bins of the estimated response.
        pulse_repetition_interval: Time between sounding pulses [s].
        pulses_per_estimate: Pulses coherently averaged into one
            channel estimate.
        tx_power_dbm: Average transmit power [dBm] (UWB masks are low).
    """

    carrier_frequency: float = 4e9
    bandwidth: float = 500e6
    bins: int = 256
    pulse_repetition_interval: float = 1e-6
    pulses_per_estimate: int = 57
    tx_power_dbm: float = -10.0

    def __post_init__(self) -> None:
        if self.carrier_frequency <= 0.0 or self.bandwidth <= 0.0:
            raise ConfigurationError(
                "carrier frequency and bandwidth must be positive"
            )
        if self.bandwidth >= 2.0 * self.carrier_frequency:
            raise ConfigurationError("bandwidth exceeds the band centre")
        if self.bins < 8:
            raise ConfigurationError(f"need >= 8 bins, got {self.bins}")
        if self.pulse_repetition_interval <= 0.0:
            raise ConfigurationError("PRI must be positive")
        if self.pulses_per_estimate < 1:
            raise ConfigurationError(
                f"need >= 1 pulse per estimate, got "
                f"{self.pulses_per_estimate}"
            )

    @property
    def estimate_period(self) -> float:
        """Channel-estimate repetition period [s]."""
        return self.pulse_repetition_interval * self.pulses_per_estimate

    def bin_frequencies(self) -> np.ndarray:
        """Absolute frequency of each response bin [Hz]."""
        k = np.arange(self.bins) - self.bins // 2
        return self.carrier_frequency + k * (self.bandwidth / self.bins)

    @property
    def tx_amplitude(self) -> float:
        """RMS transmit amplitude [sqrt(W)]."""
        return float(np.sqrt(10.0 ** (self.tx_power_dbm / 10.0) * 1e-3))


class UWBSounder:
    """Synthesises per-estimate channel snapshots from pulse trains.

    All bins of one estimate are sampled effectively simultaneously
    (the pulse is nanoseconds long), so unlike FMCW there is no
    intra-estimate stagger; the cost is the low UWB power mask, paid
    back by coherent pulse averaging and the huge subcarrier count.
    """

    def __init__(self, config: UWBSounderConfig, tag: WiForceTag,
                 link: BackscatterLink,
                 clutter: Optional[MultipathChannel] = None,
                 noise_figure_db: float = 6.0,
                 rng: Optional[np.random.Generator] = None):
        self.config = config
        self.tag = tag
        self.link = link
        self.clutter = clutter
        self.noise_figure_db = float(noise_figure_db)
        self._rng = rng or np.random.default_rng()
        self._frequencies = config.bin_frequencies()
        self._tag_gain = link.tag_path_gain(self._frequencies)
        static = link.direct_path_gain(self._frequencies)
        if clutter is not None:
            static = static + clutter.frequency_response(self._frequencies)
        self._static = static

    def estimate_noise_std(self) -> float:
        """Per-bin complex noise std of one averaged estimate.

        Thermal noise over the full pulse bandwidth, split across the
        bins and averaged down by the coherent pulse count.
        """
        noise = thermal_noise_power(self.config.bandwidth,
                                    self.noise_figure_db)
        per_bin = noise / self.config.bins
        averaged = per_bin / self.config.pulses_per_estimate
        return float(np.sqrt(averaged) / self.config.tx_amplitude
                     * np.sqrt(self.config.bins))

    def capture(self, state: TagState, estimates: int,
                start_time: float = 0.0) -> ChannelEstimateStream:
        """Record ``estimates`` consecutive channel snapshots."""
        if estimates < 1:
            raise ConfigurationError(
                f"estimates must be >= 1, got {estimates}"
            )
        times = start_time + np.arange(estimates) * self.config.estimate_period
        midpoints = times + 0.5 * self.config.estimate_period
        # One gather from the tag's 4-state table covers the whole
        # pulse train (all bins sample the same instant per estimate).
        lookup = self.tag.state_table(self._frequencies, state)
        gamma = lookup[self.tag.state_indices(midpoints)]
        values = self._static[None, :] + self._tag_gain[None, :] * gamma
        noise_std = self.estimate_noise_std()
        if noise_std > 0.0:
            values = values + awgn(values.shape, noise_std ** 2, self._rng)
        return ChannelEstimateStream(
            estimates=values,
            times=times,
            frequencies=self._frequencies.copy(),
            frame_period=self.config.estimate_period,
        )
