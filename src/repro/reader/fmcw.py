"""FMCW channel sounder — the waveform-agnostic claim of section 3.3.

WiForce's algorithm only needs *periodic wideband channel estimates*;
the paper notes it works equally with FMCW or UWB radars, where the
"subcarrier" axis is the sweep's frequency steps.  This sounder models
a stepped-FMCW radar: each sweep visits K frequency steps in sequence,
so unlike OFDM the tones of one estimate are sampled at slightly
different times.  The harmonic extraction uses true timestamps per
estimate and tolerates the intra-sweep stagger as long as the sweep is
fast against the switching clocks.
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
class FMCWSounderConfig:
    """Stepped-FMCW sweep description.

    Attributes:
        carrier_frequency: Sweep centre [Hz].
        bandwidth: Swept bandwidth [Hz].
        steps: Frequency steps per sweep (the "subcarriers").
        sweep_period: Time for one complete sweep + retrace [s].
        tx_power_dbm: Transmit power [dBm].
    """

    carrier_frequency: float = 900e6
    bandwidth: float = 12.5e6
    steps: int = 64
    sweep_period: float = 57.6e-6
    tx_power_dbm: float = 10.0

    def __post_init__(self) -> None:
        if self.carrier_frequency <= 0.0 or self.bandwidth <= 0.0:
            raise ConfigurationError(
                "carrier frequency and bandwidth must be positive"
            )
        if self.steps < 2:
            raise ConfigurationError(f"need >= 2 steps, got {self.steps}")
        if self.sweep_period <= 0.0:
            raise ConfigurationError(
                f"sweep period must be positive, got {self.sweep_period}"
            )

    @property
    def step_spacing(self) -> float:
        """Frequency increment per step [Hz]."""
        return self.bandwidth / self.steps

    @property
    def step_dwell(self) -> float:
        """Dwell time on each step [s] (80% duty; 20% retrace)."""
        return 0.8 * self.sweep_period / self.steps

    def step_frequencies(self) -> np.ndarray:
        """Absolute frequency of each sweep step [Hz]."""
        k = np.arange(self.steps) - self.steps // 2
        return self.carrier_frequency + k * self.step_spacing

    @property
    def tx_amplitude(self) -> float:
        """RMS transmit amplitude [sqrt(W)]."""
        return float(np.sqrt(10.0 ** (self.tx_power_dbm / 10.0) * 1e-3))


class FMCWSounder:
    """Synthesises per-sweep channel estimates from a stepped sweep."""

    def __init__(self, config: FMCWSounderConfig, tag: WiForceTag,
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
        self._frequencies = config.step_frequencies()
        self._tag_gain = link.tag_path_gain(self._frequencies)
        static = link.direct_path_gain(self._frequencies)
        if clutter is not None:
            static = static + clutter.frequency_response(self._frequencies)
        self._static = static

    def estimate_noise_std(self) -> float:
        """Per-step channel-estimate noise std.

        Each step integrates thermal noise over its dwell time, giving
        a noise bandwidth of 1/dwell.
        """
        noise = thermal_noise_power(1.0 / self.config.step_dwell,
                                    self.noise_figure_db)
        return float(np.sqrt(noise) / self.config.tx_amplitude)

    def capture(self, state: TagState, sweeps: int,
                start_time: float = 0.0) -> ChannelEstimateStream:
        """Record ``sweeps`` consecutive sweep estimates.

        Within one sweep, step k is measured at its own dwell time, so
        the tag's switch state is evaluated per (sweep, step) pair —
        the stagger OFDM does not have.
        """
        if sweeps < 1:
            raise ConfigurationError(f"sweeps must be >= 1, got {sweeps}")
        sweep_starts = start_time + np.arange(sweeps) * self.config.sweep_period
        step_offsets = (np.arange(self.config.steps) + 0.5) * self.config.step_dwell
        # Step k of sweep s is only observed at its own dwell time:
        # gather Gamma(t_{s,k}, f_k) directly from the tag's 4-state
        # table instead of synthesising a full (K, K) reflection block
        # per sweep and keeping its diagonal.
        sample_times = sweep_starts[:, None] + step_offsets[None, :]
        lookup = self.tag.state_table(self._frequencies, state)
        switch_index = self.tag.state_indices(sample_times.ravel()).reshape(
            sweeps, self.config.steps)
        gamma = lookup[switch_index, np.arange(self.config.steps)[None, :]]
        estimates = self._static[None, :] + self._tag_gain[None, :] * gamma
        noise_std = self.estimate_noise_std()
        if noise_std > 0.0:
            estimates = estimates + awgn(estimates.shape, noise_std ** 2,
                                         self._rng)
        return ChannelEstimateStream(
            estimates=estimates,
            times=sweep_starts,
            frequencies=self._frequencies.copy(),
            frame_period=self.config.sweep_period,
        )
