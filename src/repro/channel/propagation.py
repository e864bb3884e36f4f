"""Free-space propagation and backscatter link budgets.

The reader experiments (paper sections 5.1 and 5.4) place TX and RX
antennas around the tag; the backscattered signal pays path loss twice
(TX-to-tag and tag-to-RX).  These helpers compute complex path gains —
amplitude from Friis, phase from the electrical length — so the channel
estimate carries the same air-propagation phase the differential
processing must cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ChannelError
from repro.units import SPEED_OF_LIGHT, from_db

FloatOrArray = Union[float, np.ndarray]


def free_space_path_gain(frequency: FloatOrArray, distance: float,
                         gain_tx_dbi: float = 0.0,
                         gain_rx_dbi: float = 0.0) -> np.ndarray:
    """Complex one-way path gain (amplitude + propagation phase).

    Friis amplitude ``lambda / (4 pi d)`` scaled by the endpoint antenna
    gains, with phase ``exp(-j 2 pi f d / c)``.

    Args:
        frequency: Carrier or subcarrier frequencies [Hz].
        distance: Path length [m], must be positive.
        gain_tx_dbi / gain_rx_dbi: Endpoint antenna gains [dBi].
    """
    if distance <= 0.0:
        raise ChannelError(f"distance must be positive, got {distance}")
    frequency = np.asarray(frequency, dtype=float)
    if np.any(frequency <= 0.0):
        raise ChannelError("frequencies must be positive")
    wavelength = SPEED_OF_LIGHT / frequency
    amplitude = (wavelength / (4.0 * np.pi * distance)
                 * np.sqrt(from_db(gain_tx_dbi) * from_db(gain_rx_dbi)))
    phase = np.exp(-2j * np.pi * frequency * distance / SPEED_OF_LIGHT)
    return amplitude * phase


def backscatter_link_gain(frequency: FloatOrArray, tx_to_tag: float,
                          tag_to_rx: float, gain_tx_dbi: float = 0.0,
                          gain_rx_dbi: float = 0.0,
                          tag_gain_dbi: float = 2.0) -> np.ndarray:
    """Complex two-way gain TX -> tag -> RX (excluding tag reflection).

    The tag's antenna gain applies on both passes.  Multiply by the
    tag's reflection coefficient to get its channel contribution.
    """
    forward = free_space_path_gain(frequency, tx_to_tag, gain_tx_dbi,
                                   tag_gain_dbi)
    backward = free_space_path_gain(frequency, tag_to_rx, tag_gain_dbi,
                                    gain_rx_dbi)
    return forward * backward


@dataclass(frozen=True)
class BackscatterLink:
    """Geometry + gains of one reader/tag deployment.

    Attributes:
        tx_to_tag: TX antenna to tag distance [m].
        tag_to_rx: Tag to RX antenna distance [m].
        tx_to_rx: Direct TX-to-RX distance [m].
        gain_tx_dbi / gain_rx_dbi: Reader antenna gains [dBi].
        tag_gain_dbi: Tag antenna gain [dBi].
        direct_blockage_db: Extra attenuation on the direct path [dB]
            (e.g. the metal plate of the tissue experiment, section 5.2).
        tag_blockage_db: Extra one-way attenuation on each tag path [dB]
            (e.g. through-tissue loss; use TissuePhantom for the full
            complex coefficient).
    """

    tx_to_tag: float = 0.5
    tag_to_rx: float = 0.5
    tx_to_rx: float = 1.0
    gain_tx_dbi: float = 6.0
    gain_rx_dbi: float = 6.0
    tag_gain_dbi: float = 2.0
    direct_blockage_db: float = 0.0
    tag_blockage_db: float = 0.0

    def __post_init__(self) -> None:
        if min(self.tx_to_tag, self.tag_to_rx, self.tx_to_rx) <= 0.0:
            raise ChannelError("all link distances must be positive")
        if self.direct_blockage_db < 0.0 or self.tag_blockage_db < 0.0:
            raise ChannelError("blockage attenuations must be >= 0 dB")

    def tag_path_gain(self, frequency: FloatOrArray) -> np.ndarray:
        """Two-way complex gain of the tag path."""
        gain = backscatter_link_gain(
            frequency, self.tx_to_tag, self.tag_to_rx,
            self.gain_tx_dbi, self.gain_rx_dbi, self.tag_gain_dbi)
        return gain * from_db(-2.0 * self.tag_blockage_db) ** 0.5

    def direct_path_gain(self, frequency: FloatOrArray) -> np.ndarray:
        """Complex gain of the TX-to-RX direct path."""
        gain = free_space_path_gain(frequency, self.tx_to_rx,
                                    self.gain_tx_dbi, self.gain_rx_dbi)
        return gain * from_db(-self.direct_blockage_db) ** 0.5
