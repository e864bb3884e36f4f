"""SDR front-end model (USRP N210 class).

Captures the receive-chain properties the paper's evaluation leans on:
finite dynamic range (≈60 dB for the USRP's ADC chain), which buries
the backscatter under quantization noise when the direct path is too
strong (the tissue experiment's reason for the metal plate, section
5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SDRFrontEnd:
    """Receive/transmit chain model.

    Attributes:
        name: Device identifier.
        dynamic_range_db: Usable ratio between the strongest signal the
            ADC is scaled to and the quantization floor [dB].
        synchronized_tx_rx: Whether TX and RX share a clock (true for
            the paper's single-USRP reader, so no CFO between them).
    """

    name: str = "generic-sdr"
    dynamic_range_db: float = 60.0
    synchronized_tx_rx: bool = True

    def __post_init__(self) -> None:
        if self.dynamic_range_db <= 0.0:
            raise ConfigurationError(
                f"dynamic range must be positive, got {self.dynamic_range_db}"
            )

    def quantization_floor_amplitude(self, scaled_power: float) -> float:
        """Quantization noise amplitude when scaled to ``scaled_power``.

        Args:
            scaled_power: Power of the signal the ADC full scale tracks
                (typically the direct path + clutter) [linear].

        Returns:
            RMS amplitude of the quantization floor (same linear units).
        """
        if scaled_power < 0.0:
            raise ConfigurationError(
                f"scaled power must be >= 0, got {scaled_power}"
            )
        if scaled_power == 0.0:
            return 0.0
        floor_power = scaled_power * 10.0 ** (-self.dynamic_range_db / 10.0)
        return float(np.sqrt(floor_power))

#: The paper's reader: USRP N210, ~60 dB usable dynamic range,
#: synchronized TX/RX chains on one device (section 4.4).
USRP_N210 = SDRFrontEnd(
    name="USRP-N210",
    dynamic_range_db=60.0,
    synchronized_tx_rx=True,
)
