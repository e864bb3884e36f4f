"""Digital (codeword-translation) backscatter baseline (paper Fig. 3).

The conventional architecture WiForce replaces: an analog force sensor
is digitised by an ADC, buffered/framed by a microcontroller, and the
bits are backscattered by codeword translation (HitchHike [5] /
FreeRider [9] style).  Functionally it delivers the same readings, but
the ADC + MCU chain dominates the power budget — this module computes
that budget so the paper's "direct transduction saves the electronics
in the middle" argument becomes a measured factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sensor.power import cmos_switching_power


@dataclass(frozen=True)
class DigitalBudget:
    """Itemised digital-tag power [W].

    Attributes:
        adc: ADC conversion power [W].
        mcu: Microcontroller active+sleep average power [W].
        modulator: Codeword-translation switching power [W].
        leakage: Standby leakage [W].
    """

    adc: float
    mcu: float
    modulator: float
    leakage: float

    @property
    def total(self) -> float:
        """Total power [W]."""
        return self.adc + self.mcu + self.modulator + self.leakage

    @property
    def total_uw(self) -> float:
        """Total power [uW]."""
        return self.total * 1e6


def digital_backscatter_power_budget(
    sample_rate: float = 100.0,
    adc_bits: int = 10,
    adc_energy_per_conversion: float = 50e-12,
    mcu_active_power: float = 900e-6,
    mcu_duty: float = 0.02,
    mcu_sleep_power: float = 1.5e-6,
    modulation_rate: float = 1e6,
    modulator_capacitance: float = 1e-12,
    supply_voltage: float = 1.0,
    leakage: float = 100e-9,
) -> DigitalBudget:
    """Budget for the sensor + ADC + MCU + backscatter pipeline.

    Defaults model a frugal duty-cycled design: a 10-bit SAR ADC at
    50 pJ/conversion sampling 100 Hz, an MCU that wakes 2% of the time
    (typical for framing + codeword translation at these rates), and a
    1 MHz codeword-translation modulator.  Even this optimistic design
    lands near 20 uW — an order of magnitude above WiForce's direct
    transduction.
    """
    if sample_rate <= 0.0 or modulation_rate <= 0.0:
        raise ConfigurationError("rates must be positive")
    if not 0.0 <= mcu_duty <= 1.0:
        raise ConfigurationError(f"MCU duty must be in [0, 1], got {mcu_duty}")
    if adc_bits < 1:
        raise ConfigurationError(f"ADC bits must be >= 1, got {adc_bits}")
    adc = adc_energy_per_conversion * sample_rate
    mcu = mcu_active_power * mcu_duty + mcu_sleep_power * (1.0 - mcu_duty)
    modulator = cmos_switching_power(modulator_capacitance, supply_voltage,
                                     modulation_rate)
    return DigitalBudget(adc=adc, mcu=mcu, modulator=modulator,
                         leakage=leakage)


