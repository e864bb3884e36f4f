"""Physical constants and unit helpers.

Internally the library works in strict SI units (metres, newtons, hertz,
seconds, watts).  The paper, like most RF/mechanics literature, quotes
values in mixed units (mm, GHz, dBm, degrees); the helpers here convert
at the API boundary so unit bugs cannot creep into the physics.
"""

from __future__ import annotations

import math

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Vacuum permittivity [F/m].
EPSILON_0 = 8.8541878128e-12

#: Vacuum permeability [H/m].
MU_0 = 4.0e-7 * math.pi

#: Characteristic impedance of free space [ohm].
ETA_0 = math.sqrt(MU_0 / EPSILON_0)

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Standard noise reference temperature [K].
T_REF = 290.0


def mm(value: float) -> float:
    """Convert millimetres to metres."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def db(power_ratio: float) -> float:
    """Convert a power ratio to decibels."""
    if power_ratio <= 0.0:
        return -math.inf
    return 10.0 * math.log10(power_ratio)


def from_db(decibels: float) -> float:
    """Convert decibels to a power ratio."""
    return 10.0 ** (decibels / 10.0)


def from_db_amplitude(decibels: float) -> float:
    """Convert decibels to an amplitude (voltage) ratio."""
    return 10.0 ** (decibels / 20.0)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 1e-3 * from_db(dbm)


def watts_to_dbm(watts: float) -> float:
    """Convert a power level in watts to dBm."""
    if watts <= 0.0:
        return -math.inf
    return db(watts / 1e-3)


def deg(radians: float) -> float:
    """Convert radians to degrees."""
    return math.degrees(radians)


def wavelength(frequency_hz: float, relative_permittivity: float = 1.0) -> float:
    """Wavelength [m] at ``frequency_hz`` in a medium with the given
    relative permittivity (1.0 = vacuum/air)."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    if relative_permittivity <= 0.0:
        raise ValueError(
            f"relative permittivity must be positive, got {relative_permittivity}"
        )
    return SPEED_OF_LIGHT / (frequency_hz * math.sqrt(relative_permittivity))


def thermal_noise_power(bandwidth_hz: float, noise_figure_db: float = 0.0,
                        temperature_k: float = T_REF) -> float:
    """Thermal noise power [W] in ``bandwidth_hz`` with a receiver noise
    figure in dB (kTB * NF)."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return BOLTZMANN * temperature_k * bandwidth_hz * from_db(noise_figure_db)
