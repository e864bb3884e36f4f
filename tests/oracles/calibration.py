"""Calibration straight from the sensor-port observable.

The reader calibrates in the wireless harmonic observable
(:func:`repro.core.calibration.calibrate_harmonic_observable`).  The
tests fit reference models from the noise-free port phases instead.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.calibration import SensorModel, fit_sensor_model
from repro.sensor.transduction import ForceTransducer


def calibrate_port_observable(
    transducer: ForceTransducer, frequency: float,
    locations: Sequence[float], forces: Sequence[float],
    phase_noise_std_deg: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> SensorModel:
    """Calibrate from the VNA (sensor-port) observable (section 4.2).

    Optionally adds VNA phase trace noise to the samples before the
    cubic fit, as a real calibration would contain.
    """
    rng = rng or np.random.default_rng()
    locations = list(locations)
    forces = list(forces)
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            observed = transducer.differential_phases(frequency, float(force),
                                                      float(location))
            phases1[i, j] = observed.port1
            phases2[i, j] = observed.port2
    if phase_noise_std_deg > 0.0:
        noise = np.radians(phase_noise_std_deg)
        phases1 = phases1 + rng.normal(0.0, noise, phases1.shape)
        phases2 = phases2 + rng.normal(0.0, noise, phases2.shape)
    return fit_sensor_model(locations, forces, phases1, phases2, frequency)
