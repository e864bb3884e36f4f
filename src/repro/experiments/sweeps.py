"""Design-space sensitivity sweeps.

Beyond reproducing the paper's figures, a downstream adopter needs to
know how the accuracy moves with the knobs they control: transmit
power, integration time (groups per reading), environment clutter, and
calibration density.  Each sweep runs the Figs. 13-14 protocol at a
reduced scale at 900 MHz across one knob and reports the median
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.channel.propagation import BackscatterLink
from repro.core.calibration import calibrate_harmonic_observable
from repro.core.pipeline import WiForceReader
from repro.experiments.metrics import median_absolute_error
from repro.experiments.scenarios import (
    build_wireless_scenario,
    default_transducer,
    fast_transducer,
)
from repro.mechanics.indenter import GroundTruthRig
from repro.sensor.tag import TagState, WiForceTag


@dataclass(frozen=True)
class SweepResult:
    """One knob's sweep: value -> (force median [N], location median [m])."""

    knob: str
    points: Tuple[Tuple[float, float, float], ...]

    def force_medians(self) -> Dict[float, float]:
        """Knob value -> median force error."""
        return {value: force for value, force, _ in self.points}

    def location_medians(self) -> Dict[float, float]:
        """Knob value -> median location error."""
        return {value: location for value, _, location in self.points}


def _measure(reader: WiForceReader,
             rng: np.random.Generator) -> Tuple[float, float]:
    rig = GroundTruthRig(rng=rng)
    force_errors = []
    location_errors = []
    forces = np.linspace(1.5, 7.5, 3)
    locations = (0.025, 0.040, 0.058)
    for location in locations:
        for force in forces:
            press = rig.press(float(force), float(location))
            reading = reader.read(
                TagState(press.applied_force, press.applied_location),
                rebaseline=True)
            force_errors.append(reading.force - press.measured_force)
            location_errors.append(reading.location
                                   - press.commanded_location)
    return (median_absolute_error(force_errors),
            median_absolute_error(location_errors))


def sweep_tx_power(fast: bool = True,
                   powers_dbm: Sequence[float] = (-10.0, 0.0, 10.0)
                   ) -> SweepResult:
    """Accuracy vs reader transmit power."""
    points = []
    for index, power in enumerate(powers_dbm):
        rng = np.random.default_rng(41 + index)
        reader = build_wireless_scenario(900e6, seed=41 + index,
                                         fast=fast, tx_power_dbm=float(power))
        force, location = _measure(reader, rng)
        points.append((float(power), force, location))
    return SweepResult(knob="tx_power_dbm", points=tuple(points))


def sweep_integration(fast: bool = True,
                      groups: Sequence[int] = (1, 2, 4)) -> SweepResult:
    """Accuracy vs phase groups averaged per reading."""
    points = []
    for index, count in enumerate(groups):
        rng = np.random.default_rng(43 + index)
        reader = build_wireless_scenario(900e6, seed=43 + index,
                                         fast=fast,
                                         groups_per_capture=int(count))
        force, location = _measure(reader, rng)
        points.append((float(count), force, location))
    return SweepResult(knob="groups_per_capture", points=tuple(points))


def sweep_range(fast: bool = True,
                separations: Sequence[float] = (1.0, 2.0, 4.0)
                ) -> SweepResult:
    """Accuracy vs deployment scale (TX-RX separation, tag midway)."""
    points = []
    for index, separation in enumerate(separations):
        rng = np.random.default_rng(47 + index)
        link = BackscatterLink(tx_to_tag=separation / 2.0,
                               tag_to_rx=separation / 2.0,
                               tx_to_rx=separation)
        reader = build_wireless_scenario(900e6, link=link,
                                         seed=47 + index, fast=fast)
        force, location = _measure(reader, rng)
        points.append((float(separation), force, location))
    return SweepResult(knob="tx_rx_separation_m", points=tuple(points))


def sweep_calibration_density(fast: bool = True,
                              location_counts: Sequence[int] = (3, 5, 9)
                              ) -> SweepResult:
    """Accuracy vs number of calibrated locations (the paper uses 5)."""
    transducer = fast_transducer() if fast else default_transducer()
    tag = WiForceTag(transducer)
    forces = np.linspace(0.5, 8.0, 16)
    points = []
    for index, count in enumerate(location_counts):
        locations = np.linspace(0.020, 0.060, int(count))
        model = calibrate_harmonic_observable(tag, 900e6, locations,
                                              forces)
        rng = np.random.default_rng(53 + index)
        reader = build_wireless_scenario(900e6, seed=53 + index,
                                         fast=fast)
        reader.model = model
        # Rebuild the estimator against the new model cleanly.
        from repro.core.estimator import ForceLocationEstimator
        reader.estimator = ForceLocationEstimator(model)
        force, location = _measure(reader, rng)
        points.append((float(count), force, location))
    return SweepResult(knob="calibration_locations", points=tuple(points))
