"""Monte-Carlo campaigns: robustness across environments and units.

The paper evaluates "in different indoor environments" (section 5);
these campaigns quantify that: re-run the accuracy protocol across many
random multipath draws, and separately across fabricated sensor units
(calibration-transfer study), reporting the distribution of medians.

Every trial is a module-level function seeded entirely by its
arguments, so campaigns shard across a
:class:`repro.experiments.parallel.CampaignExecutor` without changing
a single bit of the output.

The deterministic cold path of every trial — contact-table
construction for each fabricated unit and the per-unit harmonic
calibrations — flows through :mod:`repro.cache`, so repeated campaigns
skip straight to the RNG-dependent wireless protocol.  So do the
workers each sharded run forks afresh: they inherit the parent's
in-memory tier and, through ``REPRO_CACHE_DIR``, its disk tier.
``REPRO_CACHE=0`` recomputes everything with bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import CALIBRATION_LOCATIONS
from repro.core.calibration import calibrate_harmonic_observable
from repro.core.pipeline import WiForceReader
from repro.channel.multipath import indoor_channel
from repro.channel.propagation import BackscatterLink
from repro.experiments.metrics import median_absolute_error
from repro.experiments.parallel import CampaignExecutor
from repro.experiments.scenarios import (
    build_wireless_scenario,
    calibrated_model,
)
from repro.mechanics.indenter import GroundTruthRig
from repro.reader.batch import FastSounder
from repro.reader.sounder import FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.fabrication import FabricationTolerances, perturbed_design
from repro.sensor.tag import TagState, WiForceTag
from repro.sensor.transduction import ForceTransducer


@dataclass(frozen=True)
class CampaignResult:
    """Medians per trial of a Monte-Carlo campaign.

    Attributes:
        label: What varied across trials.
        force_medians: Median |force error| per trial [N].
        location_medians: Median |location error| per trial [m].
    """

    label: str
    force_medians: np.ndarray
    location_medians: np.ndarray

    @property
    def worst_force_median(self) -> float:
        """Worst trial's force median [N]."""
        return float(self.force_medians.max())

    @property
    def worst_location_median(self) -> float:
        """Worst trial's location median [m]."""
        return float(self.location_medians.max())


def _protocol(reader: WiForceReader,
              rng: np.random.Generator) -> Tuple[float, float]:
    rig = GroundTruthRig(rng=rng)
    force_errors = []
    location_errors = []
    for location in (0.025, 0.040, 0.058):
        for force in (1.5, 4.0, 7.0):
            press = rig.press(force, location)
            reading = reader.read(
                TagState(press.applied_force, press.applied_location),
                rebaseline=True)
            force_errors.append(reading.force - press.measured_force)
            location_errors.append(reading.location
                                   - press.commanded_location)
    return (median_absolute_error(force_errors),
            median_absolute_error(location_errors))


def _environment_trial(trial: int, fast: bool) -> Tuple[float, float]:
    """One environment draw at 900 MHz: fresh clutter, fresh rig, same
    protocol."""
    rng = np.random.default_rng(101 + trial)
    reader = build_wireless_scenario(900e6, seed=101 + trial, fast=fast)
    return _protocol(reader, rng)


def _acquisition_trial(trial: int, window_s: float) -> Tuple[float, float]:
    """One environment draw paced by a frame-acquisition window.

    Models the deployed capture loop: a trial blocks for one sounder
    acquisition window (the real-time frame budget of the hardware
    front end) before the deterministic protocol runs.  The wait never
    touches the RNG, so the medians are bit-identical to
    :func:`_environment_trial` of the same trial (reduced-resolution
    transducer).
    """
    time.sleep(window_s)
    return _environment_trial(trial, True)


def _fabricated_unit(unit: int, seed: int
                     ) -> Tuple[WiForceTag, FrameLevelSounder,
                                np.random.Generator]:
    """Fabricate a unit with the default tolerances and deploy it at
    900 MHz (shared by both unit campaigns; keeps their rng draw
    sequences identical)."""
    rng = np.random.default_rng(seed + unit)
    design = perturbed_design(tolerances=FabricationTolerances(), rng=rng)
    transducer = ForceTransducer(design, force_points=16,
                                 location_points=17)
    tag = WiForceTag(transducer, clock_offset_ppm=20.0)
    config = OFDMSounderConfig(carrier_frequency=900e6)
    sounder = FastSounder(config, tag, BackscatterLink(),
                          indoor_channel(900e6, rng=rng),
                          rng=rng)
    return tag, sounder, rng


def _transfer_trial(unit: int, fast: bool) -> Tuple[float, float]:
    """One toleranced unit read with the nominal calibration."""
    _, sounder, rng = _fabricated_unit(unit, 211)
    nominal_model = calibrated_model(900e6, fast=fast)
    reader = WiForceReader(sounder, nominal_model)
    return _protocol(reader, rng)


def _per_unit_trial(unit: int, seed: int) -> Tuple[float, float]:
    """One toleranced unit read with its own calibration."""
    tag, sounder, rng = _fabricated_unit(unit, seed)
    model = calibrate_harmonic_observable(
        tag, 900e6, CALIBRATION_LOCATIONS, np.linspace(0.5, 8.0, 12))
    reader = WiForceReader(sounder, model)
    return _protocol(reader, rng)


def _campaign(label: str, trial, argument_lists,
              executor: Optional[CampaignExecutor]) -> CampaignResult:
    execution = (executor or CampaignExecutor()).run(trial, argument_lists)
    if execution.results:
        force_medians, location_medians = zip(*execution.results)
    else:
        force_medians, location_medians = (), ()
    return CampaignResult(
        label=label,
        force_medians=np.array(force_medians),
        location_medians=np.array(location_medians),
    )


def environment_campaign(trials: int = 8, fast: bool = True,
                         executor: Optional[CampaignExecutor] = None
                         ) -> CampaignResult:
    """Accuracy across random indoor environments (clutter draws) at
    900 MHz."""
    return _campaign(
        "environment", _environment_trial,
        [(trial, fast) for trial in range(trials)], executor)


def acquisition_campaign(trials: int = 8, window_s: float = 0.1,
                         executor: Optional[CampaignExecutor] = None
                         ) -> CampaignResult:
    """The environment campaign paced at hardware acquisition rate.

    Each trial waits out one frame-acquisition window before its
    compute — the shape of a hardware-in-the-loop data-collection
    campaign, where the sounder's frame rate (not the host CPU) sets
    the floor on trial latency.  This is the benchmark workload for
    the campaign executor: overlapping acquisition windows across
    workers measures executor concurrency and orchestration overhead
    on any machine, where a purely compute-bound campaign would just
    measure the host's core count.  Results are bit-identical to
    :func:`environment_campaign` with the same trial arguments
    (reduced-resolution transducer).
    """
    return _campaign(
        "acquisition", _acquisition_trial,
        [(trial, window_s) for trial in range(trials)], executor)


def calibration_transfer_campaign(
    units: int = 4, executor: Optional[CampaignExecutor] = None,
    fast: bool = True,
) -> CampaignResult:
    """Read *toleranced* units with the *nominal* unit's calibration.

    Each trial fabricates a unit with manufacturing deviations, deploys
    it at 900 MHz, and inverts its wireless phases with the nominal
    model — the zero-per-unit-calibration scenario.  The residual error
    quantifies how much per-unit trimming buys.

    Args:
        fast: Calibrate the nominal model on the reduced-resolution
            transducer (the default, matching the fast scenario
            builders).  ``False`` uses the full-resolution nominal
            model — much slower cold, but its contact tables and fit
            come from the artifact cache on every run after the first.
    """
    return _campaign(
        "calibration-transfer", _transfer_trial,
        [(unit, fast) for unit in range(units)], executor)


def per_unit_calibration_campaign(
    units: int = 4, seed: int = 211,
    executor: Optional[CampaignExecutor] = None,
) -> CampaignResult:
    """The same toleranced units, each with its own calibration.

    The reference point for the transfer study: how much of the
    transfer error disappears when every unit is trimmed individually.
    Uses the same seeds as :func:`calibration_transfer_campaign` so the
    two are unit-for-unit comparable.
    """
    return _campaign(
        "per-unit-calibration", _per_unit_trial,
        [(unit, seed) for unit in range(units)], executor)
