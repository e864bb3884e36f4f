"""One runner per paper figure/table (see DESIGN.md's index).

Every runner builds its scenario through the public API, executes the
paper's protocol, and returns a typed result object.  Benchmarks print
these; integration tests assert their shape claims (who wins, rough
factors, crossovers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.digital_backscatter import (
    DigitalBudget,
    digital_backscatter_power_budget,
)
from repro.baselines.rfid_touch import RFIDTouchArray
from repro.baselines.strain_rss import NotchReader, NotchStrainSensor
from repro.channel.multipath import indoor_channel
from repro.channel.propagation import BackscatterLink
from repro.channel.tissue import body_phantom
from repro.core.calibration import harmonic_differential_phases
from repro.core.harmonics import HarmonicExtractor, integer_period_group_length
from repro.core.phase import phase_stability_deg
from repro.core.pipeline import WiForceReader
from repro.errors import DynamicRangeError
from repro.experiments.fingertip import FingertipProfile
from repro.experiments.metrics import median_absolute_error
from repro.experiments.parallel import CampaignExecutor
from repro.experiments.scenarios import (
    EVALUATION_LOCATIONS,
    build_wireless_scenario,
    calibrated_model,
    default_transducer,
    fast_transducer,
    thin_trace_transducer,
)
from repro.mechanics.indenter import GroundTruthRig
from repro.reader.batch import FastSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.rf.elements import line_twoport
from repro.rf.microstrip import MicrostripLine, synthesize_ratio_for_impedance
from repro.sensor.clock import naive_clocking, wiforce_clocking
from repro.sensor.power import wiforce_power_budget, PowerBudget
from repro.sensor.tag import TagState, WiForceTag
from repro.sensor.transduction import ForceTransducer


def _transducer(fast: bool) -> ForceTransducer:
    return fast_transducer() if fast else default_transducer()


# ---------------------------------------------------------------- Fig. 4


@dataclass(frozen=True)
class TransductionResult:
    """Fig. 4c: soft beam vs bare thin trace phase-force response."""

    forces: np.ndarray
    soft_phase_deg: np.ndarray
    thin_phase_deg: np.ndarray

    @property
    def soft_swing_deg(self) -> float:
        """Phase dynamic range of the soft-beam sensor."""
        return float(self.soft_phase_deg.max() - self.soft_phase_deg.min())

    @property
    def thin_swing_deg(self) -> float:
        """Phase dynamic range of the bare trace."""
        return float(self.thin_phase_deg.max() - self.thin_phase_deg.min())


def run_fig04(fast: bool = True) -> TransductionResult:
    """Fig. 4c: the soft beam is what makes the line force sensitive
    (presses at 40 mm, read at 2.4 GHz)."""
    forces = np.linspace(0.5, 6.0, 12)
    soft = _transducer(fast)
    thin = thin_trace_transducer()
    soft_phase = np.array([
        soft.differential_phases(2.4e9, float(f), 0.040).port1
        for f in forces])
    thin_phase = np.array([
        thin.differential_phases(2.4e9, float(f), 0.040).port1
        for f in forces])
    return TransductionResult(
        forces=forces,
        soft_phase_deg=np.degrees(np.unwrap(soft_phase)),
        thin_phase_deg=np.degrees(np.unwrap(thin_phase)),
    )


# ---------------------------------------------------------------- Fig. 5


@dataclass(frozen=True)
class BeamProfilesResult:
    """Fig. 5b: per-location phase-force profiles at both ports."""

    locations: Tuple[float, ...]
    forces: np.ndarray
    port1_deg: np.ndarray  # (locations, forces)
    port2_deg: np.ndarray

    def swing_deg(self, location_index: int, port: int) -> float:
        """Phase dynamic range for one (location, port) profile."""
        profile = (self.port1_deg if port == 1 else
                   self.port2_deg)[location_index]
        return float(profile.max() - profile.min())


def run_fig05(fast: bool = True) -> BeamProfilesResult:
    """Fig. 5b: symmetric response at the centre, asymmetric off-centre
    (presses at 20, 40 and 60 mm, read at 2.4 GHz)."""
    transducer = _transducer(fast)
    locations = (0.020, 0.040, 0.060)
    forces = np.linspace(0.5, 8.0, 16)
    port1 = np.zeros((len(locations), forces.size))
    port2 = np.zeros_like(port1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            phases = transducer.differential_phases(2.4e9, float(force),
                                                    location)
            port1[i, j] = phases.port1
            port2[i, j] = phases.port2
    return BeamProfilesResult(
        locations=locations,
        forces=forces,
        port1_deg=np.degrees(np.unwrap(port1, axis=1)),
        port2_deg=np.degrees(np.unwrap(port2, axis=1)),
    )


# ------------------------------------------------------------- Figs. 7-8


@dataclass(frozen=True)
class IntermodulationResult:
    """Figs. 7-8: readout-tone identity integrity per clocking scheme.

    The quantity that matters is whether each readout tone carries its
    own port's phase.  The reference phase for port i is the isolated
    observable ``angle(Gamma_on_i - Gamma_off_off)``; intermodulation
    (both switches on simultaneously) corrupts the tone away from it.
    """

    overlap_wiforce: float
    overlap_naive: float
    wiforce_tone_db: Dict[float, float]
    naive_tone_db: Dict[float, float]
    wiforce_phase_error_deg: Tuple[float, float]
    naive_phase_error_deg: Tuple[float, float]

    @property
    def wiforce_worst_error_deg(self) -> float:
        """Worst readout-tone phase corruption (WiForce scheme)."""
        return max(abs(err) for err in self.wiforce_phase_error_deg)

    @property
    def naive_worst_error_deg(self) -> float:
        """Worst readout-tone phase corruption (naive scheme)."""
        return max(abs(err) for err in self.naive_phase_error_deg)


def _tone_value(offsets: np.ndarray, spectrum: np.ndarray,
                tone: float) -> complex:
    index = int(np.argmin(np.abs(offsets - tone)))
    return complex(spectrum[index])


def run_fig07(fast: bool = True) -> IntermodulationResult:
    """Figs. 7-8: duty-cycled clocks keep the tone identities clean.

    The corruption is worst in the *untouched* state (the one read
    here, at 900 MHz): with no shorting points the line conducts end
    to end, so whenever both naive switches are on the ends couple
    through the line and cross-modulate — exactly the leakage Fig. 7
    illustrates.  The untouched phase is also the differential
    measurement's reference, so corrupting it corrupts every reading.
    """
    transducer = _transducer(fast)
    carrier = 900e6
    state = TagState(0.0, 0.040)
    base = 1e3
    results = {}
    for name, scheme in (("wiforce", wiforce_clocking(base)),
                         ("naive", naive_clocking(base))):
        tag = WiForceTag(transducer, clocking=scheme)
        grid = np.array([carrier])
        reflections = tag.state_reflections(grid, state)
        resting = reflections[(False, False)][0]
        harmonic1 = int(round(scheme.readout_port1
                              / scheme.clock_port1.frequency))
        harmonic2 = int(round(scheme.readout_port2
                              / scheme.clock_port2.frequency))
        expected = (
            np.angle((reflections[(True, False)][0] - resting)
                     * scheme.clock_port1.fourier_coefficient(harmonic1)),
            np.angle((reflections[(False, True)][0] - resting)
                     * scheme.clock_port2.fourier_coefficient(harmonic2)),
        )
        offsets, spectrum = tag.modulation_spectrum(carrier, state,
                                                    samples=16384)
        readout = (scheme.readout_port1, scheme.readout_port2)
        tone_values = [_tone_value(offsets, spectrum, tone)
                       for tone in readout]
        tone_db = {tone: float(20.0 * np.log10(abs(value) + 1e-15))
                   for tone, value in zip(readout, tone_values)}
        errors = tuple(
            float(np.degrees(np.angle(
                value * np.exp(-1j * reference))))
            for value, reference in zip(tone_values, expected))
        results[name] = (scheme.overlap_fraction(), tone_db, errors)
    return IntermodulationResult(
        overlap_wiforce=results["wiforce"][0],
        overlap_naive=results["naive"][0],
        wiforce_tone_db=results["wiforce"][1],
        naive_tone_db=results["naive"][1],
        wiforce_phase_error_deg=results["wiforce"][2],
        naive_phase_error_deg=results["naive"][2],
    )


# ---------------------------------------------------------------- Fig. 10


@dataclass(frozen=True)
class SensorRFResult:
    """Fig. 10: broadband S-parameters of the untouched sensor."""

    frequency: np.ndarray
    s11_db: np.ndarray
    s21_db: np.ndarray
    s21_phase_residual_deg: float

    @property
    def worst_s11_db(self) -> float:
        """Largest (worst) S11 over the band."""
        return float(self.s11_db.max())

    @property
    def worst_s21_db(self) -> float:
        """Largest through loss over the band."""
        return float(self.s21_db.min())


def run_fig10(points: int = 301) -> SensorRFResult:
    """Fig. 10: S11 < -10 dB and linear S21 phase across 0-3 GHz."""
    line = MicrostripLine()
    frequency = np.linspace(10e6, 3e9, points)
    network = line_twoport(line, frequency)
    s11_db = 20.0 * np.log10(np.abs(network.s11) + 1e-15)
    s21_db = 20.0 * np.log10(np.abs(network.s21) + 1e-15)
    phase = np.unwrap(np.angle(network.s21))
    fit = np.polyval(np.polyfit(frequency, phase, 1), frequency)
    residual = float(np.degrees(np.max(np.abs(phase - fit))))
    return SensorRFResult(frequency=frequency, s11_db=s11_db, s21_db=s21_db,
                          s21_phase_residual_deg=residual)


# ---------------------------------------------------------------- Table 1


@dataclass(frozen=True)
class Table1Result:
    """Table 1: VNA vs model vs wireless phase-force profiles."""

    carrier: float
    locations: Tuple[float, ...]
    forces: np.ndarray
    vna_port1_deg: np.ndarray      # (locations, forces) port observable
    model_port1_deg: np.ndarray    # harmonic-domain model prediction
    wireless_port1_deg: np.ndarray  # measured over the air
    vna_port2_deg: np.ndarray
    model_port2_deg: np.ndarray
    wireless_port2_deg: np.ndarray

    def wireless_model_rmse_deg(self) -> float:
        """RMS wireless-vs-model mismatch across all profiles."""
        delta1 = self.wireless_port1_deg - self.model_port1_deg
        delta2 = self.wireless_port2_deg - self.model_port2_deg
        return float(np.sqrt(np.mean(np.square(
            np.concatenate([delta1.ravel(), delta2.ravel()])))))


def run_table1(carrier: float = 900e6, fast: bool = True,
               force_points: int = 8) -> Table1Result:
    """Table 1: wireless phases track VNA/model curves at 20/40/55/60 mm."""
    transducer = _transducer(fast)
    model = calibrated_model(carrier, fast=fast)
    reader = build_wireless_scenario(carrier, seed=11, fast=fast)
    reader.capture_baseline()
    forces = np.linspace(1.0, 8.0, force_points)

    shape = (len(EVALUATION_LOCATIONS), forces.size)
    vna1 = np.zeros(shape)
    vna2 = np.zeros(shape)
    model1 = np.zeros(shape)
    model2 = np.zeros(shape)
    wireless1 = np.zeros(shape)
    wireless2 = np.zeros(shape)
    for i, location in enumerate(EVALUATION_LOCATIONS):
        for j, force in enumerate(forces):
            port = transducer.differential_phases(carrier, float(force),
                                                  location)
            vna1[i, j], vna2[i, j] = port.port1, port.port2
            model1[i, j], model2[i, j] = model.predict(float(force),
                                                       location)
            reading = reader.read(TagState(float(force), location))
            wireless1[i, j] = reading.phi1
            wireless2[i, j] = reading.phi2

    def wrapdeg(values: np.ndarray) -> np.ndarray:
        return np.degrees(np.angle(np.exp(1j * values)))

    return Table1Result(
        carrier=carrier,
        locations=EVALUATION_LOCATIONS,
        forces=forces,
        vna_port1_deg=wrapdeg(vna1),
        model_port1_deg=wrapdeg(model1),
        wireless_port1_deg=wrapdeg(wireless1),
        vna_port2_deg=wrapdeg(vna2),
        model_port2_deg=wrapdeg(model2),
        wireless_port2_deg=wrapdeg(wireless2),
    )


# ----------------------------------------------------------- Figs. 13-14


@dataclass(frozen=True)
class WirelessAccuracyResult:
    """Figs. 13-14: force and location error samples for one carrier."""

    carrier: float
    force_errors: np.ndarray
    location_errors: np.ndarray
    per_location: Dict[float, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)

    @property
    def median_force_error(self) -> float:
        """Median |force error| [N]."""
        return median_absolute_error(self.force_errors)

    @property
    def median_location_error(self) -> float:
        """Median |location error| [m]."""
        return median_absolute_error(self.location_errors)


def run_wireless_accuracy(carrier: float = 900e6, fast: bool = True,
                          force_points: int = 6, repeats: int = 2,
                          seed: int = 5) -> WirelessAccuracyResult:
    """Figs. 13-14 protocol: presses at 20/40/55/60 mm, 0.5-8 N."""
    rng = np.random.default_rng(seed)
    reader = build_wireless_scenario(carrier, seed=seed, fast=fast)
    reader.capture_baseline()
    rig = GroundTruthRig(rng=rng)
    forces = np.linspace(1.0, 8.0, force_points)
    force_errors: List[float] = []
    location_errors: List[float] = []
    per_location: Dict[float, Tuple[List[float], List[float]]] = {
        location: ([], []) for location in EVALUATION_LOCATIONS}
    for location in EVALUATION_LOCATIONS:
        for force in forces:
            for _ in range(repeats):
                press = rig.press(float(force), location)
                reading = reader.read(
                    TagState(press.applied_force, press.applied_location),
                    rebaseline=True)
                force_error = reading.force - press.measured_force
                location_error = reading.location - press.commanded_location
                force_errors.append(force_error)
                location_errors.append(location_error)
                per_location[location][0].append(force_error)
                per_location[location][1].append(location_error)
    return WirelessAccuracyResult(
        carrier=carrier,
        force_errors=np.array(force_errors),
        location_errors=np.array(location_errors),
        per_location={loc: (np.array(fe), np.array(le))
                      for loc, (fe, le) in per_location.items()},
    )


# ---------------------------------------------------------------- Fig. 16


@dataclass(frozen=True)
class TissueResult:
    """Fig. 16: through-tissue sensing with direct-path isolation."""

    carrier: float
    tissue_one_way_loss_db: float
    saturated_without_plate: bool
    force_errors: np.ndarray

    @property
    def median_force_error(self) -> float:
        """Median |force error| through the phantom [N]."""
        return median_absolute_error(self.force_errors)


def run_tissue(fast: bool = True, force_points: int = 6,
               repeats: int = 2) -> TissueResult:
    """Fig. 16: sensing at 60 mm through the muscle/fat/skin phantom.

    Without the metal plate the direct path saturates the USRP's 60 dB
    dynamic range and the backscatter is undecodable (the runner
    verifies that failure); with the plate (direct path attenuated
    ~45 dB) the sensing works with slightly elevated error.

    An extra 14 dB per pass models the insertion / refraction /
    misalignment losses of the physical phantom setup beyond the
    planar-slab transmission (the paper reports ~110 dB two-way loss;
    the plain slab model is more optimistic).
    """
    carrier = 900e6
    location = 0.060
    phantom = body_phantom()
    one_way = phantom.one_way_loss_db(carrier) + 14.0
    transducer = _transducer(fast)
    tag = WiForceTag(transducer)
    model = calibrated_model(carrier, fast=fast)
    rng = np.random.default_rng(9)
    config = OFDMSounderConfig(carrier_frequency=carrier)

    # Without the metal plate: full direct path, tag buried below the
    # quantization floor.
    open_link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0,
                                tag_blockage_db=one_way)
    open_sounder = FastSounder(config, tag, open_link,
                                     indoor_channel(carrier, rng=rng),
                                     rng=rng)
    saturated = False
    try:
        open_sounder.assert_decodable(TagState(4.0, location),
                                      min_snr_db=10.0)
    except DynamicRangeError:
        saturated = True

    # With the plate: direct path knocked down ~45 dB.
    plate_link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0,
                                 tag_blockage_db=one_way,
                                 direct_blockage_db=45.0)
    plate_sounder = FastSounder(config, tag, plate_link,
                                      indoor_channel(carrier, rng=rng),
                                      rng=rng)
    reader = WiForceReader(plate_sounder, model, groups_per_capture=6)
    reader.capture_baseline()
    rig = GroundTruthRig(rng=rng)
    errors = []
    for force in np.linspace(1.0, 8.0, force_points):
        for _ in range(repeats):
            press = rig.press(float(force), location)
            reading = reader.read(
                TagState(press.applied_force, press.applied_location),
                rebaseline=True)
            errors.append(reading.force - press.measured_force)
    return TissueResult(
        carrier=carrier,
        tissue_one_way_loss_db=one_way,
        saturated_without_plate=saturated,
        force_errors=np.array(errors),
    )


# ---------------------------------------------------------------- Fig. 17


@dataclass(frozen=True)
class FingertipResult:
    """Fig. 17: fingertip presses at 60 mm with stepped force levels."""

    target_location: float
    location_estimates: np.ndarray
    level_targets: np.ndarray
    level_estimates: np.ndarray  # mean estimated force per level

    @property
    def location_histogram_spread(self) -> float:
        """Std of the location estimates [m] (histogram width)."""
        return float(np.std(self.location_estimates))

    @property
    def levels_monotonic(self) -> bool:
        """Whether the estimated levels recover the increasing order."""
        return bool(np.all(np.diff(self.level_estimates) > 0.0))


def run_fingertip(fast: bool = True) -> FingertipResult:
    """Fig. 17: localization within a fingertip width; levels tracked.

    The operator lifts the finger between force levels (as in the
    paper's level-by-level protocol), giving the reader an untouched
    gap to re-reference in — which bounds the tag-oscillator phase
    wander per level.  Read at 2.4 GHz.
    """
    rng = np.random.default_rng(21)
    reader = build_wireless_scenario(2.4e9, seed=21, fast=fast)
    profile = FingertipProfile(rng=rng)
    presses = profile.generate()
    locations = []
    per_level: Dict[int, List[float]] = {}
    last_level = -1
    for press in presses:
        if press.level_index != last_level:
            reader.capture_baseline()
            last_level = press.level_index
        reading = reader.read(press.state)
        locations.append(reading.location)
        per_level.setdefault(press.level_index, []).append(reading.force)
    level_estimates = np.array([
        float(np.mean(per_level[i])) for i in sorted(per_level)])
    return FingertipResult(
        target_location=profile.location,
        location_estimates=np.array(locations),
        level_targets=np.array(profile.levels),
        level_estimates=level_estimates,
    )


# ---------------------------------------------------------------- Fig. 18


@dataclass(frozen=True)
class DistanceResult:
    """Fig. 18 (+ section 5.4 range claim): phase stability vs geometry."""

    positions_from_rx: np.ndarray
    stability_deg: np.ndarray
    separations: np.ndarray
    separation_stability_deg: np.ndarray

    @property
    def best_stability_deg(self) -> float:
        """Best (smallest) stability along the 4 m line."""
        return float(self.stability_deg.min())

    @property
    def worst_stability_deg(self) -> float:
        """Worst stability along the 4 m line."""
        return float(self.stability_deg.max())


def _stability_for_link(link: BackscatterLink, tag: WiForceTag,
                        carrier: float, groups: int,
                        rng: np.random.Generator) -> float:
    config = OFDMSounderConfig(carrier_frequency=carrier, tx_power_dbm=10.0)
    sounder = FastSounder(config, tag, link,
                                indoor_channel(carrier, rng=rng), rng=rng)
    group_length = integer_period_group_length(
        config.frame_period, tag.clocking.clock_port1.frequency)
    extractor = HarmonicExtractor(tones=(tag.clocking.readout_port1,),
                                  group_length=group_length)
    stream = sounder.capture(TagState(), groups * group_length)
    matrix = extractor.extract(stream)[tag.clocking.readout_port1]
    return phase_stability_deg(matrix)


def _distance_trial(rng_seed: int, tx_to_tag: float, tag_to_rx: float,
                    tx_to_rx: float, fast: bool, groups: int) -> float:
    """One geometry's phase stability at 900 MHz (module-level so it
    shards)."""
    transducer = _transducer(fast)
    tag = WiForceTag(transducer, clock_offset_ppm=20.0)
    link = BackscatterLink(tx_to_tag=tx_to_tag, tag_to_rx=tag_to_rx,
                           tx_to_rx=tx_to_rx)
    return _stability_for_link(link, tag, 900e6, groups,
                               np.random.default_rng(rng_seed))


def run_distance(fast: bool = True, groups: int = 8) -> DistanceResult:
    """Fig. 18: sensor swept along a 4 m TX..RX line, plus a total-range
    sweep with the sensor at the midpoint (the up-to-5 m reach claim),
    both at 900 MHz.

    Both sweeps run through one :class:`CampaignExecutor` batch; every
    geometry is seeded independently so sharding cannot change the
    numbers.
    """
    positions = (1.0, 1.5, 2.0)
    separations = (2.0, 4.0, 10.0, 30.0)
    arguments = [
        (3 + index, 4.0 - from_rx, from_rx, 4.0, fast, groups)
        for index, from_rx in enumerate(positions)
    ] + [
        (103 + index, separation / 2.0, separation / 2.0,
         separation, fast, groups)
        for index, separation in enumerate(separations)
    ]
    results = CampaignExecutor().map(_distance_trial, arguments)
    stabilities = results[:len(positions)]
    range_stabilities = results[len(positions):]
    return DistanceResult(
        positions_from_rx=np.array(positions),
        stability_deg=np.array(stabilities),
        separations=np.array(separations),
        separation_stability_deg=np.array(range_stabilities),
    )


# ---------------------------------------------------------------- Fig. 19


@dataclass(frozen=True)
class ImpedanceRatioResult:
    """Fig. 19: 50-ohm width/height ratio, narrow vs wide ground."""

    ratios: np.ndarray
    insertion_loss_narrow_db: np.ndarray
    insertion_loss_wide_db: np.ndarray
    optimal_ratio_narrow: float
    optimal_ratio_wide: float


def run_impedance_ratio() -> ImpedanceRatioResult:
    """Fig. 19: wide ground shifts the optimal w:h from ~5:1 to ~4:1
    (insertion loss at 2.4 GHz)."""
    ratios = np.linspace(2.0, 8.0, 41)
    height = 0.63e-3
    frequency = np.array([2.4e9])
    narrow = np.zeros(ratios.size)
    wide = np.zeros(ratios.size)
    for index, ratio in enumerate(ratios):
        width = float(ratio) * height
        line_narrow = MicrostripLine(width=width, ground_width=width,
                                     height=height)
        line_wide = MicrostripLine(width=width,
                                   ground_width=width + 3.5e-3,
                                   height=height)
        narrow[index] = 20.0 * np.log10(np.abs(
            line_twoport(line_narrow, frequency).s21[0]))
        wide[index] = 20.0 * np.log10(np.abs(
            line_twoport(line_wide, frequency).s21[0]))
    return ImpedanceRatioResult(
        ratios=ratios,
        insertion_loss_narrow_db=narrow,
        insertion_loss_wide_db=wide,
        optimal_ratio_narrow=synthesize_ratio_for_impedance(50.0, 1.0,
                                                            height),
        optimal_ratio_wide=synthesize_ratio_for_impedance(50.0, 2.4, height),
    )


# ------------------------------------------------------------ power/base


@dataclass(frozen=True)
class PowerComparisonResult:
    """Section 4.3 / Fig. 3: WiForce vs digital backscatter power."""

    wiforce: PowerBudget
    digital: DigitalBudget

    @property
    def ratio(self) -> float:
        """Digital-over-WiForce power factor."""
        return self.digital.total / self.wiforce.total


def run_power_comparison() -> PowerComparisonResult:
    """Power budgets: direct transduction vs ADC+MCU pipeline."""
    return PowerComparisonResult(
        wiforce=wiforce_power_budget(),
        digital=digital_backscatter_power_budget(),
    )


@dataclass(frozen=True)
class BaselineComparisonResult:
    """Section 5.1/8 claims against the implemented baselines."""

    wiforce_location_median_m: float
    rfid_location_median_m: float
    strain_error_clean: float
    strain_error_multipath: float

    @property
    def location_advantage(self) -> float:
        """RFID-over-WiForce location error factor (paper: ~5x+)."""
        return self.rfid_location_median_m / self.wiforce_location_median_m

    @property
    def multipath_degradation(self) -> float:
        """Strain baseline error inflation under multipath."""
        if self.strain_error_clean <= 0.0:
            return float("inf")
        return self.strain_error_multipath / self.strain_error_clean


def run_baseline_comparison(fast: bool = True) -> BaselineComparisonResult:
    """WiForce vs the RFID-touch and RSS-strain baselines at 900 MHz."""
    carrier = 900e6
    rng = np.random.default_rng(13)
    accuracy = run_wireless_accuracy(carrier, fast=fast, force_points=4,
                                     repeats=1, seed=13)
    rfid = RFIDTouchArray(rng=rng)
    touch_locations = [float(loc) for loc in EVALUATION_LOCATIONS] * 4
    rfid_errors = rfid.location_errors(touch_locations)

    sensor = NotchStrainSensor(rest_frequency=carrier)
    reader = NotchReader(sensor, start_frequency=carrier * 0.9,
                         stop_frequency=carrier * 1.02, rng=rng)
    strains = np.linspace(0.01, 0.1, 10)
    clean = float(np.median(reader.strain_errors(strains)))
    channel = indoor_channel(carrier, path_count=8,
                             clutter_to_direct_db=3.0, rng=rng)
    multipath = float(np.median(reader.strain_errors(strains, channel)))
    return BaselineComparisonResult(
        wiforce_location_median_m=accuracy.median_location_error,
        rfid_location_median_m=median_absolute_error(rfid_errors),
        strain_error_clean=clean,
        strain_error_multipath=multipath,
    )


# ---------------------------------------------------------------- ablations


@dataclass(frozen=True)
class AveragingAblationResult:
    """Section 3.3 ablation: subcarrier averaging gain."""

    single_subcarrier_std_deg: float
    averaged_std_deg: float

    @property
    def improvement(self) -> float:
        """Phase-noise reduction factor from averaging."""
        if self.averaged_std_deg <= 0.0:
            return float("inf")
        return self.single_subcarrier_std_deg / self.averaged_std_deg


def run_averaging_ablation(fast: bool = True,
                           captures: int = 24) -> AveragingAblationResult:
    """Phase repeatability with and without subcarrier averaging.

    Uses a long-range deployment at 900 MHz with the oscillator jitter
    turned off so receiver noise — the error source subcarrier
    averaging attacks — dominates the phase error.
    """
    carrier = 900e6
    rng = np.random.default_rng(17)
    transducer = _transducer(fast)
    tag = WiForceTag(transducer)
    link = BackscatterLink(tx_to_tag=3.0, tag_to_rx=3.0, tx_to_rx=6.0)
    config = OFDMSounderConfig(carrier_frequency=carrier, tx_power_dbm=10.0)
    sounder = FastSounder(config, tag, link,
                                indoor_channel(carrier, rng=rng),
                                tag_phase_jitter_deg_per_sqrt_s=0.0,
                                rng=rng)
    model = calibrated_model(carrier, fast=fast)
    reader = WiForceReader(sounder, model, groups_per_capture=1)
    reader.capture_baseline()
    state = TagState(3.0, 0.040)
    tone = reader.extractor.tones[0]
    baseline = reader.capture_harmonics(TagState())
    averaged = []
    single = []
    for _ in range(captures):
        harmonics = reader.capture_harmonics(state)
        product = harmonics[tone] * np.conj(baseline[tone])
        averaged.append(float(np.angle(product.sum())))
        single.append(float(np.angle(product[0])))
    return AveragingAblationResult(
        single_subcarrier_std_deg=float(np.degrees(np.std(single))),
        averaged_std_deg=float(np.degrees(np.std(averaged))),
    )


@dataclass(frozen=True)
class SwitchAblationResult:
    """Section 4.3 ablation: reflective vs absorptive off state."""

    reflective_baseline_tone: float
    absorptive_baseline_tone: float

    @property
    def reference_loss_db(self) -> float:
        """How much untouched-reference tone the absorptive switch loses."""
        return float(20.0 * np.log10(
            self.reflective_baseline_tone
            / max(self.absorptive_baseline_tone, 1e-30)))


def run_switch_ablation(fast: bool = True) -> SwitchAblationResult:
    """The untouched 900 MHz reference tone vanishes with absorptive
    switches."""
    from dataclasses import replace

    from repro.rf.switch import ABSORPTIVE_SWITCH
    from repro.sensor.geometry import default_sensor_design

    transducer = _transducer(fast)
    reflective_tag = WiForceTag(transducer)

    absorptive_design = replace(default_sensor_design(),
                                switch=ABSORPTIVE_SWITCH)
    absorptive_transducer = ForceTransducer(
        absorptive_design, force_points=8, location_points=9)
    absorptive_tag = WiForceTag(absorptive_transducer)

    def baseline_tone(tag: WiForceTag) -> float:
        grid = np.array([900e6])
        states = tag.state_reflections(grid, TagState())
        difference = states[(True, False)][0] - states[(False, False)][0]
        return float(np.abs(difference))

    return SwitchAblationResult(
        reflective_baseline_tone=baseline_tone(reflective_tag),
        absorptive_baseline_tone=baseline_tone(absorptive_tag),
    )


# ------------------------------------------------------------ section 7


@dataclass(frozen=True)
class FormFactorResult:
    """Section 7 (future work): miniaturisation via higher carriers."""

    scales: Tuple[float, ...]
    carriers: Tuple[float, ...]
    phase_swing_deg: Tuple[float, ...]
    location_medians_m: Tuple[float, ...]
    relative_location_medians: Tuple[float, ...]


def _form_factor_trial(index: int, scale: float
                       ) -> Tuple[float, float, float, float]:
    """One scaled unit, calibrated and read at its own carrier,
    2.4 GHz / ``scale``.

    Returns (carrier, phase swing [deg], location median [m],
    relative location median).  Module-level so the scales shard
    across a :class:`CampaignExecutor`.
    """
    from repro.core.calibration import calibrate_harmonic_observable
    from repro.sensor.fabrication import scaled_design

    carrier = 2.4e9 / float(scale)
    design = scaled_design(float(scale))
    transducer = ForceTransducer(design, force_points=16,
                                 location_points=17)
    tag = WiForceTag(transducer, clock_offset_ppm=20.0)
    length = design.length
    locations = tuple(np.linspace(0.25, 0.75, 5) * length)
    forces = np.linspace(0.5, 8.0, 12)
    model = calibrate_harmonic_observable(tag, carrier, locations, forces)
    # Phase swing of a centre press across the force range.
    phases = [harmonic_differential_phases(
        tag, carrier, float(f), length / 2.0)[0] for f in forces]
    swing = float(np.degrees(
        np.max(np.unwrap(phases)) - np.min(np.unwrap(phases))))

    rng = np.random.default_rng(77 + index)
    config = OFDMSounderConfig(carrier_frequency=carrier)
    sounder = FastSounder(config, tag, BackscatterLink(),
                                indoor_channel(carrier, rng=rng),
                                rng=rng)
    reader = WiForceReader(sounder, model)
    rig = GroundTruthRig(rng=rng)
    errors = []
    for fraction in (0.3, 0.5, 0.7):
        for force in (2.0, 5.0):
            press = rig.press(force, fraction * length)
            reading = reader.read(
                TagState(press.applied_force, press.applied_location),
                rebaseline=True)
            errors.append(reading.location - press.commanded_location)
    median = median_absolute_error(errors)
    return carrier, swing, median, median / length


def run_form_factor(scales: Sequence[float] = (1.0, 0.5)
                    ) -> FormFactorResult:
    """Shrink the sensor, raise the carrier, keep the performance.

    Each scaled unit is read at ``2.4 GHz / scale`` so its
    electrical length is unchanged; the paper's argument is that the
    phase transduction — and therefore the *relative* localization
    accuracy — carries over to the smaller form factor.  The scales
    are independent, so they run as one executor batch.
    """
    results = CampaignExecutor().map(
        _form_factor_trial,
        [(index, float(scale)) for index, scale in enumerate(scales)])
    carriers, swings, medians, relative = (
        zip(*results) if results else ((), (), (), ()))
    return FormFactorResult(
        scales=tuple(float(s) for s in scales),
        carriers=tuple(carriers),
        phase_swing_deg=tuple(swings),
        location_medians_m=tuple(medians),
        relative_location_medians=tuple(relative),
    )
