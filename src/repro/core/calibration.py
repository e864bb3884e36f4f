"""The sensor model: cubic phase-force calibration (paper section 4.2).

The paper presses the sensor at five known locations (20..60 mm) with
known forces, records the differential phases at both ports, and fits
a cubic phase-force curve per (port, location).  Intermediate
locations are linearly interpolated (validated at 55 mm in Table 1).
The fitted model is what the estimator inverts.

Two calibration observables are supported:

* ``port`` — the VNA observable: differential reflection phase at the
  sensor's own ports (the paper's wired calibration).
* ``harmonic`` — the wireless observable: phase of the switching-tone
  difference vector at the tag's antenna, exactly what the reader's
  conjugate-multiply measures.  Using it keeps the calibration and the
  over-the-air measurement in the same domain (see DESIGN.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import get_cache
from repro.errors import CalibrationError
from repro.sensor.tag import TagState, WiForceTag
from repro.sensor.transduction import ForceTransducer

#: Artifact version of cached harmonic-observable calibrations.  Bump
#: whenever the fit (or the harmonic observable itself) changes the
#: model produced for identical inputs.
HARMONIC_CALIBRATION_VERSION = 1


@dataclass(frozen=True)
class CalibrationCurve:
    """Cubic phase-force fit for one (port, location).

    Attributes:
        location: Calibrated press location [m].
        coefficients: Polynomial coefficients, highest power first
            (numpy polyval convention), phase in radians vs force in
            newtons.
        force_range: (min, max) force [N] covered by the fit.
    """

    location: float
    coefficients: Tuple[float, ...]
    force_range: Tuple[float, float]

    def phase(self, force: Union[float, np.ndarray]) -> np.ndarray:
        """Predicted phase [rad]; forces are clipped to the fit range."""
        force = np.clip(np.asarray(force, dtype=float),
                        self.force_range[0], self.force_range[1])
        return np.polyval(self.coefficients, force)


class SensorModel:
    """Interpolated two-port phase-force model over the sensor length.

    Args:
        locations: Calibrated locations [m], ascending.
        port1_curves / port2_curves: One cubic fit per location.
        frequency: Carrier the calibration was taken at [Hz].
    """

    def __init__(self, locations: Sequence[float],
                 port1_curves: Sequence[CalibrationCurve],
                 port2_curves: Sequence[CalibrationCurve],
                 frequency: float):
        self._locations = np.asarray(list(locations), dtype=float)
        if self._locations.size < 2:
            raise CalibrationError(
                "need at least 2 calibrated locations for interpolation"
            )
        if np.any(np.diff(self._locations) <= 0.0):
            raise CalibrationError("locations must be strictly ascending")
        if not (len(port1_curves) == len(port2_curves)
                == self._locations.size):
            raise CalibrationError(
                "one curve per port per location is required"
            )
        self._port1 = list(port1_curves)
        self._port2 = list(port2_curves)
        self.frequency = float(frequency)
        self._tables = (self._stack_curves(self._port1),
                        self._stack_curves(self._port2))
        # What :meth:`linearize` gathers per point: the interior knots
        # that pick a segment, the segment widths, and per segment the
        # coefficients of both interpolation ends of both ports, at
        # least two wide so every curve has a slope term.
        self._interior = self._locations[1:-1]
        self._widths = np.diff(self._locations)
        ports = np.stack([self._tables[0][0], self._tables[1][0]], axis=1)
        if ports.shape[-1] < 2:
            ports = np.pad(ports, ((0, 0), (0, 0), (1, 0)))
        self._segment_coefficients = np.stack([ports[:-1], ports[1:]],
                                              axis=1)

    @staticmethod
    def _stack_curves(
        curves: List[CalibrationCurve],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stack per-location fits into (coefficients, force ranges).

        Coefficients are left-padded with zeros to a common length,
        which leaves Horner evaluation (``numpy.polyval``'s scheme)
        unchanged; this is what lets prediction vectorize over
        arbitrary (force, location) tensors.
        """
        width = max(len(curve.coefficients) for curve in curves)
        coefficients = np.zeros((len(curves), width))
        for index, curve in enumerate(curves):
            coefficients[index, width - len(curve.coefficients):] = (
                curve.coefficients)
        ranges = np.array([curve.force_range for curve in curves])
        return coefficients, ranges

    def _segments(
        self, locations: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element interpolation segment index and weight."""
        clipped = np.clip(np.asarray(locations, dtype=float),
                          self._locations[0], self._locations[-1])
        segment = np.clip(
            np.searchsorted(self._locations, clipped) - 1,
            0, self._locations.size - 2)
        weight = (clipped - self._locations[segment]) / (
            self._locations[segment + 1] - self._locations[segment])
        return segment, weight

    @staticmethod
    def _curve_values(coefficients: np.ndarray, ranges: np.ndarray,
                      segment: np.ndarray,
                      forces: np.ndarray) -> np.ndarray:
        """Evaluate per-element calibration curves (Horner's scheme)."""
        clipped = np.clip(forces, ranges[segment, 0], ranges[segment, 1])
        gathered = coefficients[segment]
        values = np.zeros_like(clipped)
        for power in range(gathered.shape[-1]):
            values = values * clipped + gathered[..., power]
        return values

    def predict_batch(
        self, forces: np.ndarray, locations: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Element-wise vectorized prediction.

        ``forces`` and ``locations`` may be any broadcast-compatible
        shapes; returns (phi1, phi2) [rad] in the broadcast shape.
        Numerically identical to looping :meth:`predict`.
        """
        forces = np.asarray(forces, dtype=float)
        if np.any(forces < 0.0):
            raise CalibrationError("forces must be >= 0")
        segment, weight = self._segments(locations)
        phases = []
        for coefficients, ranges in self._tables:
            low = self._curve_values(coefficients, ranges, segment, forces)
            high = self._curve_values(coefficients, ranges, segment + 1,
                                      forces)
            phases.append((1.0 - weight) * low + weight * high)
        return phases[0], phases[1]

    def predict_span(
        self, forces: np.ndarray, locations: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample grid prediction.

        ``forces`` is (N, F) — one force axis per sample — and
        ``locations`` is (N, L); returns (phi1, phi2) shaped (N, F, L),
        sample ``n``'s prediction over the outer product of its axes:
        :meth:`predict_batch` broadcast over the full grids.
        """
        forces = np.asarray(forces, dtype=float)
        locations = np.asarray(locations, dtype=float)
        return self.predict_batch(forces[:, :, np.newaxis],
                                  locations[:, np.newaxis, :])

    def linearize(
        self, forces: np.ndarray, locations: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Phases and their analytic Jacobian at N points.

        ``forces`` [N] and ``locations`` [m] are shape (N,) and must lie
        inside :attr:`force_range` and the calibrated span: nothing is
        clipped, so a point outside extrapolates its curves.  Returns
        ``(phases, jacobian)``: phases (N, 2) [rad], one column per
        port, and jacobian (N, 2, 2), where ``jacobian[n, port]`` is
        (d phase / d force [rad/N], d phase / d location [rad/m]).

        Both interpolation ends of both ports are gathered as one
        (N, 2, 2, W) coefficient array, so one Horner pass evaluates
        every curve with its slope.  The location derivative is the
        slope of the linear interpolation between the two ends.  Every
        operation is element-wise over the N points.
        """
        segment = np.searchsorted(self._interior, locations)
        width = self._widths[segment]
        weight = ((locations - self._locations[segment])
                  / width)[:, np.newaxis]
        coefficients = self._segment_coefficients[segment]
        force = forces[:, np.newaxis, np.newaxis]
        # Horner's scheme for each curve and its derivative together.
        value = coefficients[..., 0] * force + coefficients[..., 1]
        slope = coefficients[..., 0]
        for power in range(2, coefficients.shape[-1]):
            slope = slope * force + value
            value = value * force + coefficients[..., power]
        low, high = value[:, 0], value[:, 1]
        rise = high - low
        phases = rise * weight
        phases += low
        jacobian = np.empty(phases.shape + (2,))
        force_slope = jacobian[..., 0]
        np.subtract(slope[:, 1], slope[:, 0], out=force_slope)
        force_slope *= weight
        force_slope += slope[:, 0]
        np.divide(rise, width[:, np.newaxis], out=jacobian[..., 1])
        return phases, jacobian

    @property
    def locations(self) -> np.ndarray:
        """Calibrated locations [m] (copy)."""
        return self._locations.copy()

    @property
    def force_range(self) -> Tuple[float, float]:
        """Common calibrated force range [N]."""
        low = max(curve.force_range[0] for curve in self._port1 + self._port2)
        high = min(curve.force_range[1] for curve in self._port1 + self._port2)
        return low, high

    def predict(self, force: float, location: float) -> Tuple[float, float]:
        """(phi1, phi2) [rad] for a press of ``force`` at ``location``."""
        if force < 0.0:
            raise CalibrationError(f"force must be >= 0, got {force}")
        phi1, phi2 = self.predict_batch(np.asarray(force, dtype=float),
                                        np.asarray(location, dtype=float))
        return float(phi1), float(phi2)

    def predict_grid(self, forces: np.ndarray,
                     locations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized prediction over a (force, location) grid.

        Returns two arrays shaped (len(forces), len(locations)).
        """
        forces = np.asarray(forces, dtype=float)
        locations = np.asarray(locations, dtype=float)
        return self.predict_batch(forces[:, np.newaxis],
                                  locations[np.newaxis, :])

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        def curve_dict(curve: CalibrationCurve) -> Dict:
            return {
                "location": curve.location,
                "coefficients": list(curve.coefficients),
                "force_range": list(curve.force_range),
            }

        return {
            "frequency": self.frequency,
            "locations": self._locations.tolist(),
            "port1": [curve_dict(c) for c in self._port1],
            "port2": [curve_dict(c) for c in self._port2],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SensorModel":
        """Rebuild a model serialised with :meth:`to_dict`."""
        def curve(entry: Dict) -> CalibrationCurve:
            return CalibrationCurve(
                location=float(entry["location"]),
                coefficients=tuple(entry["coefficients"]),
                force_range=(float(entry["force_range"][0]),
                             float(entry["force_range"][1])),
            )

        return cls(
            locations=data["locations"],
            port1_curves=[curve(c) for c in data["port1"]],
            port2_curves=[curve(c) for c in data["port2"]],
            frequency=float(data["frequency"]),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the model to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SensorModel":
        """Read a model from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def fit_sensor_model(locations: Sequence[float], forces: Sequence[float],
                     phases_port1: np.ndarray, phases_port2: np.ndarray,
                     frequency: float, degree: int = 3) -> SensorModel:
    """Fit per-location cubic curves from measured phase data.

    Args:
        locations: Calibrated locations [m], ascending, length L.
        forces: Force samples [N], length F.
        phases_port1 / phases_port2: Measured phases [rad], shape (L, F).
        frequency: Calibration carrier [Hz].
        degree: Polynomial degree (3 = the paper's cubic fit).
    """
    forces = np.asarray(list(forces), dtype=float)
    phases_port1 = np.asarray(phases_port1, dtype=float)
    phases_port2 = np.asarray(phases_port2, dtype=float)
    expected = (len(list(locations)), forces.size)
    if phases_port1.shape != expected or phases_port2.shape != expected:
        raise CalibrationError(
            f"phase arrays must be shaped {expected}, got "
            f"{phases_port1.shape} and {phases_port2.shape}"
        )
    if forces.size < degree + 1:
        raise CalibrationError(
            f"need at least {degree + 1} force samples for a degree-"
            f"{degree} fit, got {forces.size}"
        )
    port1_curves = []
    port2_curves = []
    for index, location in enumerate(locations):
        # Pre-contact samples (no shorting yet) report exactly zero at
        # both ports; they sit on a different branch of the physics and
        # must not enter the cubic fit.  Stiff units may not touch
        # until well above the lowest commanded force.
        in_contact = ((phases_port1[index] != 0.0)
                      | (phases_port2[index] != 0.0))
        if int(in_contact.sum()) < degree + 1:
            raise CalibrationError(
                f"location {location}: only {int(in_contact.sum())} "
                f"in-contact samples; raise the calibration forces"
            )
        valid_forces = forces[in_contact]
        force_range = (float(valid_forces.min()),
                       float(valid_forces.max()))
        # Unwrap along the force axis: the physical phase is continuous
        # in force even when the wrapped measurement crosses +/- pi.
        phase1 = np.unwrap(phases_port1[index][in_contact])
        phase2 = np.unwrap(phases_port2[index][in_contact])
        coeff1 = np.polyfit(valid_forces, phase1, degree)
        coeff2 = np.polyfit(valid_forces, phase2, degree)
        port1_curves.append(CalibrationCurve(
            float(location), tuple(coeff1), force_range))
        port2_curves.append(CalibrationCurve(
            float(location), tuple(coeff2), force_range))
    return SensorModel(locations, port1_curves, port2_curves, frequency)


def calibrate_with_rig(
    transducer: ForceTransducer, frequency: float,
    locations: Sequence[float], forces: Sequence[float],
    rig, phase_noise_std_deg: float = 0.5,
    tag: Optional[WiForceTag] = None,
    rng: Optional[np.random.Generator] = None,
) -> SensorModel:
    """Calibrate the way the paper actually does it (section 4.2).

    The actuated indenter presses each calibration location with each
    commanded force; the *applied* force (with regulation error) drives
    the sensor, the phases are measured with trace noise, and the cubic
    fit runs against the *load-cell* readings — so the model carries
    the same measurement imperfections a physical calibration would.

    Args:
        transducer: The sensor under calibration.
        frequency: Calibration carrier [Hz].
        locations: Calibration press locations [m].
        forces: Commanded force schedule [N].
        rig: A :class:`repro.mechanics.indenter.GroundTruthRig`.
        phase_noise_std_deg: Phase trace noise [deg].
        tag: When given, calibrate through the assembled tag in the
            wireless (switching-harmonic) observable — the domain the
            reader actually measures in.  When ``None``, use the wired
            VNA (sensor-port) observable.
        rng: Random source for the phase noise.
    """
    rng = rng or np.random.default_rng()
    locations = list(locations)
    forces = list(forces)
    noise = np.radians(phase_noise_std_deg)
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    measured_forces = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            press = rig.press(float(force), float(location))
            if tag is not None:
                phi1, phi2 = harmonic_differential_phases(
                    tag, frequency, press.applied_force,
                    press.applied_location)
            else:
                observed = transducer.differential_phases(
                    frequency, press.applied_force,
                    press.applied_location)
                phi1, phi2 = observed.port1, observed.port2
            phases1[i, j] = phi1 + rng.normal(0.0, noise)
            phases2[i, j] = phi2 + rng.normal(0.0, noise)
            measured_forces[i, j] = press.measured_force
    # Per-location force axes differ slightly (regulation error); fit
    # against the mean measured schedule, which is what a practitioner
    # tabulating load-cell readings would use.
    force_axis = measured_forces.mean(axis=0)
    return fit_sensor_model(locations, force_axis, phases1, phases2,
                            frequency)


def harmonic_differential_phases(tag: WiForceTag, frequency: float,
                                 force: float,
                                 location: float) -> Tuple[float, float]:
    """The wireless observable for one press, computed noiselessly.

    Phase of the switching-tone difference vector (on-state minus
    off-state reflection) of the pressed tag, conjugated against the
    untouched tag — exactly what the reader's phase-group processing
    converges to as noise vanishes.
    """
    grid = np.array([float(frequency)])
    base = tag.state_reflections(grid, TagState())
    touch = tag.state_reflections(grid, TagState(force, location))

    def difference(states, key):
        return states[key][0] - states[(False, False)][0]

    phi1 = np.angle(difference(touch, (True, False))
                    * np.conj(difference(base, (True, False))))
    phi2 = np.angle(difference(touch, (False, True))
                    * np.conj(difference(base, (False, True))))
    return float(phi1), float(phi2)


def calibrate_harmonic_observable(
    tag: WiForceTag, frequency: float, locations: Sequence[float],
    forces: Sequence[float],
) -> SensorModel:
    """Calibrate in the wireless (switching-harmonic) domain.

    A bench calibration of the assembled tag: noiseless harmonic-domain
    phases per (location, force), cubic-fitted exactly like the VNA
    model.  This is the model the estimator should use for over-the-air
    readings, since it lives in the same observable domain.

    The fit is a pure function of the transducer spec, the carrier and
    the press schedule (the tag's clocking and crystal offset shape the
    time series, not the per-state reflections the harmonic observable
    is built from), so the model is memoized through
    :mod:`repro.cache` with the :meth:`SensorModel.to_dict` codec —
    Monte-Carlo campaign workers calibrating identically-parameterized
    (including identically-*toleranced*) units share one fit across
    processes.
    """
    locations = [float(value) for value in locations]
    forces = [float(value) for value in forces]
    key = {
        "transducer": tag.transducer.cache_spec(),
        "frequency": float(frequency),
        "locations": locations,
        "forces": forces,
    }
    return get_cache().get_or_compute(
        "core.harmonic_calibration", HARMONIC_CALIBRATION_VERSION, key,
        lambda: _fit_harmonic_observable(tag, frequency, locations,
                                         forces),
        encode=SensorModel.to_dict, decode=SensorModel.from_dict)


def _fit_harmonic_observable(tag: WiForceTag, frequency: float,
                             locations: List[float],
                             forces: List[float]) -> SensorModel:
    """The cold path behind :func:`calibrate_harmonic_observable`."""
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            phi1, phi2 = harmonic_differential_phases(
                tag, frequency, float(force), float(location))
            phases1[i, j] = phi1
            phases2[i, j] = phi2
    return fit_sensor_model(locations, forces, phases1, phases2, frequency)
