"""Wire types for the inference service.

Everything that crosses the service boundary is a frozen dataclass
with a ``to_dict`` / ``from_dict`` JSON codec; a response nests the
estimate's own encoder,
:meth:`repro.core.estimator.ForceLocationEstimate.to_dict`.  The dict
forms contain only plain python scalars, so ``json.dumps`` round-trips
them losslessly; ``from_json`` decodes the JSON text a transport reads.

Decoders are hardened against hostile wire input: any malformed,
truncated, or type-confused payload raises
:class:`repro.errors.ProtocolError` (a :class:`ServeError`) — never a
bare ``KeyError``/``TypeError``/``AttributeError``/``OverflowError``
— so a transport adapter can map *every* decode failure to one error
response (fuzz-tested in ``tests/test_serve_protocol_fuzz.py``).
Decoders check JSON types instead of coercing them: a number is a
JSON int or float (never a bool or a string), an integer is a JSON
int, ``fast`` and ``touched`` are JSON bools and ``sensor_id`` a
non-empty string.  They also reject NaN and +/-Inf in every float field:
``json.loads`` accepts the ``NaN`` / ``Infinity`` literals, and a
non-finite phase would otherwise come back as an "ok" estimate.  A
sensor config must also name a carrier inside the band the sensor is
designed for (:data:`CARRIER_BAND_HZ`) and a non-negative touch
threshold; anything else would make the service calibrate (and cache)
a model for a frequency the sensor was never built for.

:class:`SensorConfig` doubles as the *model cache key*: two sensors
with equal configs share one calibrated :class:`SensorModel` and one
estimator, which is also what lets the scheduler coalesce their
requests into a single ``invert_batch`` call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.estimator import ForceLocationEstimate
from repro.errors import ProtocolError

#: Exception types a decoder converts into :class:`ProtocolError`
#: (``OverflowError``: ``int()`` of an infinite JSON number).
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError,
                  IndexError, OverflowError)

#: Carrier band [Hz] a :class:`SensorConfig` may name on the wire: the
#: 10 MHz - 3 GHz range the sensor is designed for and Fig. 10 sweeps.
CARRIER_BAND_HZ = (10e6, 3e9)


def _require_dict(payload, what: str) -> dict:
    """Gate every decoder on an actual dict payload."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"{what} payload must be a dict, got {type(payload).__name__}")
    return payload


def _finite(value, field: str) -> float:
    """A JSON int or float as a finite float (NaN and +/-Inf rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"{field} must be a number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ProtocolError(f"{field} must be finite, got {number!r}")
    return number


def wire_int(value, field: str) -> int:
    """A JSON int (a bool, float or string is a :class:`ProtocolError`)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"{field} must be an integer, got {type(value).__name__}")
    return value


def wire_id(value, field: str) -> str:
    """A stream identity: a non-empty JSON string (else a
    :class:`ProtocolError`)."""
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{field} must be a non-empty string")
    return value


def _decode_json(text, what: str) -> dict:
    """Parse JSON text for a decoder (typed failure on bad input)."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ProtocolError(
            f"{what} JSON must be text, got {type(text).__name__}")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class SensorConfig:
    """Calibration configuration shared by one or more sensors.

    Hashable on purpose: it keys the session manager's model cache and
    the scheduler's batch groups.

    Attributes:
        carrier_frequency: Calibration carrier [Hz].
        fast: Reduced-resolution contact map (tests / demos).
        touch_threshold_deg: No-contact classification threshold.
    """

    carrier_frequency: float = 900e6
    fast: bool = True
    touch_threshold_deg: float = 5.0

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "carrier_frequency": float(self.carrier_frequency),
            "fast": bool(self.fast),
            "touch_threshold_deg": float(self.touch_threshold_deg),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SensorConfig":
        """Inverse of :meth:`to_dict`; missing keys take defaults.

        Raises:
            ProtocolError: The payload is not a dict, a field is not
                its JSON type, a number is not finite, the carrier lies
                outside :data:`CARRIER_BAND_HZ`, or the touch
                threshold is negative.
        """
        payload = _require_dict(payload, "sensor config")
        defaults = cls()
        fast = payload.get("fast", defaults.fast)
        if not isinstance(fast, bool):
            raise ProtocolError(
                f"fast must be a JSON bool, got {type(fast).__name__}")
        try:
            config = cls(
                carrier_frequency=_finite(payload.get(
                    "carrier_frequency", defaults.carrier_frequency),
                    "carrier_frequency"),
                fast=fast,
                touch_threshold_deg=_finite(payload.get(
                    "touch_threshold_deg", defaults.touch_threshold_deg),
                    "touch_threshold_deg"),
            )
        except _DECODE_ERRORS as exc:
            raise ProtocolError(
                f"malformed sensor config: {exc}") from exc
        low, high = CARRIER_BAND_HZ
        if not low <= config.carrier_frequency <= high:
            raise ProtocolError(
                f"carrier_frequency must be in [{low:g}, {high:g}] Hz, "
                f"got {config.carrier_frequency!r}")
        if config.touch_threshold_deg < 0.0:
            raise ProtocolError(
                f"touch_threshold_deg must be >= 0, got "
                f"{config.touch_threshold_deg!r}")
        return config


@dataclass(frozen=True)
class EstimateRequest:
    """One phase sample from one sensor stream.

    Attributes:
        sensor_id: Stream identity (sessions are keyed on it).
        sequence: Monotone per-sensor sample counter.
        time: Sample timestamp [s] (the stream's clock).
        phi1 / phi2: Measured differential phases [rad].
        config: Sensor calibration config (model cache key).
        location_hint: Optional prior location [m].
    """

    sensor_id: str
    sequence: int
    time: float
    phi1: float
    phi2: float
    config: SensorConfig = SensorConfig()
    location_hint: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "sensor_id": str(self.sensor_id),
            "sequence": int(self.sequence),
            "time": float(self.time),
            "phi1": float(self.phi1),
            "phi2": float(self.phi2),
            "config": self.config.to_dict(),
            "location_hint": (None if self.location_hint is None
                              else float(self.location_hint)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EstimateRequest":
        """Inverse of :meth:`to_dict`.

        Raises:
            ProtocolError: The payload is not a dict, a required field
                is missing, a field is not its JSON type, or a number
                is not finite.
        """
        payload = _require_dict(payload, "estimate request")
        try:
            hint = payload.get("location_hint")
            return cls(
                sensor_id=wire_id(payload["sensor_id"], "sensor_id"),
                sequence=wire_int(payload["sequence"], "sequence"),
                time=_finite(payload["time"], "time"),
                phi1=_finite(payload["phi1"], "phi1"),
                phi2=_finite(payload["phi2"], "phi2"),
                config=SensorConfig.from_dict(payload.get("config", {})),
                location_hint=(None if hint is None
                               else _finite(hint, "location_hint")),
            )
        except ProtocolError:
            raise
        except _DECODE_ERRORS as exc:
            raise ProtocolError(
                f"malformed estimate request: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "EstimateRequest":
        """Decode one request from JSON text."""
        return cls.from_dict(_decode_json(text, "estimate request"))


@dataclass(frozen=True)
class EstimateResponse:
    """The service's answer to one :class:`EstimateRequest`.

    Attributes:
        sensor_id / sequence / time: Echoed request identity.
        estimate: The inverted (force, location) reading.
        batch_size: Size of the micro-batch this request rode in
            (1 on the per-request fallback).
        latency_s: Service-side latency from admission to result [s].
        quality: ``"ok"`` on the nominal path; ``"recovered"`` when
            the request only succeeded after backpressure retries,
            ``"degraded"`` when it rode a degraded path (the
            per-request fallback after a failed flush, or an injected
            stall), ``"quarantined"`` from the fifth non-ok result in
            a row until the next ok one.  The estimate itself is
            always real.
    """

    sensor_id: str
    sequence: int
    time: float
    estimate: ForceLocationEstimate
    batch_size: int = 1
    latency_s: float = 0.0
    quality: str = "ok"

    @property
    def force(self) -> float:
        """Estimated force [N]."""
        return self.estimate.force

    @property
    def location(self) -> float:
        """Estimated location [m]."""
        return self.estimate.location

    @property
    def touched(self) -> bool:
        """Contact classification."""
        return self.estimate.touched

    def to_dict(self) -> dict:
        """JSON-ready dict; the nested estimate uses its own codec."""
        return {
            "sensor_id": str(self.sensor_id),
            "sequence": int(self.sequence),
            "time": float(self.time),
            "estimate": self.estimate.to_dict(),
            "batch_size": int(self.batch_size),
            "latency_s": float(self.latency_s),
            "quality": str(self.quality),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EstimateResponse":
        """Inverse of :meth:`to_dict` (``quality`` defaults ``"ok"``).

        Checks JSON types the way the request decoders do: numbers are
        finite JSON numbers, ``sequence`` and ``batch_size`` JSON ints,
        ``touched`` a JSON bool and ``quality`` a string.

        Raises:
            ProtocolError: The payload is not a dict, a required field
                is missing, a field is not its JSON type, or a number
                is not finite.
        """
        payload = _require_dict(payload, "estimate response")
        try:
            estimate = _require_dict(payload["estimate"], "estimate")
            touched = estimate["touched"]
            if not isinstance(touched, bool):
                raise ProtocolError(
                    f"touched must be a JSON bool, got "
                    f"{type(touched).__name__}")
            quality = payload.get("quality", "ok")
            if not isinstance(quality, str):
                raise ProtocolError(
                    f"quality must be a string, got "
                    f"{type(quality).__name__}")
            return cls(
                sensor_id=wire_id(payload["sensor_id"], "sensor_id"),
                sequence=wire_int(payload["sequence"], "sequence"),
                time=_finite(payload["time"], "time"),
                estimate=ForceLocationEstimate(
                    force=_finite(estimate["force"], "force"),
                    location=_finite(estimate["location"], "location"),
                    residual=_finite(estimate["residual"], "residual"),
                    touched=touched),
                batch_size=wire_int(payload.get("batch_size", 1),
                                    "batch_size"),
                latency_s=_finite(payload.get("latency_s", 0.0),
                                  "latency_s"),
                quality=quality,
            )
        except ProtocolError:
            raise
        except _DECODE_ERRORS as exc:
            raise ProtocolError(
                f"malformed estimate response: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "EstimateResponse":
        """Decode one response from JSON text."""
        return cls.from_dict(_decode_json(text, "estimate response"))
