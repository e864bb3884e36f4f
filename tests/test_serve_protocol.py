"""JSON round-trips for the serve wire types; plain-scalar core dicts."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.estimator import ForceLocationEstimate
from repro.core.tracking import TouchEvent
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    EstimateRequest,
    EstimateResponse,
    SensorConfig,
)


class TestCoreSerialization:
    def test_dicts_are_plain_scalars(self):
        import numpy as np

        estimate = ForceLocationEstimate(
            force=np.float64(1.0), location=np.float64(0.02),
            residual=np.float64(0.0), touched=np.bool_(True))
        event = TouchEvent(onset=np.float64(0.1), release=np.float64(0.4),
                           peak_force=np.float64(5.5),
                           mean_location=np.float64(0.033))
        for payload in (estimate.to_dict(), event.to_dict()):
            assert all(type(value) in (float, bool)
                       for value in payload.values())
            json.dumps(payload)  # must not raise


#: Config numbers a JSON decoder accepts but the protocol must not:
#: non-finite values, carriers outside the 10 MHz - 3 GHz design band
#: and a negative touch threshold.
_BAD_CONFIG_NUMBERS = [
    pytest.param(field, value, id=f"{value}-{field}")
    for field in ("carrier_frequency", "touch_threshold_deg")
    for value in (math.nan, math.inf, -math.inf)
] + [
    pytest.param("carrier_frequency", -5.0, id="-5-carrier_frequency"),
    pytest.param("carrier_frequency", 1e30, id="1e30-carrier_frequency"),
    pytest.param("touch_threshold_deg", -1.0,
                 id="-1-touch_threshold_deg"),
]


#: Config values a coercing decoder would accept but the protocol must
#: not: ``fast`` is a JSON bool, and every number is a JSON int or
#: float, never a bool or a string.
_TYPE_CONFUSED_CONFIG = [
    pytest.param(field, value, id=f"{value!r}-{field}")
    for field, value in (("fast", "false"), ("fast", None), ("fast", 0),
                         ("carrier_frequency", "9e8"),
                         ("touch_threshold_deg", True),
                         ("touch_threshold_deg", "5"))
]

#: Request values a coercing decoder would accept but the protocol
#: must not: ``sensor_id`` is a non-empty string, ``sequence`` an int
#: that is not a bool, and every other number an int or float.
_TYPE_CONFUSED_REQUEST = [
    pytest.param(field, value, id=f"{value!r}-{field}")
    for field, value in (("sensor_id", None), ("sensor_id", ""),
                         ("sensor_id", 7), ("sequence", 1.9),
                         ("sequence", True), ("sequence", "3"),
                         ("time", True), ("phi1", True),
                         ("phi2", "0.2"), ("location_hint", True),
                         ("location_hint", "0.04"))
]

#: Response values a coercing decoder would accept but the protocol
#: must not; ``estimate.<name>`` replaces a field of the nested
#: estimate.  The ``NaN`` / ``Infinity`` literals ``json.loads``
#: accepts are refused in every number.
_TYPE_CONFUSED_RESPONSE = [
    pytest.param(field, value, id=f"{value!r}-{field}")
    for field, value in (("sensor_id", 7), ("sensor_id", ""),
                         ("sequence", True), ("sequence", "3"),
                         ("sequence", 1.0), ("time", "0.1"),
                         ("time", math.nan), ("batch_size", True),
                         ("batch_size", 2.0), ("latency_s", math.inf),
                         ("latency_s", False), ("quality", 1),
                         ("estimate.touched", "false"),
                         ("estimate.touched", 1),
                         ("estimate.force", math.nan),
                         ("estimate.force", "2.0"),
                         ("estimate.location", -math.inf),
                         ("estimate.location", True),
                         ("estimate.residual", math.inf),
                         ("estimate.residual", None))
]


class TestSensorConfig:
    def test_roundtrip(self):
        config = SensorConfig(carrier_frequency=2.4e9, fast=False,
                              touch_threshold_deg=8.0)
        assert SensorConfig.from_dict(config.to_dict()) == config

    def test_defaults_fill_missing_keys(self):
        assert SensorConfig.from_dict({}) == SensorConfig()
        partial = SensorConfig.from_dict({"carrier_frequency": 2.4e9})
        assert partial.carrier_frequency == 2.4e9
        assert partial.fast == SensorConfig().fast

    def test_hashable_cache_key(self):
        a = SensorConfig(carrier_frequency=900e6)
        b = SensorConfig(carrier_frequency=900e6)
        assert len({a, b}) == 1

    def test_unknown_keys_are_ignored(self):
        payload = dict(SensorConfig().to_dict(), backend="learned")
        assert SensorConfig.from_dict(payload) == SensorConfig()

    @pytest.mark.parametrize("field, value", _BAD_CONFIG_NUMBERS)
    def test_non_finite_number_is_a_protocol_error(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            SensorConfig.from_dict({field: value})

    @pytest.mark.parametrize("field, value", _TYPE_CONFUSED_CONFIG)
    def test_type_confused_field_is_a_protocol_error(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            SensorConfig.from_dict({field: value})
        request = dict(EstimateRequest(sensor_id="s", sequence=1, time=0.1,
                                       phi1=0.4, phi2=-0.2).to_dict(),
                       config={field: value})
        with pytest.raises(ProtocolError, match=field):
            EstimateRequest.from_dict(request)

    @pytest.mark.parametrize("payload", [
        pytest.param({"carrier_frequency": 10e6}, id="10MHz"),
        pytest.param({"carrier_frequency": 3e9}, id="3GHz"),
        pytest.param({"touch_threshold_deg": 0.0}, id="zero-threshold")])
    def test_band_edges_are_accepted(self, payload):
        config = SensorConfig.from_dict(payload)
        assert config.to_dict() == dict(SensorConfig().to_dict(),
                                        **payload)


class TestEstimateRequest:
    def test_json_roundtrip_with_hint(self):
        request = EstimateRequest(sensor_id="s-1", sequence=12,
                                  time=0.12, phi1=0.4, phi2=-0.2,
                                  location_hint=0.04)
        assert EstimateRequest.from_json(json.dumps(request.to_dict())) == request

    def test_json_roundtrip_without_hint(self):
        request = EstimateRequest(sensor_id="s-2", sequence=0,
                                  time=0.0, phi1=0.0, phi2=0.0)
        restored = EstimateRequest.from_json(json.dumps(request.to_dict()))
        assert restored == request
        assert restored.location_hint is None

    def test_malformed_raises_serve_error(self):
        with pytest.raises(ServeError):
            EstimateRequest.from_dict({"sensor_id": "x"})

    @pytest.mark.parametrize("field", ["time", "phi1", "phi2",
                                       "location_hint"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_is_a_protocol_error(self, field, value):
        payload = EstimateRequest(sensor_id="s", sequence=1, time=0.1,
                                  phi1=0.4, phi2=-0.2,
                                  location_hint=0.04).to_dict()
        payload[field] = value
        with pytest.raises(ProtocolError, match=field):
            EstimateRequest.from_dict(payload)

    @pytest.mark.parametrize("field, value", _TYPE_CONFUSED_REQUEST)
    def test_type_confused_field_is_a_protocol_error(self, field, value):
        payload = EstimateRequest(sensor_id="s", sequence=1, time=0.1,
                                  phi1=0.4, phi2=-0.2,
                                  location_hint=0.04).to_dict()
        payload[field] = value
        with pytest.raises(ProtocolError, match=field):
            EstimateRequest.from_dict(payload)


class TestEstimateResponse:
    def test_json_roundtrip(self):
        response = EstimateResponse(
            sensor_id="s-1", sequence=3, time=0.03,
            estimate=ForceLocationEstimate(force=1.5, location=0.025,
                                           residual=0.01, touched=True),
            batch_size=16, latency_s=0.0021)
        assert EstimateResponse.from_json(json.dumps(response.to_dict())) == response

    def test_convenience_properties(self):
        response = EstimateResponse(
            sensor_id="s", sequence=0, time=0.0,
            estimate=ForceLocationEstimate(force=2.0, location=0.05,
                                           residual=0.0, touched=True))
        assert response.force == 2.0
        assert response.location == 0.05
        assert response.touched is True

    def test_malformed_raises_serve_error(self):
        with pytest.raises(ServeError):
            EstimateResponse.from_dict({"sensor_id": "x", "sequence": 1})

    @pytest.mark.parametrize("field, value", _TYPE_CONFUSED_RESPONSE)
    def test_type_confused_field_is_a_protocol_error(self, field, value):
        """Checked through JSON text, as a client decodes a reply."""
        payload = EstimateResponse(
            sensor_id="s", sequence=1, time=0.1,
            estimate=ForceLocationEstimate(force=2.0, location=0.05,
                                           residual=0.01, touched=True),
            batch_size=4, latency_s=0.002).to_dict()
        outer, _, inner = field.rpartition(".")
        (payload[outer] if outer else payload)[inner] = value
        with pytest.raises(ProtocolError, match=inner):
            EstimateResponse.from_json(json.dumps(payload))
