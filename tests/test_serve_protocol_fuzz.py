"""Protocol decoder fuzzing: hostile wire input never leaks raw errors.

The transport contract (see ``repro.serve.protocol``) is that every
``from_dict`` / ``from_json`` decoder either returns its dataclass or
raises :class:`repro.errors.ProtocolError` — a malformed, truncated,
or type-confused payload must never surface a bare ``KeyError`` /
``TypeError`` / ``AttributeError`` that would crash a transport
adapter.  Hypothesis drives three payload shapes at each decoder:
arbitrary JSON-like junk, valid payloads with one field replaced by
junk, and valid payloads with one key deleted.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import ForceLocationEstimate
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    EstimateRequest,
    EstimateResponse,
    SensorConfig,
)

#: Arbitrary JSON-like values (what a hostile client can actually send).
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=8,
)

_VALID_REQUEST = EstimateRequest(
    sensor_id="s-0", sequence=3, time=0.25, phi1=0.5, phi2=0.4,
    config=SensorConfig(), location_hint=0.03).to_dict()

_VALID_RESPONSE = EstimateResponse(
    sensor_id="s-0", sequence=3, time=0.25,
    estimate=ForceLocationEstimate(force=2.0, location=0.03,
                                   residual=0.01, touched=True),
    batch_size=4, latency_s=0.002, quality="recovered").to_dict()

_DECODERS = [
    pytest.param(SensorConfig.from_dict, SensorConfig,
                 SensorConfig().to_dict(), id="config"),
    pytest.param(EstimateRequest.from_dict, EstimateRequest,
                 _VALID_REQUEST, id="request"),
    pytest.param(EstimateResponse.from_dict, EstimateResponse,
                 _VALID_RESPONSE, id="response"),
]


def _decode_or_protocol_error(decoder, expected_type, payload):
    """The whole contract in one helper."""
    try:
        decoded = decoder(payload)
    except ProtocolError:
        return None
    assert isinstance(decoded, expected_type)
    return decoded


class TestFromDictFuzz:
    @pytest.mark.parametrize("decoder,expected_type,valid", _DECODERS)
    @settings(max_examples=150, deadline=None)
    @given(payload=_JUNK)
    def test_arbitrary_junk(self, decoder, expected_type, valid,
                            payload):
        _decode_or_protocol_error(decoder, expected_type, payload)

    @pytest.mark.parametrize("decoder,expected_type,valid", _DECODERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_type_confused_field(self, decoder, expected_type, valid,
                                 data):
        if not valid:
            pytest.skip("no required fields to confuse")
        payload = dict(valid)
        key = data.draw(st.sampled_from(sorted(payload)))
        payload[key] = data.draw(_JUNK)
        _decode_or_protocol_error(decoder, expected_type, payload)

    @pytest.mark.parametrize("decoder,expected_type,valid", _DECODERS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_truncated_payload(self, decoder, expected_type, valid,
                               data):
        if not valid:
            pytest.skip("every field has a default")
        payload = dict(valid)
        drop = data.draw(st.sets(st.sampled_from(sorted(payload)),
                                 min_size=1))
        for key in drop:
            payload.pop(key)
        _decode_or_protocol_error(decoder, expected_type, payload)


class TestFromJsonFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=64))
    def test_arbitrary_text(self, text):
        for decoder, expected_type in ((EstimateRequest.from_json,
                                        EstimateRequest),
                                       (EstimateResponse.from_json,
                                        EstimateResponse)):
            _decode_or_protocol_error(decoder, expected_type, text)

    @pytest.mark.parametrize("payload", [None, 42, b"\xff\xfe", [],
                                         object()])
    def test_non_text_json_is_typed(self, payload):
        with pytest.raises(ProtocolError):
            EstimateRequest.from_json(payload)


class TestContractDetails:
    def test_protocol_error_is_a_serve_error(self):
        assert issubclass(ProtocolError, ServeError)

    def test_valid_payloads_still_decode(self):
        request = EstimateRequest.from_dict(_VALID_REQUEST)
        assert request.to_dict() == _VALID_REQUEST
        response = EstimateResponse.from_dict(_VALID_RESPONSE)
        assert response.to_dict() == _VALID_RESPONSE
        assert response.quality == "recovered"

    @pytest.mark.parametrize("decoder,valid,field", [
        pytest.param(EstimateRequest.from_dict, _VALID_REQUEST,
                     "sequence", id="request-sequence"),
        pytest.param(EstimateResponse.from_dict, _VALID_RESPONSE,
                     "sequence", id="response-sequence"),
        pytest.param(EstimateResponse.from_dict, _VALID_RESPONSE,
                     "batch_size", id="response-batch_size"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_integer_field_is_a_protocol_error(self, decoder,
                                                        valid, field,
                                                        value):
        """``int(inf)`` raises ``OverflowError``, not ``ValueError``;
        JSON ``1e999`` decodes to exactly this float."""
        with pytest.raises(ProtocolError):
            decoder(dict(valid, **{field: value}))

    def test_quality_defaults_ok_on_old_payloads(self):
        payload = dict(_VALID_RESPONSE)
        del payload["quality"]
        assert EstimateResponse.from_dict(payload).quality == "ok"
