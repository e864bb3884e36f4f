"""Gateway framing fuzz: hostile bytes never crash the gateway.

Two layers, same contract as ``tests/test_serve_protocol_fuzz.py``:

* The pure parsers (:func:`repro.gateway.http.parse_request_head`,
  :func:`repro.gateway.websocket.parse_frame`, ...) either return
  their result or raise :class:`repro.errors.ProtocolError` — never a
  bare ``ValueError`` / ``IndexError`` / ``UnicodeDecodeError`` /
  ``OverflowError``.
* A live gateway fed raw hostile bytes — malformed request lines,
  truncated or unmasked or oversized WebSocket frames, mid-session
  garbage — answers with an error response or a clean close.  The
  ``gateway.internal_errors`` counter stays at zero (a nonzero count
  means an exception crossed the zero-crash boundary), and the server
  keeps serving new connections afterwards.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.gateway import (
    Gateway,
    GatewayLimits,
    TenantTable,
    WebSocketClient,
    http,
    websocket,
)
from repro.obs.registry import process_registry
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)
from tests.clients import estimate_over_ws

_DATA_OPCODES = st.sampled_from((websocket.OP_TEXT,
                                 websocket.OP_BINARY))
_CONTROL_OPCODES = st.sampled_from(sorted(websocket.CONTROL_OPCODES))

#: Header-safe ASCII tokens (no separators/control chars; the wire
#: renderer is latin-1 so the strategy stays inside ASCII).
_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1, max_size=12)


class TestPureHttpParsers:
    @settings(max_examples=150, deadline=None)
    @given(head=st.binary(max_size=200))
    def test_parse_request_head_is_total(self, head):
        try:
            method, target, headers = http.parse_request_head(head)
        except ProtocolError:
            return
        assert method in http.KNOWN_METHODS
        assert isinstance(headers, dict)

    @settings(max_examples=150, deadline=None)
    @given(head=st.binary(max_size=200))
    def test_parse_response_head_is_total(self, head):
        try:
            status, headers = http.parse_response_head(head)
        except ProtocolError:
            return
        assert 100 <= status <= 599

    @settings(max_examples=100, deadline=None)
    @given(value=st.text(max_size=16))
    def test_content_length_is_total(self, value):
        limits = GatewayLimits()
        try:
            length = http.content_length({"content-length": value},
                                         limits)
        except ProtocolError:
            return
        assert 0 <= length <= limits.max_body_bytes

    @settings(max_examples=100, deadline=None)
    @given(method=st.sampled_from(http.KNOWN_METHODS),
           path=_TOKEN, names=st.lists(_TOKEN, max_size=3,
                                       unique_by=str.lower),
           value=_TOKEN)
    def test_request_render_parse_roundtrip(self, method, path, names,
                                            value):
        headers = {name: value for name in names}
        wire = http.render_request(method, f"/{path}",
                                   headers=headers)
        parsed_method, target, parsed = http.parse_request_head(wire)
        assert parsed_method == method
        assert target == f"/{path}"
        for name in names:
            assert parsed[name.lower()] == value


class TestPureFrameParser:
    @settings(max_examples=200, deadline=None)
    @given(buffer=st.binary(max_size=80),
           cap=st.integers(min_value=1, max_value=1 << 20))
    def test_parse_frame_is_total(self, buffer, cap):
        try:
            parsed = websocket.parse_frame(buffer, cap)
        except ProtocolError:
            return
        if parsed is not None:
            frame, consumed = parsed
            assert 2 <= consumed <= len(buffer)
            assert len(frame.payload) <= cap

    @settings(max_examples=150, deadline=None)
    @given(opcode=_DATA_OPCODES,
           payload=st.binary(max_size=300),
           masked=st.booleans(),
           key=st.binary(min_size=4, max_size=4))
    def test_encode_parse_roundtrip(self, opcode, payload, masked,
                                    key):
        wire = websocket.encode_frame(
            opcode, payload, mask_key=key if masked else None)
        frame, consumed = websocket.parse_frame(wire)
        assert consumed == len(wire)
        assert frame.opcode == opcode
        assert frame.payload == payload
        assert frame.masked is masked
        assert frame.fin

    @settings(max_examples=100, deadline=None)
    @given(opcode=_DATA_OPCODES, payload=st.binary(max_size=200),
           data=st.data())
    def test_prefix_of_valid_frame_parses_to_none(self, opcode,
                                                  payload, data):
        """Truncation is "read more", never an error or a bad frame."""
        wire = websocket.encode_frame(opcode, payload,
                                      mask_key=b"\x01\x02\x03\x04")
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(wire) - 1))
        assert websocket.parse_frame(wire[:cut]) is None

    @settings(max_examples=50, deadline=None)
    @given(opcode=_CONTROL_OPCODES,
           payload=st.binary(min_size=126, max_size=200))
    def test_oversized_control_frames_rejected(self, opcode, payload):
        with pytest.raises(ProtocolError):
            websocket.encode_frame(opcode, payload)
        # Hand-build the illegal frame the encoder refuses to make.
        wire = bytes([0x80 | opcode, 126]) \
            + len(payload).to_bytes(2, "big") + payload
        with pytest.raises(ProtocolError):
            websocket.parse_frame(wire)

    def test_declared_oversize_rejected_before_payload(self):
        head = bytes([0x80 | websocket.OP_TEXT, 127]) \
            + (1 << 40).to_bytes(8, "big")
        with pytest.raises(ProtocolError):
            websocket.parse_frame(head, max_payload=1 << 20)


def _gateway(model):
    service = InferenceService(
        policy=BatchPolicy(max_batch=8, max_delay_s=0.001),
        model_factory=lambda config: model)
    return Gateway(service, tenants=TenantTable(allow_anonymous=True))


async def _slam(host, port, payload, timeout=5.0):
    """Write raw bytes, half-close, read everything the server says."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()
        return await asyncio.wait_for(reader.read(1 << 16), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


def _assert_zero_crash():
    counters = process_registry().snapshot()["counters"]
    assert "gateway.internal_errors" not in counters, counters


async def _still_serves(host, port, model_900):
    client = await WebSocketClient.connect(host, port)
    reply, _ = await estimate_over_ws(client, EstimateRequest(
        sensor_id="after-fuzz", sequence=0, time=0.0, phi1=0.5,
        phi2=0.4, config=SensorConfig()).to_dict())
    await client.close()
    assert reply["type"] == "estimate"


class TestHostileSockets:
    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=400))
    def test_http_garbage_never_crashes(self, payload, model_900):
        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                answer = await _slam(host, port, payload)
                _assert_zero_crash()
                if answer:
                    # Any answer is a well-formed HTTP error.
                    assert answer.startswith(b"HTTP/1.1 4")

        asyncio.run(scenario())

    @settings(max_examples=20, deadline=None)
    @given(line=st.text(max_size=60).map(
        lambda s: s.replace("\r", "").replace("\n", "")))
    def test_malformed_request_lines_answer_400(self, line, model_900):
        payload = (line + "\r\n\r\n").encode("utf-8", "replace")

        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                answer = await _slam(host, port, payload)
                _assert_zero_crash()
                if answer:
                    assert answer.startswith(b"HTTP/1.1 4")

        asyncio.run(scenario())

    @settings(max_examples=20, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=200))
    def test_mid_session_ws_garbage_closes_cleanly(self, garbage,
                                                   model_900):
        """Valid handshake, then junk: close (often 1002), no crash."""

        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(host, port)
                client._writer.write(garbage)
                await client._writer.drain()
                # Nudge with a valid masked close so a junk prefix
                # that happens to parse as an incomplete frame still
                # terminates the read loop.
                try:
                    await client.close(timeout=2.0)
                except (ConnectionError, ProtocolError):
                    pass
                _assert_zero_crash()
                await _still_serves(host, port, model_900)

        asyncio.run(scenario())

    @settings(max_examples=10, deadline=None)
    @given(payload=st.binary(max_size=60))
    def test_unmasked_client_frames_are_rejected(self, payload,
                                                 model_900):
        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(host, port)
                # RFC violation: a client frame without a mask.
                client._writer.write(websocket.encode_frame(
                    websocket.OP_TEXT, payload))
                await client._writer.drain()
                closed = False
                try:
                    while True:
                        frame = await asyncio.wait_for(
                            client._recv_frame(), 5.0)
                        if frame.opcode == websocket.OP_CLOSE:
                            code, _ = websocket.parse_close(
                                frame.payload)
                            assert code \
                                == websocket.CLOSE_PROTOCOL_ERROR
                            closed = True
                            break
                except Exception:  # noqa: BLE001 - EOF variants ok
                    pass
                else:
                    assert closed
                _assert_zero_crash()
                await _still_serves(host, port, model_900)

        asyncio.run(scenario())

    def test_oversized_ws_frame_is_refused_without_reading_it(
            self, model_900):
        """A hostile length prefix cannot balloon server memory."""

        async def scenario():
            service = InferenceService(
                model_factory=lambda config: model_900)
            gateway = Gateway(
                service, tenants=TenantTable(allow_anonymous=True),
                limits=GatewayLimits(max_ws_payload=1024))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(host, port)
                # Declare 1 GiB; send only the header.
                head = bytes([0x80 | websocket.OP_TEXT, 0x80 | 127]) \
                    + (1 << 30).to_bytes(8, "big") + os.urandom(4)
                client._writer.write(head)
                await client._writer.drain()
                frame = await asyncio.wait_for(client._recv_frame(),
                                               5.0)
                assert frame.opcode == websocket.OP_CLOSE
                code, _ = websocket.parse_close(frame.payload)
                assert code == websocket.CLOSE_PROTOCOL_ERROR
                _assert_zero_crash()

        asyncio.run(scenario())

    def test_truncated_http_body_answers_400(self, model_900):
        payload = (b"POST /v1/estimate HTTP/1.1\r\n"
                   b"content-length: 50\r\n\r\nshort")

        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                answer = await _slam(host, port, payload)
                _assert_zero_crash()
                assert answer.startswith(b"HTTP/1.1 400")

        asyncio.run(scenario())

    def test_oversized_body_is_refused_by_declared_length(
            self, model_900):
        payload = (b"POST /v1/estimate HTTP/1.1\r\n"
                   b"content-length: 999999999\r\n\r\n")

        async def scenario():
            async with _gateway(model_900) as gateway:
                host, port = gateway.address
                answer = await _slam(host, port, payload)
                _assert_zero_crash()
                assert answer.startswith(b"HTTP/1.1 400")

        asyncio.run(scenario())
