"""Minimal asyncio client for the gateway (chaos campaign + tests).

:class:`WebSocketClient` is the streaming session, stdlib-only: RFC
6455 handshake, masked client frames, JSON message send/receive with
transparent ping/pong handling.

It is a deliberately *honest* client — it masks frames, validates
the accept key, and speaks well-formed HTTP — because the hostile-peer
side of the contract is exercised by the fuzz suite with raw sockets
instead.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
from typing import Dict, Optional

from repro.errors import GatewayError, ProtocolError
from repro.gateway import http, websocket
from repro.gateway.http import GatewayLimits, HttpResponse


class HandshakeRejected(GatewayError):
    """The server answered the upgrade with a normal HTTP response.

    Carries the response so callers can distinguish 401 (bad token)
    from 429 (connection quota) without string matching.
    """

    def __init__(self, response: HttpResponse):
        super().__init__(
            f"WebSocket handshake rejected with {response.status}")
        self.response = response


def _auth_headers(token: Optional[str]) -> Dict[str, str]:
    headers = {}
    if token:
        headers["authorization"] = f"Bearer {token}"
    return headers


class ConnectionClosed(GatewayError):
    """The server closed the WebSocket (carries the close code)."""

    def __init__(self, code: int, reason: str = ""):
        super().__init__(
            f"WebSocket closed by peer (code {code}"
            + (f": {reason}" if reason else "") + ")")
        self.code = code
        self.reason = reason


class WebSocketClient:
    """One streaming session against ``GET /v1/stream``.

    Use :meth:`connect` to build one; :meth:`send_json` /
    :meth:`recv_json` speak the gateway's JSON message envelopes.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 limits: GatewayLimits):
        self._reader = reader
        self._writer = writer
        self._limits = limits
        self._buffer = bytearray()
        self._closed = False
        self.close_code: Optional[int] = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      path: str = "/v1/stream",
                      token: Optional[str] = None,
                      limits: Optional[GatewayLimits] = None,
                      timeout: float = 30.0) -> "WebSocketClient":
        """Open a connection and perform the upgrade handshake.

        Raises:
            HandshakeRejected: The server answered with a non-101
                response (401 bad token, 429 quota, ...).
            ProtocolError: The 101 response was malformed (bad accept
                key, missing upgrade headers).
        """
        limits = limits if limits is not None else GatewayLimits()
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        headers = _auth_headers(token)
        headers.update({
            "host": f"{host}:{port}",
            "upgrade": "websocket",
            "connection": "Upgrade",
            "sec-websocket-key": key,
            "sec-websocket-version": "13",
        })
        writer.write(http.render_request("GET", path, headers=headers))
        await writer.drain()
        try:
            response = await asyncio.wait_for(
                http.read_response(reader, limits), timeout)
        except (Exception, asyncio.CancelledError):
            writer.close()
            raise
        if response.status != 101:
            writer.close()
            raise HandshakeRejected(response)
        expected = websocket.accept_key(key)
        if response.headers.get("sec-websocket-accept") != expected:
            writer.close()
            raise ProtocolError("server sent a bad accept key")
        return cls(reader, writer, limits)

    async def send_frame(self, opcode: int, payload: bytes) -> None:
        """Send one masked frame (clients must mask per RFC 6455)."""
        self._writer.write(websocket.encode_frame(
            opcode, payload, mask_key=os.urandom(4)))
        await self._writer.drain()

    async def send_json(self, payload: dict) -> None:
        """Send one JSON text message.

        Raises:
            ValueError: ``payload`` holds a NaN or an infinity, which
                strict JSON cannot carry.
        """
        await self.send_frame(
            websocket.OP_TEXT,
            json.dumps(payload, sort_keys=True,
                       allow_nan=False).encode("utf-8"))

    async def _recv_frame(self) -> websocket.Frame:
        while True:
            parsed = websocket.parse_frame(
                bytes(self._buffer), self._limits.max_ws_payload)
            if parsed is not None:
                frame, consumed = parsed
                del self._buffer[:consumed]
                return frame
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                raise ConnectionClosed(1006, "connection lost")
            self._buffer += chunk

    async def recv_json(self, timeout: float = 30.0) -> dict:
        """Receive the next JSON message (pings answered inline).

        Raises:
            ConnectionClosed: The server sent a close frame (or the
                TCP stream ended).
            ProtocolError: The server sent a malformed frame or
                non-JSON text.
        """

        async def _next() -> dict:
            while True:
                frame = await self._recv_frame()
                if frame.opcode == websocket.OP_PING:
                    await self.send_frame(websocket.OP_PONG,
                                          frame.payload)
                    continue
                if frame.opcode == websocket.OP_PONG:
                    continue
                if frame.opcode == websocket.OP_CLOSE:
                    code, reason = websocket.parse_close(frame.payload)
                    self.close_code = code
                    raise ConnectionClosed(code, reason)
                if frame.opcode != websocket.OP_TEXT:
                    raise ProtocolError(
                        f"unexpected opcode 0x{frame.opcode:x} from "
                        "server")
                try:
                    payload = json.loads(frame.text())
                except ValueError as exc:
                    raise ProtocolError(
                        f"server sent invalid JSON: {exc}") from exc
                if not isinstance(payload, dict):
                    raise ProtocolError(
                        "server message must be a JSON object")
                return payload

        return await asyncio.wait_for(_next(), timeout)

    async def close(self, code: int = websocket.CLOSE_NORMAL,
                    timeout: float = 5.0) -> None:
        """Send a close frame and tear the connection down."""
        if self._closed:
            return
        self._closed = True
        try:
            await self.send_frame(websocket.OP_CLOSE,
                                  websocket.close_payload(code))
            # Wait (briefly) for the close echo so the server sees a
            # clean shutdown rather than an abort.
            deadline_reached = False
            try:
                while not deadline_reached:
                    frame = await asyncio.wait_for(
                        self._recv_frame(), timeout)
                    if frame.opcode == websocket.OP_CLOSE:
                        break
            except (asyncio.TimeoutError, ConnectionClosed,
                    ProtocolError):
                pass
        except (ConnectionError, RuntimeError, ConnectionClosed):
            pass
        finally:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
