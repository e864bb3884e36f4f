"""The network-facing gateway: sockets in, wire protocol out.

:class:`Gateway` is an ``asyncio.start_server`` front end over the
in-process :class:`repro.serve.service.InferenceService`.  Routes:

* ``POST /v1/estimate`` — one :class:`EstimateRequest` JSON body in,
  one :class:`EstimateResponse` JSON body out; a press the reading
  releases is pushed to the sensor's subscribers, as over the stream.
* ``GET /v1/stream`` — WebSocket upgrade to the streaming session:
  JSON text messages ``{"type": "estimate", "request": {...}}`` are
  answered with ``{"type": "estimate", "response": {...}}``, and
  ``{"type": "subscribe", "sensor_id": ...}`` opens a per-sensor
  touch-event subscription that pushes
  ``{"type": "touch_event", ...}`` messages as presses complete.
* ``GET /v1/touch_events?sensor_id=...`` — every touch event since
  the session opened, the press still held included.
* ``GET /healthz`` / ``GET /metrics`` — liveness and the process
  registry in Prometheus text format (unauthenticated; everything
  else requires a tenant credential).

Failure taxonomy, by construction: a malformed payload is a
:class:`ProtocolError` and answers 400 (HTTP) or an ``"error"``
envelope / close code 1002 (WebSocket); a missing or unknown
credential answers 401; an exhausted tenant quota or scheduler
backpressure answers 429 with ``quality="rejected"``.  No client
input path raises anything else — the fuzz suite
(``tests/test_gateway_fuzz.py``) drives hostile bytes at every layer
and asserts the connection is the only casualty.

Touch-event streaming contract: an event is pushed once it is
*closed* — the sensor's latest served sample is untouched, so the
event's onset/release/peak are final.  A session keeps only the press
still held plus one record per released press; each subscription
keeps a cursor into those records, so a push reads only the presses
released since the last one.  A still-open press is withheld until
the release sample arrives, which makes the pushed stream
bit-identical to a post-hoc ``touch_events`` query over the same
samples.  When eviction drops a sensor's session and a later request
reopens it, the new session's events are pushed from index 0 again.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import (
    AuthError,
    ProtocolError,
    QueueFullError,
    ServeError,
)
from repro.gateway import http, websocket
from repro.gateway.auth import Tenant, TenantTable
from repro.gateway.http import GatewayLimits, HttpRequest
from repro.obs import trace
from repro.obs.recorder import flight_recorder
from repro.obs.registry import process_registry
from repro.obs.slo import SloMonitor, default_slos
from repro.serve.protocol import EstimateRequest, wire_id, wire_int
from repro.serve.service import InferenceService
from repro.serve.session import SensorSession

logger = logging.getLogger(__name__)

#: Read chunk size for the WebSocket frame loop.
_WS_CHUNK = 1 << 16

#: Bound on waiting for in-flight estimate tasks at connection close.
_DRAIN_TIMEOUT_S = 5.0

#: Distinct sensors one WebSocket connection may subscribe to (the
#: ``repro gateway`` default session cap); a subscribe beyond it is
#: answered with a ``"protocol"`` error and the connection kept.
MAX_SUBSCRIPTIONS = 1024


@dataclass
class _Subscription:
    """One sensor subscription on one connection.

    ``cursor`` counts the release records already read, and
    ``emitted`` the events already pushed, from the session that
    ``counted`` refers to; the reference is weak, so an evicted session
    is freed rather than held by its subscribers.
    """

    min_groups: int = 1
    emitted: int = 0
    cursor: int = 0
    counted: Optional["weakref.ReferenceType[SensorSession]"] = None


class _WsConnection:
    """Per-connection WebSocket state (write lock, subs, tasks)."""

    def __init__(self, writer: asyncio.StreamWriter, tenant: Tenant):
        self.writer = writer
        self.tenant = tenant
        self.lock = asyncio.Lock()
        self.subscriptions: Dict[str, _Subscription] = {}
        self.tasks: Set["asyncio.Task"] = set()
        self.closing = False
        self.closed = False

    async def send_frame(self, opcode: int, payload: bytes) -> None:
        """Write one frame under the connection's write lock."""
        async with self.lock:
            if self.closed:
                return
            self.writer.write(websocket.encode_frame(opcode, payload))
            try:
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True

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

    def spawn(self, coro) -> None:
        """Track a per-message task until it finishes."""
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)


class Gateway:
    """Asyncio HTTP/WebSocket gateway over one inference service.

    Args:
        service: The inference service to expose.
        tenants: Auth table; default allows anonymous access (demo /
            loopback use).
        host / port: Bind address; port 0 picks an ephemeral port
            (reported by :meth:`start`).
        limits: Input caps (head/body/frame sizes, connection count).
    """

    def __init__(self, service: InferenceService,
                 tenants: Optional[TenantTable] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 limits: Optional[GatewayLimits] = None):
        self.service = service
        self.tenants = (tenants if tenants is not None
                        else TenantTable(allow_anonymous=True))
        self.limits = limits if limits is not None else GatewayLimits()
        self.host = host
        self.port = port
        self.slo_monitor = SloMonitor(default_slos())
        self._server: Optional[asyncio.AbstractServer] = None
        self._open = 0
        #: The handler task and writer of every connection still open.
        self._connections: Dict["asyncio.Task",
                                asyncio.StreamWriter] = {}
        self._subscribers: Dict[str, Set[_WsConnection]] = {}
        #: Flight-recorder dumps still being written in worker threads.
        self._dumps: Set["asyncio.Task"] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self.host, self.port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=max(1 << 16, self.limits.max_head_bytes + 1024))
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        logger.info("gateway listening on %s:%d", self.host, self.port)
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close every open connection, wait for their
        handlers and any flight-recorder dump still being written to
        finish, then close the listening socket.

        A connection left open would stall the stop on Python 3.12.1+,
        whose ``Server.wait_closed`` waits for every connection to
        drop, and a handler still running when the event loop ends is
        cancelled, which the loop reports as an error.
        """
        if self._server is None:
            return
        self._server.close()
        while self._connections:
            handlers = set(self._connections)
            for writer in self._connections.values():
                writer.close()
            await asyncio.wait(handlers)
        while self._dumps:
            await asyncio.wait(set(self._dumps))
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    @staticmethod
    def _count(name: str) -> None:
        process_registry().counter(name).increment()

    def _internal_error(self, where: str) -> None:
        """The zero-crash boundary tripped: count it and dump the
        flight recorder so the events leading up to it survive.  The
        ring is taken here, so the dump ends at this event, and written
        in a worker thread, so no connection waits on the disk."""
        self._count("gateway.internal_errors")
        recorder = flight_recorder()
        recorder.note("gateway.internal_errors", where=where)
        write = recorder.capture("gateway.internal_errors")
        if write is not None:
            task = asyncio.ensure_future(asyncio.to_thread(write))
            self._dumps.add(task)
            task.add_done_callback(self._dump_written)

    def _dump_written(self, task: "asyncio.Task") -> None:
        """Retire a finished dump; log a failure other than the write's
        own (which warns and returns ``None``)."""
        self._dumps.discard(task)
        if not task.cancelled() and task.exception() is not None:
            logger.error("flight-recorder dump failed",
                         exc_info=task.exception())

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 payload: dict, context: trace.TraceContext,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False) -> None:
        """One JSON response, always echoing ``X-Repro-Trace-Id``."""
        merged = {"x-repro-trace-id": context.trace_id}
        if headers:
            merged.update(headers)
        writer.write(http.json_response(status, payload,
                                        headers=merged, close=close))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One TCP connection: HTTP request loop, maybe WS upgrade."""
        handler = asyncio.current_task()
        self._connections[handler] = writer
        handler.add_done_callback(self._connections.pop)
        if self._open >= self.limits.max_connections:
            self._count("gateway.connections_refused")
            self._respond(
                writer, 503,
                {"error": "gateway connection limit reached"},
                trace.request_context(), close=True)
            await self._close_writer(writer)
            return
        self._open += 1
        self._count("gateway.connections")
        process_registry().gauge("gateway.open_connections").set(self._open)
        try:
            await self._request_loop(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # peer went away; nothing to answer
        except Exception:  # noqa: BLE001 - the zero-crash boundary
            self._internal_error("connection")
            logger.exception("unhandled error on gateway connection")
        finally:
            self._open -= 1
            process_registry().gauge("gateway.open_connections").set(
                self._open)
            await self._close_writer(writer)

    async def _request_loop(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Serve HTTP requests until EOF, upgrade, or a framing error."""
        while True:
            try:
                request = await http.read_request(reader, self.limits)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                self._respond(writer, 400, {"error": str(exc)},
                              trace.request_context(), close=True)
                await self._drain(writer)
                return
            if request is None:
                return
            keep_alive = await self._dispatch(request, reader, writer)
            if not keep_alive:
                return

    async def _dispatch(self, request: HttpRequest,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection.

        Every request gets a :class:`repro.obs.trace.TraceContext` —
        continuing the caller's trace when a valid ``traceparent``
        header arrived, starting a fresh root otherwise — and every
        response echoes its trace ID in ``X-Repro-Trace-Id``.
        """
        self._count("gateway.http_requests")
        path = request.path
        wants_close = request.header("connection").lower() == "close"
        remote = trace.parse_traceparent(
            request.header("traceparent") or None)
        context = trace.request_context(remote)
        with process_registry().span(
                "gateway.request",
                {"path": path, "method": request.method},
                context=context, parent=remote):
            if path == "/healthz":
                statuses = self.slo_monitor.observe(
                    process_registry().snapshot())
                healthy = all(status["ok"] and not status["alerting"]
                              for status in statuses)
                self._respond(writer, 200, {
                    "status": "ok" if healthy else "degraded",
                    "sessions": len(self.service.sessions),
                    "slo": statuses,
                }, context, close=wants_close)
            elif path == "/metrics":
                from repro.obs.exporters import to_prometheus

                body = to_prometheus(process_registry().snapshot()).encode()
                writer.write(http.render_response(
                    200, body,
                    content_type="text/plain; version=0.0.4",
                    headers={"x-repro-trace-id": context.trace_id},
                    close=wants_close))
            else:
                try:
                    tenant = self.tenants.authenticate(
                        request.header("authorization") or None)
                except AuthError as exc:
                    self._count("gateway.auth_failures")
                    self._respond(writer, 401, {"error": str(exc)},
                                  context, close=wants_close)
                    await self._drain(writer)
                    return not wants_close
                if path == "/v1/stream":
                    await self._upgrade(request, reader, writer,
                                        tenant, context)
                    return False
                await self._serve_http(request, writer, tenant,
                                       wants_close, context)
        await self._drain(writer)
        return not wants_close

    async def _serve_http(self, request: HttpRequest,
                          writer: asyncio.StreamWriter,
                          tenant: Tenant, wants_close: bool,
                          context: trace.TraceContext) -> None:
        """The plain request/response endpoints."""
        loop = asyncio.get_running_loop()
        path = request.path
        if path == "/v1/estimate":
            if request.method != "POST":
                self._respond(writer, 405, {"error": "use POST"},
                              context, close=wants_close)
                return
            if not self.tenants.admit(tenant, loop.time()):
                self._count("gateway.rate_limited")
                self._respond(writer, 429, {
                    "error": f"tenant {tenant.name!r} exceeded its "
                             "request quota",
                    "quality": "rejected",
                }, context, headers={"retry-after": "1"},
                    close=wants_close)
                return
            try:
                estimate_request = EstimateRequest.from_json(
                    request.body.decode("utf-8", errors="replace"))
                response = await self.service.estimate(
                    estimate_request)
                # Encoding raises on a non-finite estimate, which then
                # goes out as the internal error below.
                self._respond(writer, 200, response.to_dict(), context,
                              close=wants_close)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                self._respond(writer, 400, {"error": str(exc)},
                              context, close=wants_close)
                return
            except QueueFullError as exc:
                self._count("gateway.rejected")
                self._respond(writer, 429, {
                    "error": str(exc), "quality": "rejected",
                }, context, headers={"retry-after": "1"},
                    close=wants_close)
                return
            except ServeError as exc:
                self._respond(writer, 400, {"error": str(exc)},
                              context, close=wants_close)
                return
            except Exception:  # noqa: BLE001 - zero-crash boundary
                self._internal_error("/v1/estimate")
                logger.exception("estimate failed on /v1/estimate")
                self._respond(writer, 500,
                              {"error": "internal gateway error"},
                              context, close=wants_close)
                return
            self._count("gateway.responses")
            await self._push_touch_events(estimate_request.sensor_id)
        elif path == "/v1/touch_events":
            sensor_id = request.query.get("sensor_id", "")
            if not sensor_id:
                self._respond(writer, 400,
                              {"error": "sensor_id query parameter "
                                        "is required"},
                              context, close=wants_close)
                return
            try:
                min_groups = int(request.query.get("min_groups", 1))
                if min_groups < 1:
                    raise ValueError(min_groups)
                events = self.service.touch_events(
                    sensor_id, min_groups=min_groups)
            except ValueError:
                self._respond(writer, 400,
                              {"error": "min_groups must be an "
                                        "integer >= 1"},
                              context, close=wants_close)
                return
            except ServeError as exc:
                self._respond(writer, 404, {"error": str(exc)},
                              context, close=wants_close)
                return
            self._respond(writer, 200, {
                "sensor_id": sensor_id,
                "events": [event.to_dict() for event in events],
            }, context, close=wants_close)
        else:
            self._respond(writer, 404,
                          {"error": f"no route for {path[:80]!r}"},
                          context, close=wants_close)

    # ------------------------------------------------------------------
    # WebSocket path
    # ------------------------------------------------------------------

    async def _upgrade(self, request: HttpRequest,
                       reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       tenant: Tenant,
                       context: trace.TraceContext) -> None:
        """Validate the handshake and run the streaming session."""
        key = request.header("sec-websocket-key")
        upgrade_ok = (
            request.method == "GET"
            and "websocket" in request.header("upgrade").lower()
            and "upgrade" in request.header("connection").lower()
            and bool(key)
            and request.header("sec-websocket-version", "13") == "13")
        if not upgrade_ok:
            self._count("gateway.protocol_errors")
            self._respond(writer, 426,
                          {"error": "/v1/stream requires a WebSocket "
                                    "upgrade (version 13)"},
                          context, headers={"upgrade": "websocket"},
                          close=True)
            await self._drain(writer)
            return
        if not self.tenants.acquire_connection(tenant):
            self._count("gateway.rate_limited")
            self._respond(writer, 429, {
                "error": f"tenant {tenant.name!r} reached its "
                         "connection quota",
                "quality": "rejected",
            }, context, close=True)
            await self._drain(writer)
            return
        conn = _WsConnection(writer, tenant)
        try:
            writer.write(http.render_response(101, headers={
                "upgrade": "websocket",
                "connection": "Upgrade",
                "sec-websocket-accept": websocket.accept_key(key),
                "x-repro-trace-id": context.trace_id,
            }))
            await self._drain(writer)
            self._count("gateway.ws_sessions")
            await self._ws_loop(conn, reader)
        finally:
            conn.closing = True
            if conn.tasks:
                _, pending = await asyncio.wait(
                    set(conn.tasks), timeout=_DRAIN_TIMEOUT_S)
                for task in pending:
                    task.cancel()
            async with conn.lock:
                conn.closed = True
            for sensor_id in list(conn.subscriptions):
                self._unsubscribe(conn, sensor_id)
            self.tenants.release_connection(tenant)

    async def _ws_loop(self, conn: _WsConnection,
                       reader: asyncio.StreamReader) -> None:
        """Frame loop: parse, dispatch, close cleanly on violation."""
        buffer = bytearray()
        while not conn.closing:
            try:
                parsed = websocket.parse_frame(
                    bytes(buffer), self.limits.max_ws_payload)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await self._ws_close(
                    conn, websocket.CLOSE_PROTOCOL_ERROR, str(exc))
                return
            if parsed is None:
                chunk = await reader.read(_WS_CHUNK)
                if not chunk:
                    return  # peer vanished without a close frame
                buffer += chunk
                continue
            frame, consumed = parsed
            del buffer[:consumed]
            try:
                await self._handle_frame(conn, frame)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await self._ws_close(
                    conn, websocket.CLOSE_PROTOCOL_ERROR, str(exc))
                return

    async def _ws_close(self, conn: _WsConnection, code: int,
                        reason: str = "") -> None:
        """Best-effort close frame; marks the connection closing."""
        conn.closing = True
        await conn.send_frame(websocket.OP_CLOSE,
                              websocket.close_payload(code, reason))

    async def _handle_frame(self, conn: _WsConnection,
                            frame) -> None:
        """Dispatch one parsed frame.

        Raises:
            ProtocolError: RFC violations the parser cannot see —
                unmasked client frames, fragmentation, binary data.
        """
        if not frame.masked:
            raise ProtocolError("client frames must be masked")
        if frame.opcode == websocket.OP_PING:
            await conn.send_frame(websocket.OP_PONG, frame.payload)
            return
        if frame.opcode == websocket.OP_PONG:
            return
        if frame.opcode == websocket.OP_CLOSE:
            websocket.parse_close(frame.payload)  # validate
            await self._ws_close(conn, websocket.CLOSE_NORMAL)
            return
        if frame.opcode != websocket.OP_TEXT or not frame.fin:
            raise ProtocolError(
                "only unfragmented text frames are supported")
        await self._handle_message(conn, frame.text())

    async def _handle_message(self, conn: _WsConnection,
                              text: str) -> None:
        """One JSON wire message (bad JSON is answered, not fatal)."""
        self._count("gateway.ws_messages")
        try:
            message = json.loads(text)
        except ValueError as exc:
            await self._ws_protocol_error(
                conn, f"message is not valid JSON: {exc}")
            return
        if not isinstance(message, dict) \
                or not isinstance(message.get("type"), str):
            await self._ws_protocol_error(
                conn, "message must be an object with a string 'type'")
            return
        kind = message["type"]
        if kind == "estimate":
            conn.spawn(self._serve_ws_estimate(conn, message))
        elif kind == "subscribe":
            await self._serve_subscribe(conn, message)
        elif kind == "unsubscribe":
            try:
                sensor_id = wire_id(message.get("sensor_id"), "sensor_id")
            except ProtocolError as exc:
                await self._ws_protocol_error(conn, str(exc))
                return
            self._unsubscribe(conn, sensor_id)
            await conn.send_json({"type": "unsubscribed",
                                  "sensor_id": sensor_id})
        elif kind == "ping":
            await conn.send_json({"type": "pong"})
        else:
            await self._ws_protocol_error(
                conn, f"unknown message type {kind[:40]!r}")

    async def _ws_protocol_error(self, conn: _WsConnection,
                                 error: str) -> None:
        """Answer a malformed message; the connection keeps serving."""
        self._count("gateway.protocol_errors")
        await conn.send_json({"type": "error", "code": "protocol",
                              "error": error})

    async def _serve_ws_estimate(self, conn: _WsConnection,
                                 message: dict) -> None:
        """One estimate message (runs as its own task).

        Each message gets its own trace context — continuing the
        caller's when the message carries a valid ``"traceparent"``
        value, a fresh root otherwise — and every reply (estimate or
        error envelope) echoes its ``trace_id``.
        """
        remote = trace.parse_traceparent(message.get("traceparent"))
        context = trace.request_context(remote)
        payload = message.get("request")
        echo = {"trace_id": context.trace_id}
        if isinstance(payload, dict):
            for key in ("sensor_id", "sequence"):
                value = payload.get(key)
                # Echo only what strict JSON can carry back: a string,
                # or a finite number (a NaN ``sequence`` is not).
                if isinstance(value, (str, int)) or (
                        isinstance(value, float) and math.isfinite(value)):
                    echo[key] = value
        if not self.tenants.admit(conn.tenant,
                                  asyncio.get_running_loop().time()):
            self._count("gateway.rate_limited")
            await conn.send_json(dict(echo, **{
                "type": "error", "code": "quota",
                "quality": "rejected",
                "error": f"tenant {conn.tenant.name!r} exceeded its "
                         "request quota"}))
            return
        with process_registry().span(
                "gateway.request",
                {"path": "/v1/stream", "method": "WS"},
                context=context, parent=remote):
            try:
                request = EstimateRequest.from_dict(payload)
                response = await self.service.estimate(request)
                # Encoding raises on a non-finite estimate, which then
                # goes out as the internal error below.
                await conn.send_json({"type": "estimate",
                                      "trace_id": context.trace_id,
                                      "response": response.to_dict()})
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "protocol",
                    "error": str(exc)}))
                return
            except QueueFullError as exc:
                self._count("gateway.rejected")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "backpressure",
                    "quality": "rejected", "error": str(exc)}))
                return
            except ServeError as exc:
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "serve",
                    "error": str(exc)}))
                return
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - zero-crash boundary
                self._internal_error("/v1/stream")
                logger.exception("estimate failed on /v1/stream")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "internal",
                    "error": "internal gateway error"}))
                return
        self._count("gateway.responses")
        await self._push_touch_events(request.sensor_id)

    # ------------------------------------------------------------------
    # Touch-event subscriptions
    # ------------------------------------------------------------------

    async def _serve_subscribe(self, conn: _WsConnection,
                               message: dict) -> None:
        try:
            sensor_id = wire_id(message.get("sensor_id"), "sensor_id")
            min_groups = wire_int(message.get("min_groups", 1),
                                  "min_groups")
            if min_groups < 1:
                raise ProtocolError(
                    f"min_groups must be >= 1, got {min_groups}")
        except ProtocolError as exc:
            await self._ws_protocol_error(conn, str(exc))
            return
        if (sensor_id not in conn.subscriptions
                and len(conn.subscriptions) >= MAX_SUBSCRIPTIONS):
            await self._ws_protocol_error(
                conn, f"a connection subscribes to at most "
                      f"{MAX_SUBSCRIPTIONS} sensors")
            return
        conn.subscriptions[sensor_id] = _Subscription(
            min_groups=min_groups)
        self._subscribers.setdefault(sensor_id, set()).add(conn)
        self._count("gateway.subscriptions")
        await conn.send_json({"type": "subscribed",
                              "sensor_id": sensor_id})
        # Catch up on presses that completed before the subscription.
        await self._push_touch_events(sensor_id, only=conn)

    def _unsubscribe(self, conn: _WsConnection,
                     sensor_id: str) -> None:
        conn.subscriptions.pop(sensor_id, None)
        remaining = self._subscribers.get(sensor_id)
        if remaining is not None:
            remaining.discard(conn)
            if not remaining:
                self._subscribers.pop(sensor_id, None)

    async def _push_touch_events(
            self, sensor_id: str,
            only: Optional[_WsConnection] = None) -> None:
        """Push newly *closed* events to this sensor's subscribers."""
        conns = self._subscribers.get(sensor_id)
        if not conns:
            return
        targets = [only] if only is not None else list(conns)
        for conn in targets:
            subscription = conn.subscriptions.get(sensor_id)
            if subscription is None or conn.closed:
                continue
            async with conn.lock:
                # Compute + send under the write lock so concurrent
                # estimates for the same sensor cannot interleave
                # event pushes out of order on one connection.  The
                # session is looked up under the lock because eviction
                # can replace it while this push waits.
                session = self.service.sessions.get(sensor_id)
                if session is None:
                    continue
                counted = subscription.counted
                if counted is None or counted() is not session:
                    # Eviction reopened the session: count its events
                    # from 0, as the GET list does.
                    subscription.counted = weakref.ref(session)
                    subscription.emitted = 0
                    subscription.cursor = 0
                fresh = session.closed_touch_events(
                    min_groups=subscription.min_groups,
                    start=subscription.cursor)
                subscription.cursor = len(session.segmenter.released)
                if not fresh:
                    continue
                base = subscription.emitted
                subscription.emitted += len(fresh)
                for index, event in enumerate(fresh):
                    if conn.closed:
                        break
                    try:
                        text = json.dumps({
                            "type": "touch_event",
                            "sensor_id": sensor_id,
                            "index": base + index,
                            "event": event.to_dict(),
                        }, sort_keys=True, allow_nan=False)
                    except ValueError:
                        # A non-finite event never goes on the wire.
                        self._internal_error("touch_event")
                        continue
                    self._count("gateway.touch_events_pushed")
                    conn.writer.write(websocket.encode_frame(
                        websocket.OP_TEXT, text.encode("utf-8")))
                try:
                    await conn.writer.drain()
                except (ConnectionError, RuntimeError):
                    conn.closed = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
