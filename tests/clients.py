"""Client-side helpers the suites drive the serving stack with.

A burst of requests against an in-process
:class:`repro.serve.InferenceService`, one HTTP exchange on a fresh
connection (what a ``curl`` user does), and one estimate over an open
:class:`repro.gateway.client.WebSocketClient` session.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional, Sequence, Tuple

from repro.gateway import http, websocket
from repro.gateway.client import WebSocketClient, _auth_headers
from repro.gateway.http import GatewayLimits, HttpResponse
from repro.serve import EstimateRequest, EstimateResponse, InferenceService


async def estimate_many(
    service: InferenceService, requests: Sequence[EstimateRequest],
) -> List[EstimateResponse]:
    """Serve a burst of requests concurrently, in request order."""
    return list(await asyncio.gather(
        *(service.estimate(request) for request in requests)))


async def http_request(host: str, port: int, method: str, target: str,
                       payload: Optional[dict] = None,
                       token: Optional[str] = None,
                       limits: Optional[GatewayLimits] = None,
                       timeout: float = 30.0) -> HttpResponse:
    """One HTTP exchange on a fresh connection.

    Args:
        payload: Optional JSON body (sent with ``Content-Length``).
        token: Bearer token for the ``Authorization`` header.
        limits: Client-side parse caps; server defaults when omitted.
        timeout: Overall deadline for the exchange [s].

    Raises:
        ProtocolError: The server's response could not be parsed.
        asyncio.TimeoutError: The deadline elapsed.
    """
    limits = limits if limits is not None else GatewayLimits()

    async def exchange() -> HttpResponse:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            headers = _auth_headers(token)
            headers["connection"] = "close"
            body = b""
            if payload is not None:
                body = json.dumps(payload,
                                  sort_keys=True).encode("utf-8")
                headers["content-type"] = "application/json"
            writer.write(http.render_request(method, target,
                                             headers=headers,
                                             body=body))
            await writer.drain()
            return await http.read_response(reader, limits)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    return await asyncio.wait_for(exchange(), timeout)


async def estimate_over_ws(client: WebSocketClient,
                           request_payload: dict,
                           timeout: float = 30.0
                           ) -> Tuple[dict, list]:
    """Send one estimate and collect its reply.

    Returns ``(reply, pushed)`` where ``pushed`` is any
    ``touch_event`` messages that arrived before the reply (event
    pushes for *other* requests on the same connection can interleave
    with a response when estimates are pipelined).
    """
    # Encoded here rather than by the client's strict ``send_json``, so
    # a suite can put hostile ``NaN`` / ``Infinity`` literals on the wire.
    await client.send_frame(websocket.OP_TEXT, json.dumps(
        {"type": "estimate", "request": request_payload},
        sort_keys=True).encode("utf-8"))
    pushed = []
    while True:
        message = await client.recv_json(timeout)
        if message.get("type") == "touch_event":
            pushed.append(message)
            continue
        return message, pushed


class RefusingScheduler:
    """Stands in for a service's micro-batch scheduler: ``submit``
    raises ``error`` on its first ``refusals`` calls (every call when
    ``None``), then answers ``None``; ``calls`` counts the submits."""

    def __init__(self, error: BaseException,
                 refusals: Optional[int] = None):
        self.error = error
        self.refusals = refusals
        self.calls = 0

    async def submit(self, *args, **kwargs) -> None:
        self.calls += 1
        if self.refusals is None or self.calls <= self.refusals:
            raise self.error


def submit_through(scheduler: RefusingScheduler) -> Tuple[None, bool]:
    """One service submit, retries included, against ``scheduler``:
    the result and whether a retry was needed."""
    service = InferenceService()
    service.scheduler = scheduler
    return asyncio.run(service._submit(None, 0.5, 0.4, None))
