"""``repro.gateway`` — the network front door for the serve stack.

A stdlib-only asyncio gateway that exposes
:class:`repro.serve.InferenceService` over real sockets: minimal
HTTP/1.1 (``POST /v1/estimate``, ``GET /v1/touch_events``,
``/healthz``, ``/metrics``) plus an RFC 6455 WebSocket endpoint
(``GET /v1/stream``) for streaming estimates and per-sensor
touch-event subscriptions.  Per-tenant bearer-token auth, token-bucket
quotas, and connection caps compose with the scheduler's backpressure
— overload degrades to 429/``quality="rejected"`` responses, never
crashes.  See DESIGN.md ("Network gateway") for the data flow and
README.md ("Gateway") for the quickstart.
"""

from repro.gateway.auth import Tenant, TenantTable, TokenBucket
from repro.gateway.client import (
    ConnectionClosed,
    HandshakeRejected,
    WebSocketClient,
    estimate_over_ws,
    http_request,
)
from repro.gateway.http import GatewayLimits, HttpRequest, HttpResponse
from repro.gateway.server import Gateway

__all__ = [
    "ConnectionClosed",
    "Gateway",
    "GatewayLimits",
    "HandshakeRejected",
    "HttpRequest",
    "HttpResponse",
    "Tenant",
    "TenantTable",
    "TokenBucket",
    "WebSocketClient",
    "estimate_over_ws",
    "http_request",
]
