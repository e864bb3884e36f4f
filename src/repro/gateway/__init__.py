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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "auth": ("Tenant", "TenantTable", "TokenBucket"),
    "client": ("ConnectionClosed", "HandshakeRejected", "WebSocketClient"),
    "http": ("GatewayLimits", "HttpRequest", "HttpResponse"),
    "server": ("Gateway",),
})
