"""Minimal HTTP/1.1 framing for the gateway (stdlib only).

Just enough of RFC 7230 to carry the JSON wire protocol and the
WebSocket upgrade handshake: request/response head parsing,
``Content-Length`` bodies, and response rendering.  No chunked
transfer coding, no multi-line header folding — a request that uses
either is malformed *for this server* and is answered with 400.

The parsers follow the serve-boundary decode contract
(:mod:`repro.serve.protocol`): any malformed, truncated, or oversized
input raises :class:`repro.errors.ProtocolError` — never a bare
``ValueError``/``IndexError``/``UnicodeDecodeError`` — so the
connection handler maps every parse failure to one error response
(fuzz-tested in ``tests/test_gateway_fuzz.py``).  The head parsers are
pure ``bytes -> dataclass`` functions so hypothesis can drive them
directly, with thin asyncio readers layered on top.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ProtocolError

#: Reason phrases for every status the gateway actually sends.
REASONS = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    426: "Upgrade Required",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Head terminator for requests and responses alike.
_HEAD_END = b"\r\n\r\n"

#: HTTP methods the gateway routes (anything else is a 405).
KNOWN_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS",
                 "PATCH")


@dataclass(frozen=True)
class GatewayLimits:
    """Hard input bounds; exceeding any of them is a protocol error.

    Attributes:
        max_head_bytes: Request/response head cap (request line plus
            headers, terminator included).
        max_body_bytes: ``Content-Length`` cap for HTTP bodies.
        max_ws_payload: Per-frame WebSocket payload cap (a declared
            length beyond it is rejected *before* the payload is
            read, so a hostile length prefix cannot balloon memory).
        max_connections: Concurrent TCP connections accepted before
            new ones are turned away with 503.
    """

    max_head_bytes: int = 16384
    max_body_bytes: int = 1 << 20
    max_ws_payload: int = 1 << 20
    max_connections: int = 256

    def __post_init__(self) -> None:
        for name in ("max_head_bytes", "max_body_bytes",
                     "max_ws_payload", "max_connections"):
            if getattr(self, name) < 1:
                raise ProtocolError(f"{name} must be >= 1, got "
                                    f"{getattr(self, name)}")


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request (head + body).

    Header names are lower-cased at parse time; values keep their
    whitespace-stripped form.
    """

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """The target's path component (query string stripped)."""
        return urlsplit(self.target).path

    @property
    def query(self) -> Dict[str, str]:
        """Single-valued query parameters (first value wins)."""
        parsed = parse_qs(urlsplit(self.target).query,
                          keep_blank_values=True)
        return {key: values[0] for key, values in parsed.items()}

    def header(self, name: str, default: str = "") -> str:
        """A header by case-insensitive name."""
        return self.headers.get(name.lower(), default)


@dataclass(frozen=True)
class HttpResponse:
    """One parsed response (what the gateway *client* reads back)."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body decoded as a JSON object.

        Raises:
            ProtocolError: The body is not valid JSON or not a dict.
        """
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(
                f"response body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("response JSON must be an object, got "
                                f"{type(payload).__name__}")
        return payload


def _split_head(head: bytes, what: str) -> Tuple[str, list]:
    """Common head validation: returns (start line, header lines)."""
    if not head.endswith(_HEAD_END):
        raise ProtocolError(f"{what} head is not terminated")
    try:
        text = head[:-len(_HEAD_END)].decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1
        raise ProtocolError(f"{what} head is not decodable") from exc
    lines = text.split("\r\n")
    if not lines or not lines[0]:
        raise ProtocolError(f"{what} start line is empty")
    return lines[0], lines[1:]


def _parse_headers(lines: list, what: str) -> Dict[str, str]:
    """Parse ``Name: value`` lines into a lower-cased dict."""
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            raise ProtocolError(f"{what} carries an empty header line")
        name, separator, value = line.partition(":")
        if not separator or not name or name != name.strip() \
                or "\n" in line:
            raise ProtocolError(f"{what} header line is malformed: "
                                f"{line[:60]!r}")
        headers[name.lower()] = value.strip()
    return headers


def parse_request_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Parse a request head into (method, target, headers).

    ``head`` must include the ``\\r\\n\\r\\n`` terminator.

    Raises:
        ProtocolError: Any structural violation — bad request line,
            unsupported HTTP version, malformed header line.
    """
    start, lines = _split_head(head, "request")
    parts = start.split(" ")
    if len(parts) != 3:
        raise ProtocolError(
            f"malformed request line: {start[:60]!r}")
    method, target, version = parts
    if method not in KNOWN_METHODS:
        raise ProtocolError(f"unknown HTTP method {method[:20]!r}")
    if not target or " " in target:
        raise ProtocolError(f"malformed request target {target[:60]!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported HTTP version {version[:20]!r}")
    return method, target, _parse_headers(lines, "request")


def parse_response_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """Parse a response head into (status, headers).

    Raises:
        ProtocolError: Bad status line or malformed header line.
    """
    start, lines = _split_head(head, "response")
    parts = start.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line: {start[:60]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ProtocolError(
            f"malformed status code {parts[1][:20]!r}") from exc
    if not 100 <= status <= 599:
        raise ProtocolError(f"status code out of range: {status}")
    return status, _parse_headers(lines, "response")


def content_length(headers: Dict[str, str],
                   limits: GatewayLimits) -> int:
    """Validated ``Content-Length`` (0 when absent).

    Raises:
        ProtocolError: Non-integer, negative, or above the body cap;
            or the message uses a transfer coding we do not speak.
    """
    if "transfer-encoding" in headers:
        raise ProtocolError("transfer codings are not supported; "
                            "send a Content-Length body")
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError as exc:
        raise ProtocolError(
            f"malformed Content-Length {raw[:20]!r}") from exc
    if length < 0:
        raise ProtocolError(f"negative Content-Length {length}")
    if length > limits.max_body_bytes:
        raise ProtocolError(
            f"body of {length} bytes exceeds the "
            f"{limits.max_body_bytes}-byte cap")
    return length


async def _read_head(reader: asyncio.StreamReader,
                     limits: GatewayLimits,
                     what: str) -> Optional[bytes]:
    """Read one head; None on clean EOF before any bytes arrived."""
    try:
        head = await reader.readuntil(_HEAD_END)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(f"truncated {what} head "
                            f"({len(exc.partial)} bytes)") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(f"{what} head exceeds the stream "
                            "buffer limit") from exc
    if len(head) > limits.max_head_bytes:
        raise ProtocolError(
            f"{what} head of {len(head)} bytes exceeds the "
            f"{limits.max_head_bytes}-byte cap")
    return head


async def _read_body(reader: asyncio.StreamReader, length: int,
                     what: str) -> bytes:
    """Read an exact-length body (typed failure on truncation)."""
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated {what} body: got {len(exc.partial)} of "
            f"{length} bytes") from exc


async def read_request(reader: asyncio.StreamReader,
                       limits: GatewayLimits) -> Optional[HttpRequest]:
    """Read one full request; None on clean EOF between requests.

    Raises:
        ProtocolError: Malformed head, unsupported framing, truncated
            or oversized input.
    """
    head = await _read_head(reader, limits, "request")
    if head is None:
        return None
    method, target, headers = parse_request_head(head)
    body = await _read_body(reader, content_length(headers, limits),
                            "request")
    return HttpRequest(method=method, target=target, headers=headers,
                       body=body)


async def read_response(reader: asyncio.StreamReader,
                        limits: GatewayLimits) -> HttpResponse:
    """Read one full response (client side).

    Raises:
        ProtocolError: EOF, malformed head, or truncated body.
    """
    head = await _read_head(reader, limits, "response")
    if head is None:
        raise ProtocolError("connection closed before a response")
    status, headers = parse_response_head(head)
    if status == 101:
        # An upgrade response has no body; the stream switches to
        # WebSocket frames immediately after the head.
        return HttpResponse(status=status, headers=headers)
    body = await _read_body(reader, content_length(headers, limits),
                            "response")
    return HttpResponse(status=status, headers=headers, body=body)


def render_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    headers: Optional[Dict[str, str]] = None,
                    close: bool = False) -> bytes:
    """Serialize one response (head + body) to wire bytes."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    merged = dict(headers or {})
    if status != 101:
        merged.setdefault("content-type", content_type)
        merged.setdefault("content-length", str(len(body)))
    if close:
        merged.setdefault("connection", "close")
    for name, value in merged.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(status: int, payload: dict,
                  headers: Optional[Dict[str, str]] = None,
                  close: bool = False) -> bytes:
    """Serialize a JSON body response.

    Raises:
        ValueError: ``payload`` holds a NaN or an infinity, which strict
            JSON cannot carry.
    """
    body = (json.dumps(payload, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")
    return render_response(status, body, headers=headers, close=close)


def render_request(method: str, target: str,
                   headers: Optional[Dict[str, str]] = None,
                   body: bytes = b"") -> bytes:
    """Serialize one request (client side)."""
    lines = [f"{method} {target} HTTP/1.1"]
    merged = dict(headers or {})
    if body or method in ("POST", "PUT", "PATCH"):
        merged.setdefault("content-length", str(len(body)))
    for name, value in merged.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
