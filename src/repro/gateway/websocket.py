"""RFC 6455 WebSocket framing (stdlib only, no extensions).

Implements exactly the subset the gateway's streaming path needs:
the ``Sec-WebSocket-Accept`` handshake digest, frame encoding with
optional client-side masking, and an incremental frame parser over a
byte buffer.  Deliberate restrictions, enforced as protocol errors:

* no extensions — any RSV bit set is malformed;
* no fragmentation — every data frame must carry ``FIN``;
  continuation frames are rejected (the JSON wire messages the
  gateway speaks are far below the frame payload cap, so a compliant
  peer never needs to fragment them);
* declared payload lengths above the configured cap are rejected
  *before* the payload arrives, so a hostile 8-byte length prefix
  cannot balloon memory.

Every malformed input raises :class:`repro.errors.ProtocolError` —
the same decode contract as :mod:`repro.serve.protocol` and
:mod:`repro.gateway.http` — and :func:`parse_frame` is a pure
``bytes -> frame`` function so hypothesis can drive it directly
(``tests/test_gateway_fuzz.py``).
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ProtocolError

#: Fixed handshake GUID from RFC 6455 section 1.3.
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Frame opcodes (the full RFC 6455 set).
OP_CONTINUATION = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

CONTROL_OPCODES = frozenset((OP_CLOSE, OP_PING, OP_PONG))
KNOWN_OPCODES = frozenset((OP_CONTINUATION, OP_TEXT, OP_BINARY,
                           OP_CLOSE, OP_PING, OP_PONG))

#: Close codes the gateway sends.
CLOSE_NORMAL = 1000
CLOSE_PROTOCOL_ERROR = 1002
CLOSE_UNSUPPORTED = 1003
CLOSE_TOO_BIG = 1009
CLOSE_INTERNAL = 1011

#: Largest control-frame payload RFC 6455 permits.
MAX_CONTROL_PAYLOAD = 125


def accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` digest for a handshake key."""
    digest = hashlib.sha1((key + GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


@dataclass(frozen=True)
class Frame:
    """One parsed frame; ``payload`` is already unmasked."""

    opcode: int
    payload: bytes
    fin: bool = True
    masked: bool = False

    def text(self) -> str:
        """The payload as UTF-8 text.

        Raises:
            ProtocolError: The payload is not valid UTF-8.
        """
        try:
            return self.payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"frame payload is not valid UTF-8: {exc}") from exc


def _apply_mask(payload: bytes, key: bytes) -> bytes:
    """XOR-mask (or unmask — the operation is its own inverse)."""
    if not payload:
        return b""
    # Stretch the 4-byte key across the payload and XOR in one pass;
    # int.from_bytes keeps this O(n) without a python-level loop.
    repeated = (key * (len(payload) // 4 + 1))[:len(payload)]
    return (int.from_bytes(payload, "big")
            ^ int.from_bytes(repeated, "big")).to_bytes(
                len(payload), "big")


def encode_frame(opcode: int, payload: bytes = b"",
                 mask_key: Optional[bytes] = None) -> bytes:
    """Serialize one final (unfragmented) frame; ``mask_key`` (4 bytes)
    masks client->server.

    Raises:
        ProtocolError: Unknown opcode, oversized control payload, or a
            mask key that is not exactly 4 bytes.
    """
    if opcode not in KNOWN_OPCODES:
        raise ProtocolError(f"unknown opcode 0x{opcode:x}")
    if opcode in CONTROL_OPCODES and len(payload) > MAX_CONTROL_PAYLOAD:
        raise ProtocolError(
            f"control payload of {len(payload)} bytes exceeds "
            f"{MAX_CONTROL_PAYLOAD}")
    if mask_key is not None and len(mask_key) != 4:
        raise ProtocolError("mask key must be exactly 4 bytes")
    head = bytearray()
    head.append(0x80 | opcode)
    mask_bit = 0x80 if mask_key is not None else 0x00
    length = len(payload)
    if length <= 125:
        head.append(mask_bit | length)
    elif length <= 0xFFFF:
        head.append(mask_bit | 126)
        head += length.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += length.to_bytes(8, "big")
    if mask_key is not None:
        head += mask_key
        payload = _apply_mask(payload, mask_key)
    return bytes(head) + payload


def parse_frame(buffer: bytes,
                max_payload: int = 1 << 20
                ) -> Optional[Tuple[Frame, int]]:
    """Parse one frame off the front of ``buffer``.

    Returns ``(frame, bytes_consumed)``, or ``None`` when the buffer
    does not yet hold a complete frame (read more and retry).

    Raises:
        ProtocolError: Structurally malformed input — RSV bits set,
            unknown opcode, fragmented or oversized control frame, or
            a declared payload length above ``max_payload`` (raised as
            soon as the length prefix is readable, without waiting for
            the payload bytes).
    """
    if len(buffer) < 2:
        return None
    first, second = buffer[0], buffer[1]
    if first & 0x70:
        raise ProtocolError(
            f"RSV bits set (0x{first & 0x70:02x}); extensions are "
            "not negotiated")
    opcode = first & 0x0F
    if opcode not in KNOWN_OPCODES:
        raise ProtocolError(f"unknown opcode 0x{opcode:x}")
    fin = bool(first & 0x80)
    masked = bool(second & 0x80)
    length = second & 0x7F
    if opcode in CONTROL_OPCODES:
        if not fin:
            raise ProtocolError("control frames must not be fragmented")
        if length > MAX_CONTROL_PAYLOAD:
            raise ProtocolError(
                f"control payload length {length} exceeds "
                f"{MAX_CONTROL_PAYLOAD}")
    offset = 2
    if length == 126:
        if len(buffer) < offset + 2:
            return None
        length = int.from_bytes(buffer[offset:offset + 2], "big")
        offset += 2
    elif length == 127:
        if len(buffer) < offset + 8:
            return None
        length = int.from_bytes(buffer[offset:offset + 8], "big")
        if length >= 1 << 63:
            raise ProtocolError("payload length has the top bit set")
        offset += 8
    if length > max_payload:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{max_payload}-byte cap")
    if masked:
        if len(buffer) < offset + 4:
            return None
        key = bytes(buffer[offset:offset + 4])
        offset += 4
    total = offset + length
    if len(buffer) < total:
        return None
    payload = bytes(buffer[offset:total])
    if masked:
        payload = _apply_mask(payload, key)
    return Frame(opcode=opcode, payload=payload, fin=fin,
                 masked=masked), total


def close_payload(code: int = CLOSE_NORMAL, reason: str = "") -> bytes:
    """Serialize a close frame payload (code + UTF-8 reason)."""
    return code.to_bytes(2, "big") + reason.encode("utf-8")[
        :MAX_CONTROL_PAYLOAD - 2]


def parse_close(payload: bytes) -> Tuple[int, str]:
    """Decode a close payload into (code, reason).

    An empty payload means "no status" (1005 per RFC 6455).

    Raises:
        ProtocolError: One-byte payload or a non-UTF-8 reason.
    """
    if not payload:
        return 1005, ""
    if len(payload) == 1:
        raise ProtocolError("close payload of 1 byte is malformed")
    code = int.from_bytes(payload[:2], "big")
    try:
        reason = payload[2:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"close reason is not valid UTF-8: {exc}") from exc
    return code, reason
