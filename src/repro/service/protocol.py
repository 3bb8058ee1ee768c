"""Wire format of the match service (DESIGN.md §3.8).

One message = one UTF-8 JSON object on a single ``\\n``-terminated line
(the *header*), optionally followed by a binary *payload*: when the header
carries an integer field ``"payload"`` ≥ 0, exactly that many raw bytes
follow, then one more ``\\n``.  JSON keeps the control plane greppable and
debuggable with ``nc``; the length-prefixed payload keeps multi-MB scan
inputs off the base64 tax and lets both sides read with exact-size reads
(no scanning binary data for delimiters).

Requests are ``{"op": ..., ...}``; replies are ``{"ok": true, ...}`` or a
structured error ``{"ok": false, "error": {"kind", "message"}}`` — a
malformed request never silently drops the connection, so a client can
pipeline fixed requests over the same socket.  Error kinds:

- ``"protocol"``            — unparseable header / truncated payload
- ``"bad-request"``         — unknown op or missing/invalid fields
- ``"payload-too-large"``   — declared payload exceeds the server limit
  (the payload is drained, so the connection survives)
- ``"compile"``             — the pattern/ruleset failed to compile
- ``"engine"``              — a scan raised (bad plan, state explosion)
- ``"limit"``               — per-connection resource cap (open streams)
- ``"shutdown"``            — server is draining

Two control-plane replies carry structured analysis (DESIGN.md §3.9):
``compile`` replies include an ``analysis`` summary (nullability, length
bounds, DFA bound, prefilter plan, warning codes) next to ``sizes``, and
the ``analyze`` op returns the full schema-versioned report under
``report`` without compiling anything.

Both the asyncio server and the blocking client read through the same
:func:`parse_header` / :func:`encode_message` pair, so the framing cannot
skew between the two sides.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError

#: Default TCP port ("SFA" on a phone keypad is 732; 7320 is unassigned).
DEFAULT_PORT = 7320

#: Default cap on a single request/reply payload (bytes).
DEFAULT_MAX_PAYLOAD = 64 << 20

#: Cap on one JSON header line (a header is control data, never bulk).
MAX_HEADER_BYTES = 1 << 20

#: Payload declarations beyond this are treated as a framing attack and
#: close the connection instead of draining (draining 2**60 declared bytes
#: would itself be the DoS).
DRAIN_CEILING = 1 << 30


class ProtocolError(ServiceError):
    """Framing violation after which the byte stream cannot be trusted."""

    def __init__(self, message: str):
        super().__init__(message, kind="protocol")


def encode_message(header: Dict[str, Any], payload: Optional[bytes] = None) -> bytes:
    """Serialize one message (header + optional payload) to wire bytes."""
    head = dict(header)
    if payload is not None:
        head["payload"] = len(payload)
    line = json.dumps(head, separators=(",", ":"), sort_keys=True)
    out = line.encode("utf-8") + b"\n"
    if payload is not None:
        out += bytes(payload) + b"\n"
    return out


def parse_header(line: bytes) -> Tuple[Dict[str, Any], int]:
    """Decode one header line; returns ``(header, declared_payload_len)``.

    ``declared_payload_len`` is ``-1`` when the message has no payload.
    """
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise ProtocolError(f"unparseable header: {e}") from None
    if not isinstance(header, dict):
        raise ProtocolError(f"header must be a JSON object, got {type(header).__name__}")
    declared = header.get("payload", -1)
    if declared != -1 and (not isinstance(declared, int) or declared < 0):
        raise ProtocolError(f"invalid payload length {declared!r}")
    return header, declared


def error_reply(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The structured error header for a failed request."""
    reply: Dict[str, Any] = {"ok": False, "error": {"kind": kind, "message": message}}
    reply.update(extra)
    return reply


def raise_remote(reply: Dict[str, Any]) -> None:
    """Client side: re-raise a structured error reply as ServiceError."""
    err = reply.get("error") or {}
    raise ServiceError(
        str(err.get("message", "unknown remote error")),
        kind=str(err.get("kind", "service")),
    )
