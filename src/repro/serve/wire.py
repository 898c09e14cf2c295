"""The serve wire format: versioned, CRC-protected JSON frames (schema v1).

One frame is one line: canonical JSON (sorted keys, compact separators)
followed by ``\\n``.  Canonical bytes matter twice — they make responses
byte-stable across processes (the DET lint rules watch this module), and
they are what the frame checksum is computed over, so a garbled frame is
*detected*, never silently served.

Request frame::

    {"crc": "9d0e2f11", "deadline_ticks": 64, "id": "c3-7",
     "method": "exhaustive.cc", "params": {...}, "tenant": "c3", "v": 1}

Response frame::

    {"crc": "...", "id": "c3-7", "ok": true, "result": {...}, "v": 1}
    {"crc": "...", "id": "c3-7", "ok": false, "error": {...}, "v": 1}

The ``crc`` field is CRC-32 (hex, 8 digits) over the canonical JSON of the
frame *without* its ``crc`` key — the service-layer analogue of the ARQ
frame checksum in :mod:`repro.comm.transport`.  A frame that fails the
checksum, fails to parse, or violates the schema produces a structured
``bad_frame``/``bad_request`` error response; no input can make the
decoder raise past :class:`FrameError`.

The **error schema v1** is pinned: every error payload carries exactly
``schema`` (= :data:`ERROR_SCHEMA_VERSION`), ``code`` (one of
:data:`ERROR_CODES`), ``message`` (human-readable), ``retryable`` (bool)
and — iff retryable — ``backoff_ticks``, the client's retry/backoff
guidance in service ticks.  Clients branch on ``code`` and ``retryable``
only; ``message`` is never load-bearing.
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import dataclass
from typing import Any

#: Wire schema version; frames from other versions are rejected loudly.
WIRE_VERSION = 1

#: Error payload schema version (the pinned contract of ``error`` objects).
ERROR_SCHEMA_VERSION = 1

#: The pinned error taxonomy: code -> (default retryable, meaning).
ERROR_CODES: dict[str, tuple[bool, str]] = {
    "bad_frame": (True, "frame unparseable, checksum mismatch, or truncated"),
    "bad_request": (False, "well-formed frame violating the request schema"),
    "unsupported_version": (False, "frame carries a foreign wire version"),
    "unknown_method": (False, "method is not served"),
    "too_large": (False, "instance exceeds the service's size admission cap"),
    "client_limit": (True, "per-tenant in-flight cap reached (admission)"),
    "overloaded": (True, "work queue full; request shed (429 analogue)"),
    "deadline_exceeded": (True, "deadline_ticks elapsed before execution"),
    "budget_exceeded": (
        False,
        "step/bit budget exceeded — predicted at admission or spent live",
    ),
    "execution_failed": (False, "engine reported a non-ok structured outcome"),
    "internal": (False, "handler crashed; failure contained and reported"),
    "shutting_down": (True, "service is draining; retry elsewhere/later"),
}

#: Methods the service understands (the versioned API surface).
METHODS = (
    "protocol.run",
    "exhaustive.cc",
    "partition.search",
    "cost.estimate",
    "cache.stats",
)

#: Maximum accepted frame size in bytes (admission guard, pre-parse).
MAX_FRAME_BYTES = 1 << 20


class FrameError(Exception):
    """A frame failed decoding or validation.

    Attributes:
        code: the :data:`ERROR_CODES` entry this failure maps onto.
        frame_id: the offending request's id when one could be recovered
            (lets the error response still correlate), else None.
    """

    def __init__(self, code: str, message: str, frame_id: str | None = None):
        super().__init__(message)
        self.code = code
        self.frame_id = frame_id


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators.

    The single serialization every checksum and every persisted byte goes
    through, so two processes always agree on a frame's bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frame_crc(obj: dict) -> str:
    """CRC-32 (hex, 8 digits) over the frame without its ``crc`` field."""
    body = {key: obj[key] for key in sorted(obj) if key != "crc"}
    return f"{zlib.crc32(canonical_json(body).encode('utf-8')) & 0xFFFFFFFF:08x}"


def encode_frame(obj: dict) -> bytes:
    """Serialize a frame dict to wire bytes, stamping its checksum."""
    stamped = {key: obj[key] for key in sorted(obj) if key != "crc"}
    stamped["crc"] = frame_crc(stamped)
    return (canonical_json(stamped) + "\n").encode("utf-8")


#: Decodes JSON objects with interned field names: the frames a client
#: keeps then share one copy of each name, which halves a small reply's
#: memory (the serve load generator holds every reply of a run).
_DECODER = json.JSONDecoder(
    object_pairs_hook=lambda pairs: {sys.intern(key): value for key, value in pairs}
)


def decode_frame(data: bytes) -> dict:
    """Parse and checksum-verify one wire frame.

    Raises :class:`FrameError` (``bad_frame``) for anything that is not a
    checksummed JSON object: undecodable bytes, truncation, non-object
    payloads, a missing or mismatching ``crc``.  This is the *only*
    exception any input can produce.
    """
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError("bad_frame", f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError("bad_frame", f"frame is not UTF-8: {exc}") from exc
    try:
        obj = _DECODER.decode(text)
    except ValueError as exc:
        raise FrameError("bad_frame", f"frame is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("bad_frame", "frame is not a JSON object")
    frame_id = obj.get("id") if isinstance(obj.get("id"), str) else None
    crc = obj.get("crc")
    if not isinstance(crc, str):
        raise FrameError("bad_frame", "frame carries no checksum", frame_id)
    if frame_crc(obj) != crc:
        raise FrameError(
            "bad_frame", "frame checksum mismatch (garbled in flight)", frame_id
        )
    return obj


@dataclass(frozen=True)
class Request:
    """One validated request: the schema-checked view of a request frame.

    Attributes:
        id: client-assigned correlation id (echoed verbatim in responses).
        method: one of :data:`METHODS`.
        params: method parameters (validated per method by the service).
        tenant: the client identity admission control accounts against.
        deadline_ticks: service-tick deadline for this request, or None
            for the service default.
    """

    id: str
    method: str
    params: dict
    tenant: str
    deadline_ticks: int | None = None


def validate_request(obj: dict) -> Request:
    """Schema-check a decoded request frame into a :class:`Request`.

    Raises :class:`FrameError` with ``unsupported_version``,
    ``unknown_method`` or ``bad_request`` — always carrying the request id
    when the frame got far enough to have one.
    """
    frame_id = obj.get("id") if isinstance(obj.get("id"), str) else None
    if obj.get("v") != WIRE_VERSION:
        raise FrameError(
            "unsupported_version",
            f"wire version {obj.get('v')!r}; this service speaks v{WIRE_VERSION}",
            frame_id,
        )
    if frame_id is None or not frame_id:
        raise FrameError("bad_request", "id must be a non-empty string")
    method = obj.get("method")
    if not isinstance(method, str):
        raise FrameError("bad_request", "method must be a string", frame_id)
    if method not in METHODS:
        raise FrameError(
            "unknown_method",
            f"method {method!r} is not served; have {', '.join(METHODS)}",
            frame_id,
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise FrameError("bad_request", "params must be an object", frame_id)
    tenant = obj.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant:
        raise FrameError(
            "bad_request", "tenant must be a non-empty string", frame_id
        )
    deadline = obj.get("deadline_ticks")
    if deadline is not None and not (
        isinstance(deadline, int)
        and not isinstance(deadline, bool)
        and deadline >= 1
    ):
        raise FrameError(
            "bad_request", "deadline_ticks must be an int >= 1", frame_id
        )
    unknown = sorted(
        key
        for key in obj
        if key not in ("v", "id", "method", "params", "tenant",
                       "deadline_ticks", "crc")
    )
    if unknown:
        raise FrameError(
            "bad_request", f"unknown frame fields: {', '.join(unknown)}", frame_id
        )
    return Request(
        id=frame_id,
        method=method,
        params=params,
        tenant=tenant,
        deadline_ticks=deadline,
    )


def request_frame(
    id: str,
    method: str,
    params: dict | None = None,
    tenant: str = "anonymous",
    deadline_ticks: int | None = None,
) -> bytes:
    """Build one encoded request frame (the client-side convenience)."""
    obj: dict[str, Any] = {
        "v": WIRE_VERSION,
        "id": id,
        "method": method,
        "params": params or {},
        "tenant": tenant,
    }
    if deadline_ticks is not None:
        obj["deadline_ticks"] = deadline_ticks
    return encode_frame(obj)


def ok_response(request_id: str, result: dict) -> bytes:
    """Encode a success response frame for ``request_id``."""
    return encode_frame(
        {"v": WIRE_VERSION, "id": request_id, "ok": True, "result": result}
    )


def error_response(
    request_id: str | None,
    code: str,
    message: str,
    retryable: bool | None = None,
    backoff_ticks: int | None = None,
) -> bytes:
    """Encode a structured error response (pinned error schema v1).

    ``retryable`` defaults per :data:`ERROR_CODES`; retryable errors carry
    ``backoff_ticks`` (default 1) so clients never have to invent their
    own backoff policy.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    if retryable is None:
        retryable = ERROR_CODES[code][0]
    error: dict[str, Any] = {
        "schema": ERROR_SCHEMA_VERSION,
        "code": code,
        "message": message,
        "retryable": retryable,
    }
    if retryable:
        error["backoff_ticks"] = backoff_ticks if backoff_ticks is not None else 1
    return encode_frame(
        {"v": WIRE_VERSION, "id": request_id, "ok": False, "error": error}
    )


def validate_response(obj: dict) -> dict:
    """Schema-check a decoded response frame (the client-side mirror).

    Returns the frame unchanged when clean; raises :class:`FrameError`
    (``bad_frame``) otherwise.  Pins the error schema: a non-ok response
    must carry a v1 error object with a known code, a bool ``retryable``,
    and ``backoff_ticks`` exactly when retryable.
    """
    if obj.get("v") != WIRE_VERSION:
        raise FrameError("bad_frame", f"response wire version {obj.get('v')!r}")
    if not isinstance(obj.get("ok"), bool):
        raise FrameError("bad_frame", "response ok flag must be a bool")
    if obj.get("id") is not None and not isinstance(obj["id"], str):
        raise FrameError("bad_frame", "response id must be a string or null")
    if obj["ok"]:
        if not isinstance(obj.get("result"), dict):
            raise FrameError("bad_frame", "ok response must carry a result object")
        return obj
    error = obj.get("error")
    if not isinstance(error, dict):
        raise FrameError("bad_frame", "error response must carry an error object")
    if error.get("schema") != ERROR_SCHEMA_VERSION:
        raise FrameError(
            "bad_frame", f"error schema {error.get('schema')!r} is not v1"
        )
    if error.get("code") not in ERROR_CODES:
        raise FrameError("bad_frame", f"unknown error code {error.get('code')!r}")
    if not isinstance(error.get("retryable"), bool):
        raise FrameError("bad_frame", "error retryable must be a bool")
    if not isinstance(error.get("message"), str):
        raise FrameError("bad_frame", "error message must be a string")
    if error["retryable"] and not (
        isinstance(error.get("backoff_ticks"), int) and error["backoff_ticks"] >= 1
    ):
        raise FrameError(
            "bad_frame", "retryable error must carry backoff_ticks >= 1"
        )
    return obj
