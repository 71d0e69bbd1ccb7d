"""Wire protocol of the scan service: newline-delimited JSON frames.

One frame per line, UTF-8 JSON with an ``op`` discriminator — trivially
debuggable with ``nc`` and language-agnostic for clients.  Input bytes
travel base64-encoded in ``data`` frames; match events stream back as
``[global_end_offset, regex_id]`` pairs.

Client -> server ops
--------------------
``open``     start or resume a session
             (``tenant``, ``session``, ``patterns``, ``resume``)
``data``     the next input segment (``b64``)
``end``      the stream is complete: price and return the final result
``reload``   hot-swap the tenant's ruleset (``patterns``); compiles in
             the background, swaps at each session's next segment
             boundary
``ping``     liveness probe; also honored *before* ``open`` so a fleet
             supervisor can health-probe a worker without creating a
             session
``detach``   checkpoint the session and close the connection; a later
             ``open`` with ``resume`` continues it bit-identically

Supervisor -> worker control ops (pre-``open``, fleet only)
-----------------------------------------------------------
``health``   structured worker snapshot (``health_report``: live
             sessions, parked sessions, counters, drain flag)
``release``  checkpoint and park every attached session for migration;
             each client gets an ``error`` frame with code ``migrate``
             and a ``retry_after``, then the worker answers
             ``released`` (``count``) and forgets the sessions —
             ownership has moved to whichever worker resumes them

Server -> client ops
--------------------
``welcome``  session accepted (``offset`` = bytes durably consumed —
             a resuming client replays its input from there;
             ``backend`` = the resolved step-kernel backend that will
             execute, ``backend_reason`` = why a fallback was taken,
             e.g. ``"native unavailable: no C compiler"``, or null)
``events``   new matches for the last fed segment (``matches``,
             ``offset``, ``energy_uj`` priced so far, ``generation``)
``swap``     the session rotated onto a reloaded ruleset at this offset
``result``   final totals after ``end`` (``matches``, ``energy_uj``)
``reloaded`` background compile finished (``generation``, ``swapped``)
``pong``     ping reply
``bye``      orderly detach (``reason``: ``detach``/``idle``/``drain``)
``health_report``  reply to ``health``
``released`` reply to ``release`` (``count`` sessions parked)
``error``    structured failure (``code``, ``message``, optional
             ``retry_after`` seconds for admission/shed/migrate/breaker
             rejections; ``offset`` on ``migrate`` so the client knows
             the durable resume point)

Framing errors — unparsable JSON, a non-object, a missing ``op``, or a
line over the size limit — are :class:`~repro.errors.ProtocolError`;
the server answers with an ``error`` frame and fails the *connection*,
never the session state (the session was checkpointed after its last
fed segment and resumes intact).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import ProtocolError

PROTOCOL = "rap-serve"
PROTOCOL_VERSION = 1

# Upper bound on one frame line.  Base64 inflates payloads by 4/3, so
# this admits data segments of ~6 MiB — far above the service's segment
# granularity — while bounding a hostile client's memory leverage.
MAX_FRAME_BYTES = 8 << 20

# Error codes carried by ``error`` frames.
ERR_ADMISSION = "admission"  # admission refused; retry_after attached
ERR_SHED = "shed"  # session shed under pressure; retry_after attached
ERR_PROTOCOL = "protocol"  # malformed/oversized/out-of-sequence frame
ERR_CONFLICT = "conflict"  # session already attached to a connection
ERR_COMPILE = "compile"  # ruleset failed to compile
ERR_CHECKPOINT = "checkpoint"  # resume rejected (fingerprint/state)
ERR_DRAIN = "drain"  # server is draining
ERR_MIGRATE = "migrate"  # session parked for re-homing; reconnect after
ERR_BREAKER = "breaker"  # tenant circuit breaker open; retry_after set
ERR_INTERNAL = "internal"


# ``json.dumps`` with these options builds an encoder per call; one serves.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One frame as wire bytes (compact JSON + newline)."""
    return _ENCODER.encode(obj).encode() + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line, or raise :class:`ProtocolError`."""
    try:
        obj = json.loads(line)
    except ValueError as err:
        raise ProtocolError(
            f"unparsable frame: {err}", phase="serve"
        ) from err
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame is not an object: {type(obj).__name__}", phase="serve"
        )
    op = obj.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("frame has no op", phase="serve")
    return obj


def send_frame(writer: asyncio.StreamWriter, obj: dict[str, Any]) -> None:
    """Queue one frame on the transport (call ``drain`` to bound it)."""
    writer.write(encode_frame(obj))


async def read_frame(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> dict[str, Any] | None:
    """The next frame, ``None`` at EOF.

    Raises :class:`ProtocolError` for malformed or oversized lines and
    ``asyncio.TimeoutError`` when ``timeout`` (the read deadline)
    expires first.
    """
    try:
        line = await asyncio.wait_for(reader.readline(), timeout)
    except ValueError as err:
        # StreamReader signals an over-limit line as ValueError (via
        # LimitOverrunError); the connection is unrecoverable at that
        # point — there is no resync boundary inside a torn line.
        raise ProtocolError(
            f"frame exceeds the size limit: {err}", phase="serve"
        ) from err
    if not line:
        return None
    if not line.endswith(b"\n"):
        # A final fragment without its newline: the peer died mid-frame.
        raise ProtocolError("truncated frame at EOF", phase="serve")
    return decode_frame(line)


__all__ = [
    "ERR_ADMISSION",
    "ERR_BREAKER",
    "ERR_CHECKPOINT",
    "ERR_COMPILE",
    "ERR_CONFLICT",
    "ERR_DRAIN",
    "ERR_INTERNAL",
    "ERR_MIGRATE",
    "ERR_PROTOCOL",
    "ERR_SHED",
    "MAX_FRAME_BYTES",
    "PROTOCOL",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "send_frame",
]
