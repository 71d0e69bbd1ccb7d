"""The one way this package puts bytes on disk.

Everything persisted — compiled rulesets, calibration blobs, generated
``.so`` kernels, scan checkpoints — is published the same way, and every
JSON artefact wears the same checksummed envelope::

    {"format": ..., "entry_version": N,
     "checksum": sha256(payload), "payload": "<JSON text>"}

* :func:`publish` writes a temp file beside the target and renames it
  over the target, so a reader sees the old file or the new one, never a
  torn one; racing publishers of one path each land a complete file.
  ``durable=True`` fsyncs the file before the rename — the caller owns
  the directory fsync that makes the rename itself survive power loss.
  A process killed mid-publish orphans a dot-prefixed ``*.tmp``, which
  no reader globs and no cache budget evicts.
* :func:`overwrite` writes a file in place and syncs it once, for a caller
  that keeps the previous version elsewhere: a crash leaves this file torn.
* :func:`seal` / :func:`dump` / :func:`load` wrap and verify the
  envelope.  The checksum covers the exact payload text, so truncation,
  bit rot or a foreign file is caught positively before any
  deserializer runs; what a failed entry *means* (evict and recompile,
  fall back to the other checkpoint) stays with the caller.

The versions of the on-disk boundaries live here too, one each (the
fourth boundary, the wire, is ``repro.serve.protocol.PROTOCOL_VERSION``).
None names a backend: every backend reads and writes the same bytes.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import tempfile
import time
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

BLOCK = 4096  # in-place files are whole blocks: fdatasync never journals a size
HEAD = 160  # leading bytes that hold an envelope's checksum: equal heads, equal files

# What a compiled artefact means: the ruleset document, a calibration
# blob, the compile-cache key and the generated C's header carry it.
PLAN_VERSION = 1
# What a mid-stream document means: kernel and NBVA scanner state, a
# durable-scan snapshot, a served session's envelope.  3: an NBVA array's
# stalls are one count in the snapshot, no BV-cycle position is kept.
STATE_VERSION = 3
# This envelope's own layout (its ``entry_version``).
STORE_VERSION = 1


class EnvelopeError(Exception):
    """A file that is not an intact envelope; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def publish(path: str | Path, data: bytes, *, durable: bool = False) -> None:
    """Atomically make ``data`` the content of ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            if durable:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def overwrite(path: str | Path, data: bytes, dirfd: int) -> float:
    """Durably make ``data`` the content of ``path``, in place: one
    ``pwrite``, one ``fdatasync``; the write that creates the file (or
    finds it empty, as a killed creator left it) pays ``fsync`` plus one
    of ``dirfd``, its directory.  Returns the seconds spent syncing.  A
    short write is ``ENOSPC``; after a failure or a crash the file is torn.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600)
    try:
        size = os.fstat(fd).st_size
        if os.pwrite(fd, data, 0) != len(data):
            raise OSError(errno.ENOSPC, f"short write to {path}")
        if size > len(data):
            os.ftruncate(fd, len(data))
        started = time.perf_counter()
        if size:
            getattr(os, "fdatasync", os.fsync)(fd)
        else:
            os.fsync(fd)
            with contextlib.suppress(OSError):  # best-effort, as everywhere
                os.fsync(dirfd)
        return time.perf_counter() - started
    finally:
        os.close(fd)


def head(path: str | Path) -> bytes:
    """The first :data:`HEAD` bytes of ``path``; empty when it is absent."""
    with contextlib.suppress(FileNotFoundError):
        fd = os.open(path, os.O_RDONLY)
        try:
            return os.pread(fd, HEAD, 0)
        finally:
            os.close(fd)
    return b""


def seal(payload: str, *, format: str, block: int = 1) -> bytes:
    """``payload`` (JSON text) inside a checksummed envelope, padded to a
    multiple of ``block`` bytes with newlines, which :func:`load` ignores."""
    # ``json.dumps`` of the dict {format, entry_version, checksum,
    # payload}, written directly: the payload is escaped once, not parsed.
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    data = (
        f'{{"format": {quote(format)}, "entry_version": {STORE_VERSION}, '
        f'"checksum": "{checksum}", "payload": {quote(payload)}}}'
    ).encode()
    return data + b"\n" * (-len(data) % block)


def canonical(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, for
    the small values a document's owner does not lay out itself."""
    if isinstance(value, str):
        return quote(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical, value)) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{quote(k)}:{canonical(v)}" for k, v in items) + "}"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text)
    return int.__repr__(value)


def dump(path: str | Path, payload: str, *, format: str) -> None:
    """Publish ``payload`` (JSON text) inside a checksummed envelope."""
    publish(path, seal(payload, format=format))


def load(path: str | Path, *, format: str | None = None) -> str:
    """The verified payload text of the envelope at ``path``.

    Raises :class:`EnvelopeError` for anything but an intact envelope of
    :data:`STORE_VERSION` (and ``format``, when given); a missing file is
    the caller's ``FileNotFoundError``.
    """
    try:
        with open(path) as f:
            document = json.load(f)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as err:
        raise EnvelopeError(f"unreadable entry: {err}") from err
    if not isinstance(document, dict) or "checksum" not in document:
        raise EnvelopeError("missing checksum envelope")
    if format is not None and document.get("format") != format:
        raise EnvelopeError(f"format {document.get('format')!r}, not {format!r}")
    if document.get("entry_version") != STORE_VERSION:
        raise EnvelopeError(
            f"entry version {document.get('entry_version')!r} "
            f"(this build reads {STORE_VERSION})"
        )
    payload = document.get("payload")
    if not isinstance(payload, str):
        raise EnvelopeError("payload missing")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != document["checksum"]:
        raise EnvelopeError(
            f"checksum mismatch: entry says {document['checksum']!r}, "
            f"payload hashes to {digest!r}"
        )
    return payload


__all__ = [
    "PLAN_VERSION",
    "STATE_VERSION",
    "STORE_VERSION",
    "EnvelopeError",
    "canonical",
    "dump",
    "head",
    "load",
    "overwrite",
    "publish",
    "seal",
]
