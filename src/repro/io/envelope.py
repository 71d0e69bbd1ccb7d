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
* :func:`dump` / :func:`load` wrap and verify the envelope.  The
  checksum covers the exact payload text, so truncation, bit rot or a
  foreign file is caught positively before any deserializer runs; what
  a failed entry *means* (evict and recompile, fall back to the older
  checkpoint) stays with the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path


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


def dump(
    path: str | Path,
    payload: str,
    *,
    format: str,
    version: int,
    durable: bool = False,
) -> None:
    """Publish ``payload`` (JSON text) inside a checksummed envelope."""
    document = {
        "format": format,
        "entry_version": version,
        "checksum": hashlib.sha256(payload.encode()).hexdigest(),
        "payload": payload,
    }
    publish(path, json.dumps(document).encode(), durable=durable)


def load(path: str | Path, *, version: int, format: str | None = None) -> str:
    """The verified payload text of the envelope at ``path``.

    Raises :class:`EnvelopeError` for anything but an intact envelope of
    this ``version`` (and ``format``, when given); a missing file is the
    caller's ``FileNotFoundError``.
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
    if document.get("entry_version") != version:
        raise EnvelopeError(
            f"entry version {document.get('entry_version')!r} "
            f"(this build reads {version})"
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


__all__ = ["EnvelopeError", "dump", "load", "publish"]
