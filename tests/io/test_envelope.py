"""The one atomic-file + checksummed-envelope module."""

import hashlib
import json
import os

import pytest

from repro.io import envelope
from repro.io.envelope import EnvelopeError


def test_dump_writes_the_envelope_bytes_every_store_always_wrote(tmp_path):
    path = tmp_path / "entry.json"
    envelope.dump(path, '{"a":1}', format="rap-test")
    assert path.read_bytes() == json.dumps(
        {
            "format": "rap-test",
            "entry_version": envelope.STORE_VERSION,
            "checksum": hashlib.sha256(b'{"a":1}').hexdigest(),
            "payload": '{"a":1}',
        }
    ).encode()
    assert envelope.load(path) == '{"a":1}'
    assert envelope.load(path, format="rap-test") == '{"a":1}'
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_missing_file_is_the_callers_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        envelope.load(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mangle, reason",
    [
        (lambda doc: "{ torn", "unreadable entry"),
        (lambda doc: b"\xff\xfe\x00", "unreadable entry"),
        (lambda doc: json.dumps([1, 2]), "missing checksum envelope"),
        (lambda doc: json.dumps({"payload": "x"}), "missing checksum envelope"),
        (lambda doc: json.dumps({**doc, "format": "other"}), "format 'other'"),
        (lambda doc: json.dumps({**doc, "entry_version": 9}), "entry version 9"),
        (lambda doc: json.dumps({**doc, "payload": None}), "payload missing"),
        (lambda doc: json.dumps({**doc, "payload": "[2]"}), "checksum mismatch"),
    ],
)
def test_anything_but_an_intact_envelope_says_why(tmp_path, mangle, reason):
    path = tmp_path / "entry.json"
    envelope.dump(path, "[1]", format="rap-test")
    mangled = mangle(json.loads(path.read_text()))
    path.write_bytes(mangled if isinstance(mangled, bytes) else mangled.encode())
    with pytest.raises(EnvelopeError) as info:
        envelope.load(path, format="rap-test")
    assert reason in info.value.reason == str(info.value)


def test_failed_publish_leaves_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "entry.bin"
    envelope.publish(path, b"old")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        envelope.publish(path, b"new", durable=True)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]


def test_overwrite_writes_in_place_and_load_ignores_the_padding(tmp_path):
    path = tmp_path / "slot.json"
    assert envelope.head(path) == b""  # absent
    first = envelope.seal('{"a":1}', format="rap-test", block=envelope.BLOCK)
    assert len(first) == envelope.BLOCK and first.endswith(b"\n\n")
    assert first.rstrip(b"\n") == envelope.seal('{"a":1}', format="rap-test")
    dirfd = os.open(tmp_path, os.O_RDONLY)
    assert envelope.overwrite(path, first, dirfd) >= 0.0
    inode = path.stat().st_ino
    assert path.read_bytes() == first
    assert envelope.load(path, format="rap-test") == '{"a":1}'
    # the head holds the checksum: equal heads, equal contents
    assert envelope.head(path) == first[: envelope.HEAD]
    assert hashlib.sha256(b'{"a":1}').hexdigest().encode() in envelope.head(path)
    longer = envelope.seal(
        json.dumps("x" * 5000), format="rap-test", block=envelope.BLOCK
    )
    for data in (longer, first):  # grows, then shrinks: the same file, no tail
        envelope.overwrite(path, data, dirfd)
        assert path.read_bytes() == data and path.stat().st_ino == inode
        assert envelope.head(path) == data[: envelope.HEAD]
    os.close(dirfd)
    assert [p.name for p in tmp_path.iterdir()] == ["slot.json"]


def test_short_overwrite_is_enospc(tmp_path, monkeypatch):
    path = tmp_path / "slot.json"
    dirfd = os.open(tmp_path, os.O_RDONLY)
    envelope.overwrite(path, b"old" * 100, dirfd)
    monkeypatch.setattr(os, "pwrite", lambda fd, data, at: len(data) - 1)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as info:
        envelope.overwrite(path, b"new" * 100, dirfd)
    assert info.value.errno == 28
    assert len(os.listdir("/proc/self/fd")) == before  # the descriptor is closed
    os.close(dirfd)
