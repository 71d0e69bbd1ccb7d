"""One encode per checkpoint: slot bytes against the dict-and-dumps path.

A checkpoint's document is canonical JSON text written from fragments
the scan keeps (``DurableScan.snapshot_text``), wrapped by concatenation
(``CheckpointStore.write``) and sealed without a second ``json.dumps``
(``envelope.seal``).  The dict builders and the double encode they
replaced live on here only as the oracle: at every checkpoint offset the
bytes a slot receives must equal what that path wrote.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.automata.nbva import NBVAState
from repro.core import use_backend
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CHECKPOINT_FORMAT, CheckpointStore, DurableScan
from repro.hardware.config import DEFAULT_CONFIG
from repro.io import envelope
from repro.io.envelope import STATE_VERSION, STORE_VERSION
from repro.serve.registry import TenantRegistry
from repro.serve.session import SESSION_FORMAT, ScanSession
from repro.simulators.rap import bind
from tests.conformance.cells import HOST, pinned
from tests.serve.util import ALT_PATTERNS, PATTERNS, entry_for, make_data

EVERY = 300  # bytes between the checkpoints of a 2 000-byte pinned case


def old_state(state) -> dict:
    """A scanner frontier as its ``snapshot()`` dict was built."""
    if isinstance(state, NBVAState):
        vectors = [[pid, f"{vec:x}"] for pid, vec in state.vectors]
        return {
            "version": STATE_VERSION,
            "offset": state.offset,
            "active": f"{state.active:x}",
            "vectors": vectors,
        }
    return {
        "version": STATE_VERSION,
        "offset": state.offset,
        "states": f"{state.states:x}",
    }


def old_snapshot(scan: DurableScan) -> dict:
    """``DurableScan.snapshot`` as a dict tree over its collectors."""
    scan._sync()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": STATE_VERSION,
        "fingerprint": scan.fingerprint,
        "offset": scan.offset,
        "input_sha": scan._hasher.copy().hexdigest(),
        "regex": [
            [
                rid,
                {
                    "scanner": old_state(c.state),
                    "stats": dataclasses.asdict(c._stats),
                    "matches": list(c.matches),
                },
            ]
            for rid, c in sorted(scan._regex.items())
        ],
        "bins": [
            [
                index,
                bin_index,
                {
                    "state": old_state(c.state),
                    "cycles": c.cycles,
                    "matches": [[rid, list(e)] for rid, e in sorted(c.matches.items())],
                    "tile_active_cycles": list(c.tile_active_cycles),
                    "tile_active_bits": list(c.tile_active_bits),
                },
            ]
            for (index, bin_index), c in sorted(scan._bins.items())
        ],
        "stalls": sorted(map(list, scan._stalls.items())),
        "shed": sorted(list(key) for key in scan._shed),
        "quarantine": [dataclasses.asdict(e) for e in scan.quarantine_entries],
    }
    if scan._detached:
        doc["detached"] = True
    return doc


def old_envelope(session: ScanSession) -> dict:
    """``ScanSession.envelope`` as a dict around the scan's tree."""
    return {
        "serve_format": SESSION_FORMAT,
        "serve_version": STATE_VERSION,
        "tenant": session.tenant,
        "session": session.id,
        "patterns": list(session.entry.patterns),
        "generation": session.entry.generation,
        "weight": session.weight,
        "epoch_start": session.epoch_start,
        "prior_matches": session.prior_matches,
        "prior_energy_uj": session.prior_energy_uj,
        "emitted": sorted(session._emitted.items()),
        "scan": old_snapshot(session.scan),
    }


def old_slot(doc: dict, order: tuple[int, int]) -> bytes:
    """A slot's bytes as the store (one ``json.dumps``) and the envelope
    (a second, re-escaping the first) wrote them."""
    entry = {"doc": doc, "order": order}
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    data = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "entry_version": STORE_VERSION,
            "checksum": checksum,
            "payload": payload,
        }
    ).encode()
    return data + b"\n" * (-len(data) % envelope.BLOCK)


@pytest.fixture
def written(monkeypatch) -> list[bytes]:
    """Every slot write's bytes, in order."""
    out, overwrite = [], envelope.overwrite

    def record(path, data, dirfd):
        out.append(data)
        return overwrite(path, data, dirfd)

    monkeypatch.setattr(envelope, "overwrite", record)
    return out


@pytest.mark.parametrize("backend", HOST)
@pytest.mark.parametrize("name", ["keywords64", "snort_nfa64", "snort_mix16"])
def test_durable_scan_slots_equal_the_double_encode(
    name, backend, written, tmp_path, monkeypatch
):
    case = pinned(name)
    expected, text = [], DurableScan.snapshot_text

    def snapshot_text(scan):
        order = (scan.offset, len(expected) + 1)  # a fresh store counts from 1
        expected.append(old_slot(old_snapshot(scan), order))
        return text(scan)

    monkeypatch.setattr(DurableScan, "snapshot_text", snapshot_text)
    config = EngineConfig(
        backend=backend, checkpoint_dir=str(tmp_path), checkpoint_every_bytes=EVERY
    )
    outcome = BatchEngine(config).durable_scan(case.ruleset(), case.data)
    assert outcome.checkpoints_written == (len(case.data) - 1) // EVERY
    assert written == expected


@pytest.mark.parametrize("backend", HOST)
def test_shed_and_detached_slots_equal_the_double_encode(backend, written, tmp_path):
    """Quarantine entries (one with a non-ASCII reason), shed units and
    the ``detached`` key of a chain-digest lineage."""
    case = pinned("snort_mix16")
    ruleset, data = case.ruleset(), case.data
    store, expected = CheckpointStore(tmp_path), []

    def checkpoint(scan):
        order = (scan.offset, len(expected) + 1)
        expected.append(old_slot(old_snapshot(scan), order))
        store.write(scan.snapshot_text(), scan.offset)

    with use_backend(backend):
        mapping = bind(ruleset, DEFAULT_CONFIG).mapping
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG, weights={0: 0.5})
        scan.feed(data[:700], at_end=False)
        scan.shed(0.5, "budget: 1.5 s > 1 s — shed")
        scan.feed(data[700:1200], at_end=False)
        checkpoint(scan)
        detached = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        detached.restore_detached(scan.snapshot())
        detached.feed(data[1200:], at_end=True)
        checkpoint(detached)
    assert scan.quarantine_entries and scan._shed
    assert written == expected


@pytest.mark.parametrize("backend", HOST)
def test_session_envelope_slots_equal_the_double_encode(backend, written, tmp_path):
    """Across a hot-reload rotation: an epoch start, prior matches and a
    prior energy with every digit of its float."""
    registry, data, expected = TenantRegistry(), make_data(), []
    store = CheckpointStore(tmp_path, session="tenant/ü")
    with use_backend(backend):
        entry = entry_for(registry, PATTERNS, tenant="tenant", generation=3)
        session = ScanSession("tenant", "ü", entry, store, registry.hw, weight=2.5)
        for at in range(0, len(data), 700):
            if at == 2800:
                session.maybe_swap(entry_for(registry, ALT_PATTERNS, generation=4))
            session.feed(data[at : at + 700])
            session.total_energy_uj()
            order = (session.offset, len(expected) + 1)
            expected.append(old_slot(old_envelope(session), order))
            assert session.checkpoint()
    assert session.prior_matches and session.prior_energy_uj and session._emitted
    assert written == expected


def test_a_durable_scan_runs_no_json_encoder(tmp_path, monkeypatch):
    """The single-encode property: no ``json.dumps`` and no
    ``JSONEncoder.encode`` between the first fed byte and the result."""
    case = pinned("keywords64")
    config = EngineConfig(checkpoint_dir=str(tmp_path), checkpoint_every_bytes=EVERY)
    engine = BatchEngine(config)
    engine.durable_scan(case.ruleset(), case.data)  # binds and builds uncounted
    calls, dumps, encode = [], json.dumps, json.JSONEncoder.encode

    def counted_dumps(*args, **kwargs):
        calls.append("dumps")
        return dumps(*args, **kwargs)

    def counted_encode(self, value):
        calls.append("encode")
        return encode(self, value)

    monkeypatch.setattr(json, "dumps", counted_dumps)
    monkeypatch.setattr(json.JSONEncoder, "encode", counted_encode)
    outcome = engine.durable_scan(case.ruleset(), case.data)
    assert outcome.checkpoints_written == (len(case.data) - 1) // EVERY
    assert calls == []
