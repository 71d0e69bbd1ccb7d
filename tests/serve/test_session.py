"""ScanSession tests: segment deferral, envelopes, epoch rotation.

The session is the durability unit of the service; these tests prove
its state machine without sockets: a checkpointed envelope restored in
a *fresh* registry (another worker) continues bit-identically, and a
hot-reload swap prices each epoch under the ruleset that scanned it.
"""

import json

import pytest

from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.errors import CheckpointError
from repro.serve.registry import TenantRegistry
from repro.serve.session import ScanSession
from repro.simulators.rap import RAPSimulator
from tests.serve.util import ALT_PATTERNS, PATTERNS, entry_for

SEGMENT = 700


def build_session(registry, tmp_path, patterns=PATTERNS, generation=1):
    store = CheckpointStore(tmp_path / "ck", session="t/s")
    entry = entry_for(registry, patterns, generation=generation)
    return ScanSession("t", "s", entry, store, registry.hw)


def feed_range(session, data, start, stop):
    events = []
    for at in range(start, stop, SEGMENT):
        events.extend(session.feed(data[at : at + SEGMENT]))
    return events


class TestStreaming:
    def test_final_segment_is_deferred_for_end_anchors(
        self, registry, data, golden, tmp_path
    ):
        session = build_session(registry, tmp_path)
        events = feed_range(session, data, 0, len(data))
        # The last segment is still pending: it has not been scanned,
        # so the end-anchored pattern cannot have fired yet.
        assert session.pending_bytes > 0
        assert session.offset == len(data) - session.pending_bytes
        before_end = session.total_matches()
        events.extend(session.end())
        assert session.pending_bytes == 0
        assert session.offset == len(data)
        matches, energy = golden
        assert session.total_matches() == matches > before_end
        assert session.total_energy_uj() == energy
        assert len(events) == matches
        assert events == sorted(events)

    def test_park_drops_pending_bytes(self, registry, data, tmp_path):
        session = build_session(registry, tmp_path)
        session.feed(data[:SEGMENT])
        assert session.pending_bytes == SEGMENT
        assert session.offset == 0  # nothing durably consumed yet
        session.park()
        assert session.pending_bytes == 0
        assert session.offset == 0


class TestEnvelope:
    def test_roundtrip_resumes_bit_identically(
        self, registry, data, golden, tmp_path
    ):
        session = build_session(registry, tmp_path)
        split = (len(data) // 2 // SEGMENT) * SEGMENT
        first_events = feed_range(session, data, 0, split)
        session.park()  # what the server does before detaching
        # Through JSON, as the checkpoint store would persist it.
        envelope = json.loads(json.dumps(session.envelope()))

        # Another worker: fresh registry (recompile is a cache hit),
        # fresh store object.
        other = TenantRegistry()
        store = CheckpointStore(tmp_path / "ck2", session="t/s")
        resumed = ScanSession.from_envelope(envelope, other, store)
        assert resumed.offset == session.offset
        assert resumed.generation == session.generation
        rest = feed_range(resumed, data, resumed.offset, len(data))
        rest.extend(resumed.end())
        matches, energy = golden
        assert resumed.total_matches() == matches
        assert resumed.total_energy_uj() == energy
        # Emitted counts persisted: the resumed session emits exactly
        # the events the first one had not, with no replays.
        combined = sorted(first_events + rest)
        assert len(combined) == matches
        assert len({tuple(e) for e in combined}) == matches

    def test_checkpoint_persists_through_store(
        self, registry, data, tmp_path
    ):
        session = build_session(registry, tmp_path)
        feed_range(session, data, 0, 3 * SEGMENT)
        session.park()
        assert session.checkpoint() is True
        loaded = session.store.load_latest()
        assert loaded["serve_format"] == "rap-serve-session"
        assert loaded["tenant"] == "t"
        assert loaded["patterns"] == list(PATTERNS)
        assert loaded["scan"]["offset"] == session.offset

    def test_wrong_format_rejected(self, registry, data, tmp_path):
        session = build_session(registry, tmp_path)
        envelope = session.envelope()
        envelope["serve_format"] = "something-else"
        with pytest.raises(CheckpointError, match="serve_format"):
            ScanSession.from_envelope(envelope, registry, session.store)

    def test_wrong_version_rejected(self, registry, tmp_path):
        session = build_session(registry, tmp_path)
        envelope = session.envelope()
        envelope["serve_version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            ScanSession.from_envelope(envelope, registry, session.store)

    def test_parent_envelope_is_refused_naming_the_store(
        self, registry, data, tmp_path
    ):
        """An envelope the previous state version wrote is refused by
        version, naming the store and the ways out, and stays stored."""
        from tests.engine.test_checkpoint import _as_the_parent_wrote

        session = build_session(registry, tmp_path)
        feed_range(session, data, 0, 3 * SEGMENT)
        session.park()
        envelope = json.loads(json.dumps(session.envelope()))
        parent = _as_the_parent_wrote(envelope, "f" * 64)
        session.store.write(parent, session.offset)
        with pytest.raises(CheckpointError) as info:
            ScanSession.from_envelope(
                session.store.load_latest(), registry, session.store
            )
        said = str(info.value)
        assert said.startswith(
            "unsupported serve session version 1 (this build reads 2)"
        )
        assert str(session.store.root) in said and "without --resume" in said
        assert session.store.load_latest() == parent

    def test_missing_field_is_structured(self, registry, tmp_path):
        session = build_session(registry, tmp_path)
        envelope = session.envelope()
        del envelope["epoch_start"]
        with pytest.raises(CheckpointError, match="malformed"):
            ScanSession.from_envelope(envelope, registry, session.store)

    def test_weight_override(self, registry, tmp_path):
        session = build_session(registry, tmp_path)
        session.weight = 3.0
        envelope = json.loads(json.dumps(session.envelope()))
        kept = ScanSession.from_envelope(envelope, registry, session.store)
        assert kept.weight == 3.0
        forced = ScanSession.from_envelope(
            envelope, registry, session.store, weight=7.0
        )
        assert forced.weight == 7.0


class TestHotReload:
    def test_identical_fingerprint_swap_is_a_noop(
        self, registry, data, tmp_path
    ):
        session = build_session(registry, tmp_path)
        session.feed(data[:SEGMENT])
        scan = session.scan
        entry = session.entry
        # A new generation compiling to the same fingerprint: no-op.
        same = entry_for(registry, PATTERNS, generation=2)
        assert session.maybe_swap(same) is None
        assert session.scan is scan
        assert session.entry is entry
        assert session.pending_bytes == SEGMENT  # nothing flushed

    def test_swap_prices_each_epoch_under_its_own_ruleset(
        self, registry, data, tmp_path
    ):
        split = 4 * SEGMENT
        session = build_session(registry, tmp_path)
        events = feed_range(session, data, 0, split)
        new_entry = entry_for(registry, ALT_PATTERNS, generation=2)
        flushed = session.maybe_swap(new_entry)
        assert flushed is not None
        events.extend(flushed)
        assert session.epoch_start == split
        assert session.offset == split
        assert session.generation == 2
        events.extend(feed_range(session, data, split, len(data)))
        events.extend(session.end())

        # Two-epoch golden: the old ruleset over the first span (never
        # at-end — the stream continued), the new one over the rest.
        old = entry_for(registry, PATTERNS)
        scan_a = DurableScan(old.ruleset, old.mapping, registry.hw)
        scan_a.feed(data[:split], at_end=False)
        matches_a = sum(len(e) for e in scan_a.match_lists().values())
        energy_a = RAPSimulator(registry.hw).run_from_activity(
            old.ruleset, scan_a.finish(), old.mapping
        ).energy_uj
        scan_b = DurableScan(
            new_entry.ruleset, new_entry.mapping, registry.hw
        )
        scan_b.feed(data[split:], at_end=True)
        matches_b = sum(len(e) for e in scan_b.match_lists().values())
        energy_b = RAPSimulator(registry.hw).run_from_activity(
            new_entry.ruleset, scan_b.finish(), new_entry.mapping
        ).energy_uj

        assert session.total_matches() == matches_a + matches_b
        assert session.total_energy_uj() == energy_a + energy_b
        assert len(events) == matches_a + matches_b
