"""ScanSession tests: segment deferral, envelopes, epoch rotation.

The session is the durability unit of the service; these tests prove
its state machine without sockets: a checkpointed envelope restored in
a *fresh* registry (another worker) continues bit-identically, and a
hot-reload swap prices each epoch under the ruleset that scanned it.
"""

import json
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import use_backend
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.errors import CheckpointError
from repro.serve.client import serial_totals
from repro.serve.registry import TenantRegistry
from repro.serve.session import ScanSession
from repro.simulators.rap import RAPSimulator
from tests.conformance.cells import HOST
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

    def test_an_empty_segment_keeps_the_final_one_pending(self, registry, tmp_path):
        session = build_session(registry, tmp_path)
        assert session.feed(b"xend") == session.feed(b"") == []
        assert session.pending_bytes == 4
        assert [3, PATTERNS.index("end$")] in session.end()

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


# Segments drawn from witnesses of PATTERNS and ALT_PATTERNS.
PIECES = [b"abc", b"a.c", b"xyyz", b"hello", b"world", b"end", b"zzz", b" "]


class SessionMachine(RuleBasedStateMachine):
    """One served session driven by feed, park, resume (the envelope
    restored on a drawn backend), hot reload and end.  The model: the
    durable offset never moves back; the events, deduplicated by
    ``(end, rid)``, are the serial scan of the bytes each ruleset epoch
    consumed; the totals are ``serial_totals``.  End anchors fire only
    in a segment still held at ``end``: once park or resume dropped the
    held one, the bytes before it were fed knowing more would follow."""

    def __init__(self):
        super().__init__()
        self.registry = TenantRegistry(BatchEngine(EngineConfig(use_cache=False)))
        self.store = CheckpointStore(tempfile.mkdtemp(), session="t/s")
        entry = entry_for(self.registry, PATTERNS)
        self.session = ScanSession("t", "s", entry, self.store, self.registry.hw)
        self.epochs = [(PATTERNS, 0, bytearray())]  # patterns, start, bytes fed
        self.events: set[tuple[int, int]] = set()
        self.offset = 0
        self.end_fires = False  # a segment was held when the stream ended

    def _drop_pending(self) -> None:
        """What the session forgets: its held segment (a client replays it)."""
        pending = self.session.pending_bytes
        del self.epochs[-1][2][len(self.epochs[-1][2]) - pending :]

    def _emitted(self, events) -> None:
        self.events.update(map(tuple, events))

    @precondition(lambda self: not self.session.ended)
    @rule(segment=st.lists(st.sampled_from(PIECES), max_size=4).map(b"".join))
    def feed(self, segment):
        self._emitted(self.session.feed(segment))
        self.epochs[-1][2].extend(segment)

    @precondition(lambda self: not self.session.ended)
    @rule()
    def park(self):
        self._drop_pending()
        self.session.park()

    @precondition(lambda self: not self.session.ended)
    @rule(backend=st.sampled_from(HOST))
    def resume(self, backend):
        self._drop_pending()
        envelope = json.loads(json.dumps(self.session.envelope()))
        with use_backend(backend):
            self.session = ScanSession.from_envelope(
                envelope, self.registry, self.store
            )

    @precondition(lambda self: not self.session.ended)
    @rule()
    def maybe_swap(self):
        patterns = ALT_PATTERNS if self.epochs[-1][0] is PATTERNS else PATTERNS
        entry = entry_for(self.registry, patterns, generation=len(self.epochs) + 1)
        flushed = self.session.maybe_swap(entry)
        assert flushed is not None  # the two rulesets differ
        self._emitted(flushed)
        self.epochs.append((patterns, self.session.offset, bytearray()))

    @precondition(lambda self: not self.session.ended)
    @rule()
    def end(self):
        self.end_fires = self.session.pending_bytes > 0
        self._emitted(self.session.end())

    def _serial(self, patterns, data, at_end):
        """(matches by rid, energy) of one uninterrupted scan."""
        ruleset, mapping, _ = self.registry.compile(patterns)
        with use_backend("python"):
            scan = DurableScan(ruleset, mapping, self.registry.hw)
            scan.feed(bytes(data), at_end=at_end)
            energy = RAPSimulator(self.registry.hw).run_from_activity(
                ruleset, scan.finish(), mapping
            ).energy_uj
        return scan.match_lists(), energy

    @invariant()
    def durable_offset_never_moves_back(self):
        assert self.session.offset >= self.offset
        self.offset = self.session.offset

    @invariant()
    def events_are_the_serial_scan_of_each_epoch(self):
        want = set()
        for k, (patterns, start, data) in enumerate(self.epochs):
            live = k == len(self.epochs) - 1
            consumed = data[: len(data) - self.session.pending_bytes * live]
            at_end = live and self.end_fires
            matches, _ = self._serial(patterns, consumed, at_end)
            want |= {(start + e, rid) for rid, ends in matches.items() for e in ends}
        assert self.events == want

    @precondition(lambda self: self.session.ended)
    @rule()
    def totals(self):
        (patterns, _, last), *earlier = reversed(self.epochs)
        matches, energy = 0, 0.0
        for old, _, data in reversed(earlier):
            found, spent = self._serial(old, data, at_end=False)
            matches += sum(map(len, found.values()))
            energy += spent
        if self.end_fires:
            final = serial_totals(patterns, [bytes(last)], self.registry)
        else:
            found, spent = self._serial(patterns, last, at_end=False)
            final = sum(map(len, found.values())), spent
        assert self.session.total_matches() == matches + final[0]
        assert self.session.total_energy_uj() == energy + final[1]


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)


@pytest.mark.parametrize("bin_size", [None, 1])
def test_a_regex_of_several_lnfa_sequences_reports_each_match_once(bin_size, tmp_path):
    """``a(?:a|.)`` and ``xy|zw`` compile to two LNFA sequences each; the
    first pair ends together on every ``aa``.  In one bin, or
    (``bin_size=1``) one bin per sequence, the session's events and totals
    are the bulk scan's: each match once, none lost."""
    registry = TenantRegistry(bin_size=bin_size)
    entry = entry_for(registry, ["aa", "a(?:a|.)", "xy|zw"])
    assert [len(r.lnfas) for r in entry.ruleset] == [1, 2, 2]
    data = b"xaab.aaaxy.zw"
    store = CheckpointStore(tmp_path, session="t/s")
    session = ScanSession("t", "s", entry, store, registry.hw, bin_size=bin_size)
    events = session.feed(data[:3]) + session.feed(data[3:]) + session.end()
    want = RAPSimulator(registry.hw).run(entry.ruleset, data, bin_size=bin_size)
    assert want.matches == {0: [2, 6, 7], 1: [2, 3, 6, 7, 8], 2: [9, 12]}
    assert sorted(events) == sorted(
        [end, rid] for rid, ends in want.matches.items() for end in ends
    )
    assert session.total_matches() == 10
