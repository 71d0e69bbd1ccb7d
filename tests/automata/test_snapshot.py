"""Snapshot/restore round-trip properties for every execution model.

The durable-scan invariant: feeding a stream in arbitrary segments —
with the scanner's full state serialized to JSON and restored into a
*fresh* scanner between every segment — produces exactly the matches
and stats of one uninterrupted whole-stream run, on every backend.
Checkpoint/resume correctness reduces to this property.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.glushkov import build_automaton
from repro.automata.nbva import NBVASimulator, NBVAStats
from repro.automata.nfa import NFASimulator, StepStats
from repro.automata.shift_and import MultiShiftAnd, ShiftAnd, ShiftAndStats
from repro.compiler import compile_pattern
from repro.core import available_backends, use_backend
from repro.regex.parser import parse
from repro.regex.rewrite import unfold_all

from tests.automata.test_lnfa import lnfa_strategy
from tests.helpers import inputs, regex_trees, segments_of

BACKENDS = available_backends()

anchor_flags = st.booleans()
# Random cut points, mapped into [0, len(data)] per example.
cut_seeds = st.lists(st.integers(0, 10_000), max_size=6)


def roundtrip(scanner, doc_factory):
    """Serialize a scanner's snapshot through real JSON and restore it
    into a brand-new scanner instance (what a resumed process does)."""
    doc = json.loads(json.dumps(scanner.snapshot()))
    fresh = doc_factory()
    fresh.restore(doc)
    return fresh


class TestNFAScanner:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(
        regex_trees(max_leaves=6),
        inputs(max_size=24),
        anchor_flags,
        anchor_flags,
        cut_seeds,
    )
    def test_segmented_roundtrip_equals_whole(
        self, backend, tree, data, astart, aend, seeds
    ):
        sim = NFASimulator(build_automaton(unfold_all(tree)))
        anchors = dict(anchored_start=astart, anchored_end=aend)
        with use_backend(backend):
            ref_stats = StepStats()
            ref = sim.find_matches(data, ref_stats, **anchors)
            scanner = sim.scanner(**anchors)
            stats = StepStats()
            matches = []
            n = len(data)
            consumed = 0
            for segment in segments_of(data, seeds):
                consumed += len(segment)
                matches.extend(
                    scanner.feed(segment, stats, at_end=(consumed == n))
                )
                scanner = roundtrip(scanner, lambda: sim.scanner(**anchors))
        assert matches == ref
        assert stats == ref_stats

    def test_restore_rejects_garbage(self):
        sim = NFASimulator(build_automaton(unfold_all(parse("abc"))))
        scanner = sim.scanner()
        with pytest.raises(ValueError):
            scanner.restore({"nonsense": 1})
        with pytest.raises(ValueError):
            scanner.restore({"version": 999, "offset": 0, "states": "0"})


class TestShiftAndScanner:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(
        lnfa_strategy(),
        inputs(max_size=20),
        anchor_flags,
        anchor_flags,
        cut_seeds,
    )
    def test_segmented_roundtrip_equals_whole(
        self, backend, lnfa, data, astart, aend, seeds
    ):
        machine = ShiftAnd(lnfa)
        anchors = dict(anchored_start=astart, anchored_end=aend)
        with use_backend(backend):
            ref_stats = ShiftAndStats()
            ref = machine.find_matches(data, ref_stats, **anchors)
            scanner = machine.scanner(**anchors)
            stats = ShiftAndStats()
            matches = []
            n = len(data)
            consumed = 0
            for segment in segments_of(data, seeds):
                consumed += len(segment)
                matches.extend(
                    scanner.feed(segment, stats, at_end=(consumed == n))
                )
                scanner = roundtrip(
                    scanner, lambda: machine.scanner(**anchors)
                )
        assert matches == ref
        assert stats == ref_stats


class TestMultiShiftAndScanner:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(lnfa_strategy(max_len=4), min_size=1, max_size=5),
        st.lists(st.tuples(anchor_flags, anchor_flags), min_size=5, max_size=5),
        inputs(max_size=16),
        cut_seeds,
    )
    def test_segmented_roundtrip_equals_whole(
        self, backend, lnfas, anchor_list, data, seeds
    ):
        packed = MultiShiftAnd(lnfas, anchors=anchor_list[: len(lnfas)])
        with use_backend(backend):
            ref_stats = ShiftAndStats()
            ref = packed.find_matches(data, ref_stats)
            scanner = packed.scanner()
            stats = ShiftAndStats()
            matches = []
            n = len(data)
            consumed = 0
            for segment in segments_of(data, seeds):
                consumed += len(segment)
                matches.extend(
                    scanner.feed(segment, stats, at_end=(consumed == n))
                )
                scanner = roundtrip(scanner, packed.scanner)
        assert matches == ref
        assert stats == ref_stats


NBVA_PATTERNS = ["ab{10,20}c", "x.{4,9}y", "a+b{12,}c"]


class TestNBVAScanner:
    @pytest.mark.parametrize("pattern", NBVA_PATTERNS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(
        inputs(alphabet="abcxy", max_size=40),
        anchor_flags,
        anchor_flags,
        cut_seeds,
    )
    def test_segmented_roundtrip_equals_whole(
        self, pattern, backend, data, astart, aend, seeds
    ):
        compiled = compile_pattern(pattern, 0)
        sim = NBVASimulator(compiled.automaton)
        anchors = dict(anchored_start=astart, anchored_end=aend)
        with use_backend(backend):
            ref_stats = NBVAStats(bv_cycle_indices=[])
            ref = sim.find_matches(data, ref_stats, **anchors)
            scanner = sim.scanner(**anchors)
            stats = NBVAStats(bv_cycle_indices=[])
            matches = []
            n = len(data)
            consumed = 0
            for segment in segments_of(data, seeds):
                consumed += len(segment)
                matches.extend(
                    scanner.feed(segment, stats, at_end=(consumed == n))
                )
                scanner = roundtrip(scanner, lambda: sim.scanner(**anchors))
        assert matches == ref
        # Full stats equality including per-cycle BV indices: the
        # counter vectors round-tripped bit for bit.
        assert dataclasses.asdict(stats) == dataclasses.asdict(ref_stats)

    def test_restore_rejects_wrong_offset_resume(self):
        compiled = compile_pattern("ab{10,20}c", 0)
        sim = NBVASimulator(compiled.automaton)
        scanner = sim.scanner()
        scanner.feed(b"abbbb", at_end=False)
        doc = scanner.snapshot()
        doc["version"] = 999
        with pytest.raises(ValueError):
            sim.scanner().restore(doc)
