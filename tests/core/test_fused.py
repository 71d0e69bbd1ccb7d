"""Fused-machine tests: class maps, lane packing, prefilter.

The fused backend's exactness rests on two mechanical claims, both
driven here by hypothesis:

* the lane-packed machine evolves every unit's projected state word
  bit-identically to a standalone scan of that unit (including the
  cross-unit shift-leak absorption at concatenation boundaries);
* the class-indexed gather scan reproduces the per-program kernel scan
  event-for-event and counter-for-counter.

The module also covers the prefilter's find-chain/LUT parity (label-table
interning is covered in tests/regex).  Skips cleanly without NumPy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.automata.glushkov import build_automaton
from repro.automata.nfa import NFASimulator
from repro.automata.shift_and import MultiShiftAnd
from repro.core import KernelState, available_backends, get_kernel, use_backend
from repro.core.fused import (
    AlphabetClasses,
    FusedRuleset,
    int_from_words,
    words_from_int,
)
from repro.core.registry import resolve_backend
from repro.regex.rewrite import unfold_all

from tests.automata.test_lnfa import lnfa_strategy
from tests.helpers import inputs, regex_trees

pytestmark = pytest.mark.skipif(
    "fused" not in available_backends(),
    reason="fused backend not available",
)


@st.composite
def shift_program_lists(draw, max_packs: int = 3):
    """Lists of packed multi-pattern SHIFT_LEFT programs with anchors."""
    programs = []
    for _ in range(draw(st.integers(1, max_packs))):
        lnfas = draw(st.lists(lnfa_strategy(max_len=4), min_size=1, max_size=3))
        anchors = draw(
            st.lists(
                st.tuples(st.booleans(), st.booleans()),
                min_size=len(lnfas),
                max_size=len(lnfas),
            )
        )
        programs.append(MultiShiftAnd(lnfas, anchors=anchors).program)
    return programs


def lane_words(fused, data, state=0, *, fresh=True):
    """Step every shift program's DFA over ``data`` row by row,
    returning {position: packed word} of the live cycles + the end word."""
    dfas = [fused.lane_dfa(j) for j in range(len(fused.bases))]
    sids = [dfa.intern(fused.extract(state, j)) for j, dfa in enumerate(dfas)]
    rows = {}
    for i, c in enumerate(fused.translate(data).cls_bytes):
        sids = [
            (fresh and i == 0 and dfa.start or dfa.row(sid))[c]
            for dfa, sid in zip(dfas, sids)
        ]
        if any(sids):
            rows[i] = fused.pack([dfa[sid] for dfa, sid in zip(dfas, sids)])
    return rows, fused.pack([dfa[sid] for dfa, sid in zip(dfas, sids)])


class TestLanePacking:
    @settings(max_examples=100, deadline=None)
    @given(shift_program_lists(), inputs(max_size=28))
    def test_every_projected_state_matches_standalone_scan(
        self, programs, data
    ):
        fused = FusedRuleset(programs)
        rows, end = lane_words(fused, data)
        kernel = get_kernel()
        for j, program in enumerate(programs):
            expected_last = 0
            for i, states in kernel.iter_states(program, data):
                assert fused.extract(rows.get(i, 0), j) == states
                expected_last = states
            assert fused.extract(end, j) == expected_last

    @settings(max_examples=60, deadline=None)
    @given(
        shift_program_lists(),
        inputs(max_size=28),
        st.integers(0, 28),
    )
    def test_segmented_feed_equals_whole_stream(self, programs, data, cut):
        cut = min(cut, len(data))
        fused = FusedRuleset(programs)
        whole_rows, whole_end = lane_words(fused, data)
        first, state = lane_words(fused, data[:cut])
        second, end = lane_words(fused, data[cut:], state, fresh=cut == 0)
        stitched = dict(first)
        stitched.update({cut + i: word for i, word in second.items()})
        assert stitched == whole_rows
        assert end == whole_end

    def test_rejects_gather_programs_in_shift_slot(self):
        sim = NFASimulator(build_automaton(unfold_all_tree("ab")))
        with pytest.raises(ValueError, match="SHIFT_LEFT"):
            FusedRuleset([sim.program()])

    def test_pack_extract_roundtrip(self):
        programs = [
            MultiShiftAnd([make_lnfa("abc")]).program,
            MultiShiftAnd([make_lnfa("xy")]).program,
        ]
        fused = FusedRuleset(programs)
        states = [0b101, 0b11]
        packed = fused.pack(states)
        assert [fused.extract(packed, j) for j in range(2)] == states


class TestClassIndexedGather:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(regex_trees(max_leaves=5), min_size=1, max_size=3),
        st.lists(lnfa_strategy(max_len=4), min_size=0, max_size=2),
        inputs(max_size=24),
        st.booleans(),
        st.booleans(),
    )
    def test_scan_unit_matches_kernel_scan(
        self, trees, lnfas, data, astart, aend
    ):
        gathers = [
            NFASimulator(build_automaton(unfold_all(tree))).program(
                anchored_start=astart, anchored_end=aend
            )
            for tree in trees
        ]
        shifts = [MultiShiftAnd(lnfas).program] if lnfas else []
        fused = FusedRuleset(shifts, gathers)
        tin = fused.translate(data)
        kernel = get_kernel()
        for index, program in enumerate(gathers):
            expected = kernel.scan(program, data)
            assert fused.scan_unit(index, tin) == expected


class TestAlphabetClasses:
    def test_partition_refines_every_table(self):
        t1 = tuple(1 if b in b"ab" else 0 for b in range(256))
        t2 = tuple(2 if b in b"bc" else 0 for b in range(256))
        classes = AlphabetClasses([t1, t2])
        # a / b / c / everything-else: four distinguishable classes
        assert classes.k == 4
        for table in (t1, t2):
            projected = classes.project(table)
            for byte in range(256):
                assert projected[classes.class_of[byte]] == table[byte]

    def test_no_tables_collapses_to_one_class(self):
        classes = AlphabetClasses([])
        assert classes.k == 1
        assert set(classes.class_of) == {0}


class TestSignature:
    def test_stable_and_layout_sensitive(self):
        a = [MultiShiftAnd([make_lnfa("abc"), make_lnfa("xy")]).program]
        b = [MultiShiftAnd([make_lnfa("abc"), make_lnfa("xz")]).program]
        assert FusedRuleset(a).signature == FusedRuleset(a).signature
        assert FusedRuleset(a).signature != FusedRuleset(b).signature

    def test_gather_units_affect_signature(self):
        shifts = [MultiShiftAnd([make_lnfa("abc")]).program]
        gather = NFASimulator(build_automaton(unfold_all_tree("ab"))).program()
        assert (
            FusedRuleset(shifts).signature
            != FusedRuleset(shifts, [gather]).signature
        )


class TestWordHelpers:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 200) - 1), st.integers(4, 6))
    def test_int_word_roundtrip(self, value, lanes):
        assert int_from_words(words_from_int(value, lanes)) == value


def make_lnfa(text: str):
    """A literal LNFA (one CharClass per byte of ``text``)."""
    from repro.automata.lnfa import LNFA
    from repro.regex.charclass import CharClass

    return LNFA(
        tuple(
            CharClass.any() if ch == "." else CharClass.of(ch) for ch in text
        )
    )


def unfold_all_tree(pattern: str):
    from repro.regex.parser import parse

    return unfold_all(parse(pattern))


def test_fused_backend_registered():
    assert "fused" in available_backends()
    assert resolve_backend("fused") == "fused"
    # A backend names how rulesets execute; the step kernel under
    # standalone scans is the one python oracle whatever is selected.
    assert get_kernel().name == "python"


def test_fused_kernel_scan_segment_roundtrip():
    # Standalone programs step through the one python kernel on the
    # fused backend too; spot check that its segment API returns
    # continuing KernelStates there.
    program = MultiShiftAnd([make_lnfa("abc")]).program
    with use_backend("fused"):
        kernel = get_kernel()
        events, stats, state = kernel.scan_segment(program, b"xxabc", None)
        whole, _ = kernel.scan(program, b"xxabc")
    assert isinstance(state, KernelState)
    assert state.offset == 5
    assert events == whole
