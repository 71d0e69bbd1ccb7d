"""Differential kernel tests: the fused plan's interpreters must be
bit-identical to the pure-Python kernel.

The backend contract (see :mod:`repro.core.registry`) is that backends
only change speed, never results: the same program over the same bytes
yields the same match events and the same exact integer
:class:`~repro.core.StepStats` whichever executor steps it.  The stdlib
:class:`~repro.core.pykernel.PythonKernel` is the oracle.  Hypothesis
drives all three program kinds against it:

* GATHER programs (Glushkov NFAs) through the plan's unit spans
  (:meth:`FusedRuleset.scan_span`), including anchoring
  combinations and warm-up offsets;
* SHIFT_LEFT programs (packed Shift-And layouts) through the plan's
  lane machine, reduced to events and counters by the step rule the
  :class:`~repro.core.program.KernelProgram` docstring states — and
  both kinds through :meth:`StepTable.walk
  <repro.core.table.StepTable.walk>`, the one portable stepper, under
  the same assertions;
* SHIFT_RIGHT programs (the bit-serial datapath), which no plan
  executes, against :meth:`BitSerialLNFA.trace
  <repro.automata.bitserial.BitSerialLNFA.trace>` — the Fig. 6 loop,
  written independently of the kernel — reduced the same way.

The oracle side is always one ``scan_segment`` feed of the owned bytes,
entered at the state a state-only feed of the warm-up prefix left.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.bitserial import BitSerialLNFA
from repro.automata.glushkov import build_automaton
from repro.automata.nfa import NFASimulator, StepStats
from repro.automata.shift_and import MultiShiftAnd, ShiftAnd
from repro.core import ProgramKind, get_kernel, iter_states_from
from repro.core.fused import FusedRuleset
from repro.regex.parser import parse
from repro.regex.rewrite import unfold_all

from tests.automata.test_lnfa import lnfa_strategy
from tests.core.test_fused import make_lnfa
from tests.helpers import inputs, regex_trees


def reduce_states(program, states_at, n: int, stats_from: int):
    """Events and counters from per-cycle state vectors — the step rule
    of the ``KernelProgram`` docstring, written out cycle by cycle."""
    events = []
    active = 0
    for i in range(stats_from, n):
        states = states_at(i)
        active += states.bit_count()
        hits = states & program.final
        if i != n - 1:
            hits &= ~program.end_anchored_finals
        if hits:
            events.append((i, hits))
    return events, active


def lane_states(program, data: bytes) -> dict[int, int]:
    """Live cycles of one SHIFT_LEFT program on the plan's lane machine:
    its DFA stepped row by row, each visited state read as its word."""
    fused = FusedRuleset([program])
    dfa = fused.lane_dfa(0)
    rows: dict[int, int] = {}
    sid = 0
    for i, c in enumerate(fused.translate(data).cls_bytes):
        sid = (i == 0 and dfa.start or dfa.row(sid))[c]
        if sid:
            rows[i] = dfa[sid]
    return rows


def step_table(program):
    """``program`` — a lane bin or a GATHER unit — as the plan's table,
    under one all-ones payload mask (``bits[0]``: live positions)."""
    if program.kind is ProgramKind.GATHER:
        fused = FusedRuleset((), [program])
        return fused, fused._units[0].table
    fused = FusedRuleset([program])
    return fused, fused.lane_dfa(0, (-1,))


def assert_walk_agrees(program, data: bytes, stats_from: int, want) -> None:
    """The one walker, whichever successor rule fills the rows: hit
    words masked to the finals that fire are the kernel's events, the
    live bits under the all-ones payload its active-state sum."""
    events, stats = want
    fused, table = step_table(program)
    _, (active,), hits, _ = table.walk(
        fused.translate(data).cls_bytes, 0,
        fresh=True, at_end=True, stats_from=stats_from,
    )
    mid = program.final & ~program.end_anchored_finals
    assert [
        (i, word & (program.final if i == len(data) - 1 else mid))
        for i, word in hits
    ] == events
    assert active == stats.active_states


def oracle(program, data: bytes, stats_from: int):
    """The kernel's events and counters over ``data[stats_from:]``, the
    prefix before it fed for state only."""
    kernel = get_kernel()
    _, _, state = kernel.scan_segment(program, data[:stats_from], at_end=False)
    events, stats, _ = kernel.scan_segment(program, data[stats_from:], state)
    return events, stats


def assert_kernels_agree(
    program, data: bytes, stats_from: int = 0, *, trace=None
) -> None:
    """``trace``: a SHIFT_RIGHT program's per-cycle
    :class:`~repro.automata.bitserial.BitSerialTrace` rows."""
    # Span callers never pass a warm-up prefix past the end.
    stats_from = min(stats_from, len(data))
    py_events, py_stats = oracle(program, data, stats_from)
    if program.kind is not ProgramKind.SHIFT_RIGHT:
        assert_walk_agrees(program, data, stats_from, (py_events, py_stats))
    if program.kind is ProgramKind.GATHER:
        fused = FusedRuleset((), [program])
        ((events, stats, _),) = fused.scan_span(
            fused.translate(data), [(0, None)], stats_from=stats_from
        )[1]
        assert events == py_events
        assert stats == py_stats
        return
    if program.kind is ProgramKind.SHIFT_LEFT:
        states_at = lane_states(program, data).get
        events, active = reduce_states(
            program, lambda i: states_at(i, 0), len(data), stats_from
        )
    else:
        events, active = reduce_states(
            program, lambda i: trace[i].states, len(data), stats_from
        )
    assert events == py_events
    assert py_stats == StepStats(
        cycles=len(data) - stats_from,
        active_states=active,
        matched_states=0,  # shift programs leave track_matched off
        reports=len(events),
    )


anchor_flags = st.booleans()


class TestGatherPrograms:
    @settings(max_examples=120, deadline=None)
    @given(
        regex_trees(max_leaves=6),
        inputs(max_size=24),
        anchor_flags,
        anchor_flags,
        st.integers(0, 8),
    )
    def test_differential(self, tree, data, astart, aend, stats_from):
        sim = NFASimulator(build_automaton(unfold_all(tree)))
        program = sim.program(anchored_start=astart, anchored_end=aend)
        assert_kernels_agree(program, data, stats_from=stats_from)

    def test_empty_input(self):
        sim = NFASimulator(build_automaton(unfold_all(parse("ab*c"))))
        assert_kernels_agree(sim.program(), b"")

    def test_stats_from_past_the_end(self):
        """A warm-up past the end: every byte drives state, none counts."""
        sim = NFASimulator(build_automaton(unfold_all(parse("ab"))))
        assert_kernels_agree(sim.program(), b"abab", stats_from=99)


class TestShiftPrograms:
    @settings(max_examples=120, deadline=None)
    @given(
        lnfa_strategy(max_len=5),
        inputs(max_size=24),
        anchor_flags,
        anchor_flags,
        st.integers(0, 8),
    )
    def test_shift_left_differential(
        self, lnfa, data, astart, aend, stats_from
    ):
        program = ShiftAnd(lnfa).program(
            anchored_start=astart, anchored_end=aend
        )
        assert_kernels_agree(program, data, stats_from=stats_from)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(lnfa_strategy(max_len=4), min_size=1, max_size=4),
        inputs(max_size=20),
    )
    def test_packed_shift_left_differential(self, lnfas, data):
        # clear_after_shift (per-pattern boundary masking) only arises
        # in the packed multi-pattern layout.
        assert_kernels_agree(MultiShiftAnd(lnfas).program, data)

    @settings(max_examples=80, deadline=None)
    @given(
        lnfa_strategy(max_len=5),
        inputs(max_size=24),
        anchor_flags,
        anchor_flags,
    )
    def test_shift_right_differential(self, lnfa, data, astart, aend):
        engine = BitSerialLNFA(lnfa, anchored_start=astart)
        assert_kernels_agree(
            engine.program(anchored_end=aend), data, trace=engine.trace(data)
        )


@pytest.mark.parametrize("kind", [ProgramKind.SHIFT_LEFT, ProgramKind.GATHER])
def test_one_walker_steps_a_bin_and_a_unit_alike(kind):
    """``abc`` as an LNFA bin and as an NFA unit — one table class, two
    successor rules: the same hits and live-bit sums from the same
    walk, whole or across a seam, as the plan built the table (a bin
    fills as it is walked, a unit is closed) and closed."""
    if kind is ProgramKind.SHIFT_LEFT:
        program = ShiftAnd(make_lnfa("abc")).program()
    else:
        program = NFASimulator(build_automaton(parse("abc"))).program()
    assert program.kind is kind
    fused, table = step_table(program)
    cls = fused.translate(b"ab.abcabxabcc").cls_bytes
    span = dict(at_end=True, stats_from=0)
    assert table.closed == (4 if kind is ProgramKind.GATHER else 0)
    for _ in range(2):
        cycles, bits, hits, word = table.walk(cls, 0, fresh=True, **span)
        assert [i for i, _ in hits] == [5, 11] and word == 0
        # a, ab | a, ab, abc, a, ab | a, ab, abc: one live bit per byte
        assert (cycles, bits) == ([10], [10])
        for cut in range(1, len(cls)):
            _, (left,), first, word = table.walk(
                cls[:cut], 0, fresh=True, at_end=False, stats_from=0
            )
            _, (right,), rest, _ = table.walk(cls[cut:], word, fresh=False, **span)
            assert left + right == 10
            assert first + [(cut + i, w) for i, w in rest] == hits
        assert len(table) == 4  # the empty word, a, ab, abc — and no more
        assert table.close() and table.closed == 4


class TestEndToEnd:
    @settings(max_examples=60, deadline=None)
    @given(regex_trees(max_leaves=6), inputs(max_size=24))
    def test_simulator_results_identical_across_backends(self, tree, data):
        sim = NFASimulator(build_automaton(unfold_all(tree)))
        stats = StepStats()
        matches = sim.find_matches(data, stats)
        fused = FusedRuleset((), [sim.program()])
        ((events, unit_stats, _),) = fused.scan_span(
            fused.translate(data), [(0, None)]
        )[1]
        assert ([i for i, _ in events], unit_stats) == (matches, stats)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(lnfa_strategy(max_len=4), min_size=1, max_size=4),
        inputs(max_size=20),
    )
    def test_packed_matcher_identical_across_backends(self, lnfas, data):
        matcher = MultiShiftAnd(lnfas)
        finals = {
            sum(len(p) for p in lnfas[: k + 1]) - 1: k
            for k in range(len(lnfas))
        }
        lane = [
            (finals[bit], i)
            for i, states in sorted(lane_states(matcher.program, data).items())
            for bit in sorted(finals)
            if states >> bit & 1
        ]
        assert lane == matcher.find_matches(data)


class TestIterStates:
    @settings(max_examples=40, deadline=None)
    @given(lnfa_strategy(max_len=4), inputs(max_size=16))
    def test_iter_states_identical(self, lnfa, data):
        program = ShiftAnd(lnfa).program()
        lane = lane_states(program, data)
        for i, states in iter_states_from(program, data):
            assert lane.get(i, 0) == states


def test_long_cold_stream_with_sparse_hits():
    """The plan's cold-skip path over a realistic mostly-idle stream."""
    sim = NFASimulator(build_automaton(unfold_all(parse("ab[cd]d"))))
    data = (b"x" * 997 + b"abcd") * 40 + b"a" * 100
    assert_kernels_agree(sim.program(), data)
    assert_kernels_agree(sim.program(), data, stats_from=1234)
