"""Bitset simulation of plain homogeneous NFAs.

This is the software model of the AP-style execution loop (Section 2.2):
each input symbol triggers a *state-matching* phase (compare the symbol
against every state's character class — here a precomputed per-byte label
mask) and a *state-transition* phase (OR together the successor masks of
the active states).  Active-state sets are Python integers used as
bitsets, which keeps the inner loop allocation-free.

The loop itself lives in the execution-core layer: this module lowers an
automaton to a :class:`~repro.core.program.KernelProgram` (a ``GATHER``
machine) and scans it through :class:`NFAScanner` — a whole-stream scan
is one feed of a fresh scanner — over the same program the fused plan
executes ruleset-wide.  The per-cycle activity statistics
the hardware simulators price come back as the kernel's exact integer
counters.
"""

from __future__ import annotations

from repro.automata.glushkov import Automaton, EdgeAction
from repro.automata.streaming import ProgramScanner
from repro.core.kernel import StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.state import KernelState
from repro.regex.charclass import interned_label_masks

__all__ = ["NFAScanner", "NFASimulator", "StepStats"]


class NFASimulator:
    """Unanchored multi-match simulation of a plain homogeneous NFA.

    Reports the 0-based index of every input byte that completes a match.
    """

    def __init__(self, automaton: Automaton):
        if not automaton.is_plain:
            raise ValueError(
                "NFASimulator only handles plain automata; use NBVASimulator"
            )
        self._automaton = automaton
        n = automaton.state_count
        self._initial = _mask(automaton.initial)
        self._final = _mask(automaton.finals)
        self._labels = interned_label_masks(
            (pos.pid, pos.cc) for pos in automaton.positions
        )
        succ = [0] * n
        for edge in automaton.edges:
            assert edge.action is EdgeAction.ACTIVATE
            succ[edge.src] |= 1 << edge.dst
        self._succ = tuple(succ)
        self._programs: dict[tuple[bool, bool], KernelProgram] = {}

    @property
    def automaton(self) -> Automaton:
        """The automaton this simulator executes."""
        return self._automaton

    def program(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> KernelProgram:
        """The kernel program for one anchoring combination (cached)."""
        key = (anchored_start, anchored_end)
        prog = self._programs.get(key)
        if prog is None:
            prog = KernelProgram(
                kind=ProgramKind.GATHER,
                width=self._automaton.state_count,
                labels=self._labels,
                inject_first=self._initial,
                inject_always=0 if anchored_start else self._initial,
                final=self._final,
                end_anchored_finals=self._final if anchored_end else 0,
                succ=self._succ,
                track_matched=True,
            )
            self._programs[key] = prog
        return prog

    def find_matches(
        self,
        data: bytes,
        stats: StepStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ) -> list[int]:
        """All end positions of non-empty matches in ``data``: one feed
        of a fresh :meth:`scanner`.

        ``anchored_start`` makes the initial states start-of-data STEs
        (available only for the first symbol); ``anchored_end`` reports
        only matches that consume the final symbol.
        """
        return self.scanner(
            anchored_start=anchored_start, anchored_end=anchored_end
        ).feed(data, stats)

    def count_matches(self, data: bytes) -> int:
        """Number of non-empty matches in ``data``."""
        return len(self.find_matches(data))

    def scanner(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> "NFAScanner":
        """A streaming scanner with snapshot/restore for this NFA."""
        return NFAScanner(
            self.program(
                anchored_start=anchored_start, anchored_end=anchored_end
            )
        )


class NFAScanner:
    """Streaming NFA scan: feed segments, snapshot/restore mid-stream.

    Feeding a stream in any segmentation yields the same match
    positions and accumulated stats as one feed of the whole stream
    (:meth:`NFASimulator.find_matches`).
    """

    def __init__(self, program: KernelProgram):
        self._scanner = ProgramScanner(program)

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._scanner.offset

    def feed(
        self,
        segment: bytes,
        stats: StepStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global."""
        events, run = self._scanner.feed(segment, at_end=at_end)
        if stats is not None:
            stats.cycles += run.cycles
            stats.active_states += run.active_states
            stats.matched_states += run.matched_states
            stats.reports += run.reports
        return [i for i, _ in events]

    @property
    def state(self) -> KernelState:
        """The active set after the last consumed symbol."""
        return self._scanner.state

    @state.setter
    def state(self, state: KernelState) -> None:
        self._scanner.state = state

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state."""
        return self._scanner.snapshot()

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        self._scanner.restore(doc)


def _mask(pids) -> int:
    out = 0
    for pid in pids:
        out |= 1 << pid
    return out
