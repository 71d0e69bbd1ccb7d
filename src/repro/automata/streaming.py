"""Streaming execution of kernel programs with snapshot/restore.

A :class:`ProgramScanner` feeds a :class:`~repro.core.program.
KernelProgram` one segment at a time through the registered kernel's
``scan_segment``, carrying the frontier :class:`~repro.core.state.
KernelState` between calls.  Because the frontier is the machine's
*entire* mid-stream state, a scanner serialized after byte ``k`` and
restored in a fresh process continues the scan bit-identically — the
primitive the durable-scan checkpoint layer is built on.

Match events come back with *global* stream positions, so a consumer
never needs to know how the stream was segmented.  It is also the only
way the automata scan a program: each engine's one-shot
``find_matches`` is a single ``at_end=True`` feed of a fresh scanner.
"""

from __future__ import annotations

from repro.core.kernel import MatchEvent, StepStats
from repro.core.program import KernelProgram
from repro.core.registry import get_kernel
from repro.core.state import KernelState


class ProgramScanner:
    """Segment-at-a-time scan of one kernel program.

    ``feed`` consumes the next segment of the stream and returns its
    match events (global positions) plus the segment's exact counters.
    Pass ``at_end=False`` while more input follows so end-anchored
    finals stay masked; the segment that reaches the stream's end (even
    if a later empty ``feed`` follows) must be fed with ``at_end=True``.
    """

    def __init__(self, program: KernelProgram):
        self._program = program
        self._state = KernelState()

    @property
    def program(self) -> KernelProgram:
        """The program this scanner executes."""
        return self._program

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._state.offset

    def feed(
        self, segment: bytes, *, at_end: bool = True
    ) -> tuple[list[MatchEvent], StepStats]:
        """Consume the next segment; events carry global positions."""
        events, stats, self._state = get_kernel().scan_segment(
            self._program, segment, self._state, at_end=at_end
        )
        return events, stats

    @property
    def state(self) -> KernelState:
        """The frontier after the last consumed symbol."""
        return self._state

    @state.setter
    def state(self, state: KernelState) -> None:
        self._state = state

    def snapshot(self) -> dict:
        """JSON-ready frontier state (see :class:`KernelState`)."""
        return self._state.to_json()

    def restore(self, doc: dict) -> None:
        """Adopt a frontier produced by :meth:`snapshot`."""
        self._state = KernelState.from_json(doc)


__all__ = ["ProgramScanner"]
