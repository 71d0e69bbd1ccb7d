"""The hardware bit-serial LNFA datapath of Fig. 6.

RAP's LNFA mode does not run the classic software Shift-And; it executes
the *mirrored* variant the tile implements physically:

* state ``q_i`` of the LNFA lives in CAM **column** ``i`` (leftmost
  column first), so the *labels* vector is ordered MSB-first;
* the active vector **right-shifts** by one bit each cycle (Fig. 6:
  "The Active Vector right-shifts by one bit each cycle, controlling
  which columns remain active for the next input character");
* the initial state occupies the **most significant** bit and is kept
  available by re-injecting ``10...0`` (``maskInitial``); the final
  state is the least significant bit (``states AND 0...01``).

This module implements that datapath exactly as the tile sees it —
per-column match bits ANDed against the shifted active vector — so its
step-by-step traces match the Fig. 6 walk-through, and tests prove it
equivalent to the classic left-shift :class:`~repro.automata.shift_and.
ShiftAnd` on every input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.lnfa import LNFA
from repro.automata.streaming import ProgramScanner
from repro.core.program import KernelProgram, ProgramKind
from repro.regex.charclass import interned_label_masks


@dataclass(frozen=True)
class BitSerialTrace:
    """One cycle of the Fig. 6 datapath (for inspection and teaching)."""

    symbol: int
    labels: int  # per-column CAM match results, MSB = state 0
    next_vector: int  # shifted active vector OR maskInitial
    states: int  # next AND labels
    report: bool


class BitSerialLNFA:
    """Fig. 6's right-shift LNFA execution, one tile column per state."""

    def __init__(self, lnfa: LNFA, *, anchored_start: bool = False):
        self._lnfa = lnfa
        n = len(lnfa)
        self._width = n
        self._initial = 1 << (n - 1)  # MSB: state q0 / column 0
        self._final = 1  # LSB: state q(n-1)
        self._anchored_start = anchored_start
        # labels[c] bit (n-1-i) set iff column i's CC matches byte c
        self._labels = interned_label_masks(
            (n - 1 - i, cc) for i, cc in enumerate(lnfa.labels)
        )
        self._programs: dict[bool, KernelProgram] = {}

    @property
    def lnfa(self) -> LNFA:
        """The LNFA this matcher executes."""
        return self._lnfa

    @property
    def width(self) -> int:
        """Number of LNFA states / CAM columns."""
        return self._width

    def trace(self, data: bytes) -> list[BitSerialTrace]:
        """The full per-cycle trace (the Fig. 6 example table)."""
        out = []
        states = 0
        for i, byte in enumerate(data):
            inject = 0 if self._anchored_start and i else self._initial
            next_vector = states >> 1 | inject
            labels = self._labels[byte]
            states = next_vector & labels
            out.append(
                BitSerialTrace(
                    symbol=byte,
                    labels=labels,
                    next_vector=next_vector,
                    states=states,
                    report=bool(states & self._final),
                )
            )
        return out

    def program(self, *, anchored_end: bool = False) -> KernelProgram:
        """The kernel program for this datapath (cached per end anchor)."""
        prog = self._programs.get(anchored_end)
        if prog is None:
            prog = KernelProgram(
                kind=ProgramKind.SHIFT_RIGHT,
                width=self._width,
                labels=self._labels,
                inject_first=self._initial,
                inject_always=0 if self._anchored_start else self._initial,
                final=self._final,
                end_anchored_finals=self._final if anchored_end else 0,
            )
            self._programs[anchored_end] = prog
        return prog

    def find_matches(
        self, data: bytes, *, anchored_end: bool = False
    ) -> list[int]:
        """All end positions of non-empty matches in ``data`` (one feed
        of a fresh :class:`~repro.automata.streaming.ProgramScanner`)."""
        scanner = ProgramScanner(self.program(anchored_end=anchored_end))
        return [i for i, _ in scanner.feed(data)[0]]

    def active_columns(self, states: int) -> list[int]:
        """Which CAM columns the active vector keeps enabled (the power
        gating of Section 3.2): column i for each set bit."""
        cols = []
        for i in range(self._width):
            if states >> (self._width - 1 - i) & 1:
                cols.append(i)
        return cols


def format_trace(lnfa: LNFA, data: bytes) -> str:
    """Render the Fig. 6-style execution table for documentation/demos."""
    engine = BitSerialLNFA(lnfa)
    width = engine.width
    rows = [
        (
            "input",
            [
                chr(t.symbol) if 32 <= t.symbol < 127 else f"\\x{t.symbol:02x}"
                for t in engine.trace(data)
            ],
        ),
        ("labels", [f"{t.labels:0{width}b}" for t in engine.trace(data)]),
        ("next", [f"{t.next_vector:0{width}b}" for t in engine.trace(data)]),
        ("states", [f"{t.states:0{width}b}" for t in engine.trace(data)]),
        ("report", ["1" if t.report else "0" for t in engine.trace(data)]),
    ]
    col = max(width, 6)
    lines = []
    for name, cells in rows:
        lines.append(
            f"{name:>7} | " + " ".join(c.rjust(col) for c in cells)
        )
    return "\n".join(lines)
