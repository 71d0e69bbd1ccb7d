"""The Shift-And bit-parallel algorithm (Baeza-Yates & Gonnet).

Two variants are implemented, matching the paper's usage:

* :class:`ShiftAnd` — the classic single-pattern form of Section 2.1 /
  Fig. 2: ``next = (states << 1) | maskInitial`` then
  ``states = next & labels[c]``, reporting when ``states & maskFinal``.
* :class:`MultiShiftAnd` — many LNFAs packed into one wide bitvector, the
  software technique of Hyperscan/HybridSA that the CPU and GPU baseline
  models are built on.  In an unanchored scan the per-pattern initial bits
  are re-injected on every cycle, which also absorbs the bit that shifts
  across a pattern boundary — no boundary masking is needed.

Both lower to ``SHIFT_LEFT`` :class:`~repro.core.program.KernelProgram`
machines and scan through their streaming scanners (a whole-stream scan
is one feed of a fresh one).  The hardware LNFA mode (Fig. 6) uses a
mirrored bit order (right shift, initial at the MSB); that bit-serial
variant lives in the tile simulator, and its equivalence to
:class:`ShiftAnd` is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.lnfa import LNFA
from repro.automata.streaming import ProgramScanner
from repro.core.program import KernelProgram, ProgramKind
from repro.regex.charclass import interned_label_masks


@dataclass
class ShiftAndStats:
    """Activity counters for one Shift-And run."""
    cycles: int = 0
    active_bits: int = 0  # popcount of the state vector, summed over cycles
    reports: int = 0

    @property
    def mean_active(self) -> float:
        """Average number of active states/bits per cycle."""
        return self.active_bits / self.cycles if self.cycles else 0.0


class ShiftAnd:
    """Classic Shift-And execution of a single LNFA."""

    def __init__(self, lnfa: LNFA):
        self._lnfa = lnfa
        n = len(lnfa)
        self._initial = 1
        self._final = 1 << (n - 1)
        self._labels = interned_label_masks(enumerate(lnfa.labels))
        self._programs: dict[tuple[bool, bool], KernelProgram] = {}

    @property
    def lnfa(self) -> LNFA:
        """The LNFA this matcher executes."""
        return self._lnfa

    def program(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> KernelProgram:
        """The kernel program for one anchoring combination (cached)."""
        key = (anchored_start, anchored_end)
        prog = self._programs.get(key)
        if prog is None:
            prog = KernelProgram(
                kind=ProgramKind.SHIFT_LEFT,
                width=len(self._lnfa),
                labels=self._labels,
                inject_first=self._initial,
                inject_always=0 if anchored_start else self._initial,
                final=self._final,
                end_anchored_finals=self._final if anchored_end else 0,
            )
            self._programs[key] = prog
        return prog

    def find_matches(
        self,
        data: bytes,
        stats: ShiftAndStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ) -> list[int]:
        """All end positions of non-empty matches in ``data`` (one feed
        of a fresh :meth:`scanner`)."""
        return self.scanner(
            anchored_start=anchored_start, anchored_end=anchored_end
        ).feed(data, stats)

    def scanner(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> "ShiftAndScanner":
        """A streaming scanner with snapshot/restore for this pattern."""
        return ShiftAndScanner(
            self.program(
                anchored_start=anchored_start, anchored_end=anchored_end
            )
        )


class ShiftAndScanner:
    """Streaming Shift-And scan over one LNFA with snapshot/restore."""

    def __init__(self, program: KernelProgram):
        self._scanner = ProgramScanner(program)

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._scanner.offset

    def feed(
        self,
        segment: bytes,
        stats: ShiftAndStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global."""
        events, run = self._scanner.feed(segment, at_end=at_end)
        if stats is not None:
            stats.cycles += run.cycles
            stats.active_bits += run.active_states
            stats.reports += run.reports
        return [i for i, _ in events]

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state."""
        return self._scanner.snapshot()

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        self._scanner.restore(doc)


class MultiShiftAnd:
    """Shift-And over many LNFAs packed into one wide state vector.

    Patterns are laid out consecutively; ``find_matches`` reports
    ``(pattern_index, end_position)`` pairs.
    """

    def __init__(
        self,
        lnfas: list[LNFA] | tuple[LNFA, ...],
        anchors: list[tuple[bool, bool]] | None = None,
    ):
        """``anchors`` optionally gives each pattern its
        ``(anchored_start, anchored_end)`` flags; start-anchored patterns
        behave like start-of-data STEs (initial bit injected only on the
        first symbol)."""
        if not lnfas:
            raise ValueError("MultiShiftAnd needs at least one pattern")
        if anchors is not None and len(anchors) != len(lnfas):
            raise ValueError("anchors must align with the patterns")
        self._lnfas = tuple(lnfas)
        self._anchors = tuple(anchors) if anchors else ((False, False),) * len(
            self._lnfas
        )
        self._offsets: list[int] = []
        assignments: list[tuple[int, object]] = []
        initial_always = 0
        initial_once = 0
        final = 0
        end_anchored_finals = 0
        offset = 0
        for lnfa, (a_start, a_end) in zip(self._lnfas, self._anchors):
            self._offsets.append(offset)
            if a_start:
                initial_once |= 1 << offset
            else:
                initial_always |= 1 << offset
            final_bit = 1 << (offset + len(lnfa) - 1)
            final |= final_bit
            if a_end:
                end_anchored_finals |= final_bit
            for i, cc in enumerate(lnfa.labels):
                assignments.append((offset + i, cc))
            offset += len(lnfa)
        self._initial = initial_always | initial_once
        self._initial_always = initial_always
        self._final = final
        self._end_anchored_finals = end_anchored_finals
        self._total_bits = offset
        # The shift leaks each pattern's last bit onto the next pattern's
        # first bit; for unanchored patterns the unconditional initial
        # injection absorbs the leak, and for start-anchored patterns the
        # leaked bit must be cleared after the shift.
        self._program = KernelProgram(
            kind=ProgramKind.SHIFT_LEFT,
            width=offset,
            labels=interned_label_masks(assignments),
            inject_first=self._initial,
            inject_always=initial_always,
            final=final,
            end_anchored_finals=end_anchored_finals,
            clear_after_shift=initial_once,
        )
        # map a final bit back to its pattern index
        self._pattern_of_final = {
            self._offsets[k] + len(lnfa) - 1: k
            for k, lnfa in enumerate(self._lnfas)
        }

    @property
    def total_bits(self) -> int:
        """Width of the packed multi-pattern state vector."""
        return self._total_bits

    @property
    def patterns(self) -> tuple[LNFA, ...]:
        """The packed LNFAs, in layout order."""
        return self._lnfas

    @property
    def program(self) -> KernelProgram:
        """The packed machine as a kernel program."""
        return self._program

    def find_matches(
        self, data: bytes, stats: ShiftAndStats | None = None
    ) -> list[tuple[int, int]]:
        """All ``(pattern_index, end_position)`` pairs of non-empty
        matches in ``data`` (one feed of a fresh :meth:`scanner`)."""
        return self.scanner().feed(data, stats)

    def scanner(self) -> "MultiShiftAndScanner":
        """A streaming scanner with snapshot/restore for this pack."""
        return MultiShiftAndScanner(self)


class MultiShiftAndScanner:
    """Streaming scan of a packed multi-pattern machine.

    ``feed`` returns ``(pattern_index, global_end_position)`` pairs in
    the same order :meth:`MultiShiftAnd.find_matches` reports them.
    """

    def __init__(self, packed: MultiShiftAnd):
        self._packed = packed
        self._scanner = ProgramScanner(packed.program)

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._scanner.offset

    def feed(
        self,
        segment: bytes,
        stats: ShiftAndStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[tuple[int, int]]:
        """Consume the next segment; end positions are global."""
        events, run = self._scanner.feed(segment, at_end=at_end)
        pattern_of_final = self._packed._pattern_of_final
        out: list[tuple[int, int]] = []
        for i, hits in events:
            while hits:
                low = hits & -hits
                hits ^= low
                out.append((pattern_of_final[low.bit_length() - 1], i))
        if stats is not None:
            stats.cycles += run.cycles
            stats.active_bits += run.active_states
            stats.reports += len(out)
        return out

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state."""
        return self._scanner.snapshot()

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        self._scanner.restore(doc)
