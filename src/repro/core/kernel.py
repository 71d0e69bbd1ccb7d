"""The step-kernel contract: one inner loop for every bitset machine.

Every automata model in this reproduction executes the paper's two-phase
loop (Section 2.2): a *state-transition* step derives the set of
available states from the previous cycle's active set, and a
*state-matching* step intersects it with the per-byte label mask of the
current input symbol.  The models differ only in how availability is
derived — a successor-mask gather for plain NFAs, a shift for (multi-)
Shift-And and the bit-serial tile datapath — which a
:class:`~repro.core.program.KernelProgram` captures declaratively.

A :class:`StepKernel` executes a program over a byte chunk and emits the
exact integer counters (:class:`StepStats`) the hardware simulators
price.  The stdlib :class:`~repro.core.pykernel.PythonKernel` is the one
implementation and the oracle: the fused plan's interpreters (NumPy and
generated C) must produce bit-identical match events and counters for
the same program and input, so switching ``RAP_BACKEND`` can never
change a reported number — only how fast it is computed.  The
differential test suite enforces the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.core.program import KernelProgram
    from repro.core.state import KernelState

# A reporting cycle: (end position, mask of final bits that fired).
MatchEvent = tuple[int, int]


@dataclass
class StepStats:
    """Aggregate activity counters accumulated over a run.

    All fields are exact integers, so merging per-chunk stats in chunk
    order reproduces a whole-stream run bit for bit — the invariant both
    the parallel engine and the backend registry rest on.
    """

    cycles: int = 0
    active_states: int = 0  # sum over cycles of |active set|
    matched_states: int = 0  # sum over cycles of |states matching the symbol|
    reports: int = 0

    @property
    def mean_active(self) -> float:
        """Average number of active states/bits per cycle."""
        return self.active_states / self.cycles if self.cycles else 0.0

    def merge(self, other: "StepStats") -> "StepStats":
        """Associative combination of two runs' counters (all integers,
        so merging is exact — the parallel engine relies on this)."""
        return StepStats(
            cycles=self.cycles + other.cycles,
            active_states=self.active_states + other.active_states,
            matched_states=self.matched_states + other.matched_states,
            reports=self.reports + other.reports,
        )

    __add__ = merge


@runtime_checkable
class StepKernel(Protocol):
    """Executes :class:`~repro.core.program.KernelProgram` byte chunks.

    ``scan`` and ``scan_segment`` are the block paths; ``iter_states``
    is the lazy per-cycle view.
    """

    name: str

    def scan(
        self,
        program: "KernelProgram",
        data: bytes,
        *,
        stats_from: int = 0,
    ) -> tuple[list[MatchEvent], StepStats]:
        """Run ``program`` over ``data``.

        Returns the reporting cycles — ``(end_position, final_hits)``
        pairs — together with fresh exact counters.  The first
        ``stats_from`` bytes are a warm-up prefix: they drive the active
        set but contribute neither events nor counters (the parallel
        engine's overlap-window stitching).
        """
        ...

    def scan_segment(
        self,
        program: "KernelProgram",
        data: bytes,
        state: "KernelState | None" = None,
        *,
        at_end: bool = True,
    ) -> tuple[list[MatchEvent], StepStats, "KernelState"]:
        """Run ``program`` over one segment of a longer stream.

        ``state`` is the frontier left by the previous segment (``None``
        for a fresh stream); the returned state continues the scan.
        Event positions are *global* stream offsets.  ``at_end=False``
        says more input follows, so end-anchored finals are masked even
        on the segment's last byte.  Feeding a stream in any segmentation
        yields the same concatenated events and merged stats as one
        ``scan`` over the whole stream — the durable-scan invariant.
        """
        ...

    def iter_states(self, program: "KernelProgram", data: bytes):
        """Per-cycle ``(index, packed_state_vector)`` view (lazy)."""
        ...
