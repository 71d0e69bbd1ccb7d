"""Snapshotable mid-stream state for kernel programs.

A :class:`KernelState` captures everything a bitset machine carries
between input symbols: the packed active-state vector after the last
consumed symbol and the global input offset.  Together with the
(immutable) :class:`~repro.core.program.KernelProgram` it fully
determines the rest of a scan, which is what makes durable scans
possible — serialize the state at a chunk boundary, and a resumed scan
replays the *identical* sequence of integer operations an uninterrupted
run would have performed.

Serialization is deterministic and exact: the state word is a hex
string (Python ints are arbitrary precision, so no width assumptions),
and the document carries :data:`~repro.io.envelope.STATE_VERSION` so a
checkpoint can never be silently decoded under different semantics.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.io.envelope import STATE_VERSION

if TYPE_CHECKING:
    from repro.core.program import KernelProgram


@dataclass(frozen=True)
class KernelState:
    """Mid-stream state of one kernel program.

    ``offset`` counts the input symbols consumed so far (global stream
    position); ``states`` is the packed active-state vector *after* the
    symbol at ``offset - 1``.  The zero state (``offset=0, states=0``)
    is a fresh scan: the next symbol is the stream's first and receives
    the program's ``inject_first`` mask.
    """

    offset: int = 0
    states: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("state offset must be non-negative")
        if self.states < 0:
            raise ValueError("state vector must be non-negative")

    def to_json(self) -> dict:
        """JSON-ready document (hex state word, exact at any width)."""
        return {
            "version": STATE_VERSION,
            "offset": self.offset,
            "states": f"{self.states:x}",
        }

    @classmethod
    def from_json(cls, doc: dict) -> KernelState:
        """Decode :meth:`to_json` output, validating the version."""
        try:
            version = doc["version"]
            if version != STATE_VERSION:
                raise ValueError(
                    f"kernel-state version {version!r} "
                    f"(this build reads {STATE_VERSION})"
                )
            return cls(offset=int(doc["offset"]), states=int(doc["states"], 16))
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed kernel-state document: {err}") from err


def iter_states_from(
    program: KernelProgram, data: bytes, state: KernelState | None = None
) -> Iterator[tuple[int, int]]:
    """Per-cycle ``(segment_index, packed_state_vector)`` continuation.

    Generalizes ``StepKernel.iter_states`` to start from a saved
    :class:`KernelState`: symbol ``i`` of ``data`` is global symbol
    ``state.offset + i``, and only the true global first symbol receives
    ``inject_first``.  The loop is pure Python and backend-independent —
    callers that consume every cycle's vector (the LNFA bin collectors)
    pay the same cost on every backend, exactly like ``iter_states``.

    The caller reconstructs the continuation state from the last yielded
    vector: ``KernelState(state.offset + len(data), last_states)``.
    """
    from repro.core.program import ProgramKind

    state = state or KernelState()
    labels = program.labels
    inject_first = program.inject_first
    inject = program.inject_always
    fresh = state.offset == 0
    states = state.states
    if program.kind is ProgramKind.GATHER:
        succ = program.succ
        for i, byte in enumerate(data):
            if fresh and i == 0:
                states = inject_first & labels[byte]
            else:
                avail = inject
                a = states
                while a:
                    low = a & -a
                    avail |= succ[low.bit_length() - 1]
                    a ^= low
                states = avail & labels[byte]
            yield i, states
    elif program.kind is ProgramKind.SHIFT_LEFT:
        keep = ~program.clear_after_shift
        for i, byte in enumerate(data):
            if fresh and i == 0:
                states = inject_first & labels[byte]
            else:
                states = ((states << 1) & keep | inject) & labels[byte]
            yield i, states
    else:
        for i, byte in enumerate(data):
            if fresh and i == 0:
                states = inject_first & labels[byte]
            else:
                states = (states >> 1 | inject) & labels[byte]
            yield i, states


__all__ = ["KernelState", "iter_states_from"]
