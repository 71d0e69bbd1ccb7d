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

The module also holds :func:`iter_states_from`, the per-cycle view of a
``SHIFT_LEFT`` program the LNFA bin collector prices tile by tile — the
only loop besides :meth:`PythonKernel.scan_segment
<repro.core.pykernel.PythonKernel.scan_segment>` that steps a program.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.program import KernelProgram, ProgramKind
from repro.io.envelope import STATE_VERSION


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
    """Per-cycle ``(segment_index, packed_state_vector)`` of a
    ``SHIFT_LEFT`` program, continuing from a saved :class:`KernelState`.

    The LNFA bin collector prices every cycle's vector tile by tile, so
    it needs each one, not just events and counters; the other program
    kinds only ever run through the kernel's ``scan_segment``.  Symbol
    ``i`` of ``data`` is global symbol ``state.offset + i``, and only the
    true global first symbol receives ``inject_first``.  The loop is
    pure Python and backend-independent.

    The caller reconstructs the continuation state from the last yielded
    vector: ``KernelState(state.offset + len(data), last_states)``.
    """
    if program.kind is not ProgramKind.SHIFT_LEFT:
        raise ValueError(f"per-cycle view of a {program.kind.name} program")
    state = state or KernelState()
    labels = program.labels
    inject = program.inject_always
    keep = ~program.clear_after_shift
    states = state.states
    symbols = enumerate(data)
    if state.offset == 0 and data:
        states = program.inject_first & labels[data[0]]
        yield 0, states
        symbols = enumerate(memoryview(data)[1:], 1)
    for i, byte in symbols:
        states = ((states << 1) & keep | inject) & labels[byte]
        yield i, states


__all__ = ["KernelState", "iter_states_from"]
