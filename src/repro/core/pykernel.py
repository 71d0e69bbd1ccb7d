"""The default stdlib-only step kernel: Python ints as bitsets.

:meth:`PythonKernel.scan_segment` is the one event/counter loop of the
reference layer: every one-shot scan in this package is a single
``at_end=True`` feed of a fresh scanner, and a warm-up prefix is a
state-only feed (the activity collectors' ``warm``).  The loop is
deliberately monolithic — one flat byte loop per
:class:`~repro.core.program.ProgramKind`, the kind test hoisted out of
it, every hot name bound to a local — because this kernel sits under
every simulator and experiment.  Two structural tricks keep the exact
counters nearly free:

* ``cycles`` and ``matched_states`` do not depend on the state vector at
  all (``matched_states`` is the popcount of the byte's label mask, a
  pure function of the input), so both are computed outside the loop —
  ``matched_states`` with C-level ``bytes.count`` over the handful of
  byte values that carry labels;
* ``active_states`` only changes on cycles with a non-empty active set,
  so the loop popcounts exactly when ``states`` is truthy.
"""

from __future__ import annotations

from repro.core.kernel import MatchEvent, StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.state import KernelState

# Above this many label-carrying byte values, per-value ``bytes.count``
# sweeps cost more than one C-level map over the whole input.
_COUNT_SWEEP_LIMIT = 32


def _matched_tables(program: KernelProgram) -> tuple[list[int], list[int]]:
    """Cached per-byte label popcounts (and which bytes are non-zero)."""
    cached = getattr(program, "_py_matched_tables", None)
    if cached is None:
        pops = [mask.bit_count() for mask in program.labels]
        cached = (pops, [b for b, p in enumerate(pops) if p])
        object.__setattr__(program, "_py_matched_tables", cached)
    return cached


def _matched_states(program: KernelProgram, data: bytes, start: int) -> int:
    """Sum of ``popcount(labels[b])`` over ``data[start:]``, exactly."""
    pops, labeled = _matched_tables(program)
    if len(labeled) <= _COUNT_SWEEP_LIMIT:
        return sum(pops[b] * data.count(b, start) for b in labeled)
    return sum(map(pops.__getitem__, memoryview(data)[start:]))


class PythonKernel:
    """Pure-Python reference execution of kernel programs."""

    name = "python"

    def scan_segment(
        self,
        program: KernelProgram,
        data: bytes,
        state: KernelState | None = None,
        *,
        at_end: bool = True,
    ) -> tuple[list[MatchEvent], StepStats, KernelState]:
        """Resumable scan over one stream segment (see
        :class:`~repro.core.kernel.StepKernel` for the contract)."""
        state = state or KernelState()
        n = len(data)
        if n == 0:
            return [], StepStats(), state
        labels = program.labels
        final = program.final
        end_anchored = program.end_anchored_finals
        inject = program.inject_always
        offset = state.offset
        # The one global position whose end-anchored finals may fire:
        # none while more input follows.
        last = offset + n - 1 if at_end else -1
        events: list[MatchEvent] = []
        active = 0
        states = state.states
        start = 0
        if offset == 0:
            # The stream's true first symbol: availability is the
            # injection mask alone (transition of the empty set is empty).
            states = program.inject_first & labels[data[0]]
            if states:
                active += states.bit_count()
                hits = states & final
                if hits and last != 0:
                    hits &= ~end_anchored
                if hits:
                    events.append((0, hits))
            start = 1
        symbols = enumerate(memoryview(data)[start:], offset + start)
        if program.kind is ProgramKind.GATHER:
            succ = program.succ
            for i, byte in symbols:
                avail = inject
                a = states
                while a:
                    low = a & -a
                    avail |= succ[low.bit_length() - 1]
                    a ^= low
                states = avail & labels[byte]
                if states:
                    active += states.bit_count()
                    hits = states & final
                    if hits:
                        if i != last:
                            hits &= ~end_anchored
                        if hits:
                            events.append((i, hits))
        elif program.kind is ProgramKind.SHIFT_LEFT:
            keep = ~program.clear_after_shift
            for i, byte in symbols:
                states = ((states << 1) & keep | inject) & labels[byte]
                if states:
                    active += states.bit_count()
                    hits = states & final
                    if hits:
                        if i != last:
                            hits &= ~end_anchored
                        if hits:
                            events.append((i, hits))
        else:
            for i, byte in symbols:
                states = (states >> 1 | inject) & labels[byte]
                if states:
                    active += states.bit_count()
                    hits = states & final
                    if hits:
                        if i != last:
                            hits &= ~end_anchored
                        if hits:
                            events.append((i, hits))
        matched = _matched_states(program, data, 0) if program.track_matched else 0
        stats = StepStats(
            cycles=n,
            active_states=active,
            matched_states=matched,
            reports=len(events),
        )
        return events, stats, KernelState(offset=offset + n, states=states)
