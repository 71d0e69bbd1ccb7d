"""The default stdlib-only step kernel: Python ints as bitsets.

The scan loops are deliberately monolithic — one flat loop per
:class:`~repro.core.program.ProgramKind` with every hot name bound to a
local — because this kernel sits under every simulator and experiment.
Two structural tricks keep the exact counters nearly free:

* ``cycles`` and ``matched_states`` do not depend on the state vector at
  all (``matched_states`` is the popcount of the byte's label mask, a
  pure function of the input), so both are computed outside the loop —
  ``matched_states`` with C-level ``bytes.count`` over the handful of
  byte values that carry labels;
* ``active_states`` only changes on cycles with a non-empty active set,
  so the loop popcounts exactly when ``states`` is truthy.

The result is that a full stats-collecting scan costs no more than the
old stats-free loop it replaced.
"""

from __future__ import annotations

from repro.core.kernel import MatchEvent, StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.state import KernelState, iter_states_from

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

    def scan(
        self,
        program: KernelProgram,
        data: bytes,
        *,
        stats_from: int = 0,
    ) -> tuple[list[MatchEvent], StepStats]:
        """Run ``program`` over ``data`` (see :class:`~repro.core.kernel.
        StepKernel` for the contract)."""
        n = len(data)
        stats_from = min(max(stats_from, 0), n)
        if program.kind is ProgramKind.GATHER:
            events, active = self._scan_gather(program, data, stats_from)
        else:
            events, active = self._scan_shift(program, data, stats_from)
        matched = (
            _matched_states(program, data, stats_from)
            if program.track_matched
            else 0
        )
        return events, StepStats(
            cycles=n - stats_from,
            active_states=active,
            matched_states=matched,
            reports=len(events),
        )

    # -- kind-specific monolithic loops -------------------------------------

    def _scan_gather(
        self, program: KernelProgram, data: bytes, stats_from: int
    ) -> tuple[list[MatchEvent], int]:
        labels = program.labels
        succ = program.succ
        final = program.final
        end_anchored = program.end_anchored_finals
        inject = program.inject_always
        last = len(data) - 1
        events: list[MatchEvent] = []
        active = 0
        states = 0
        if data:
            states = program.inject_first & labels[data[0]]
            if stats_from == 0 and states:
                active += states.bit_count()
                hits = states & final
                if hits and last != 0:
                    hits &= ~end_anchored
                if hits:
                    events.append((0, hits))
        start = max(1, stats_from)
        for byte in memoryview(data)[1:start]:
            avail = inject
            a = states
            while a:
                low = a & -a
                avail |= succ[low.bit_length() - 1]
                a ^= low
            states = avail & labels[byte]
        for i, byte in enumerate(memoryview(data)[start:], start):
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
        return events, active

    def _scan_shift(
        self, program: KernelProgram, data: bytes, stats_from: int
    ) -> tuple[list[MatchEvent], int]:
        labels = program.labels
        final = program.final
        end_anchored = program.end_anchored_finals
        inject = program.inject_always
        left = program.kind is ProgramKind.SHIFT_LEFT
        keep = ~program.clear_after_shift
        last = len(data) - 1
        events: list[MatchEvent] = []
        active = 0
        states = 0
        if data:
            states = program.inject_first & labels[data[0]]
            if stats_from == 0 and states:
                active += states.bit_count()
                hits = states & final
                if hits and last != 0:
                    hits &= ~end_anchored
                if hits:
                    events.append((0, hits))
        start = max(1, stats_from)
        if left:
            for byte in memoryview(data)[1:start]:
                states = ((states << 1) & keep | inject) & labels[byte]
            for i, byte in enumerate(memoryview(data)[start:], start):
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
            for byte in memoryview(data)[1:start]:
                states = (states >> 1 | inject) & labels[byte]
            for i, byte in enumerate(memoryview(data)[start:], start):
                states = (states >> 1 | inject) & labels[byte]
                if states:
                    active += states.bit_count()
                    hits = states & final
                    if hits:
                        if i != last:
                            hits &= ~end_anchored
                        if hits:
                            events.append((i, hits))
        return events, active

    # -- resumable segment scan ----------------------------------------------

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
        succ = program.succ
        final = program.final
        end_anchored = program.end_anchored_finals
        inject = program.inject_always
        gather = program.kind is ProgramKind.GATHER
        left = program.kind is ProgramKind.SHIFT_LEFT
        keep = ~program.clear_after_shift
        offset = state.offset
        last = n - 1
        events: list[MatchEvent] = []
        active = 0
        states = state.states
        start = 0
        if offset == 0:
            # The stream's true first symbol: availability is the
            # injection mask alone (transition of the empty set is
            # empty), matching the whole-stream loops bit for bit.
            states = program.inject_first & labels[data[0]]
            if states:
                active += states.bit_count()
                hits = states & final
                if hits and not (at_end and last == 0):
                    hits &= ~end_anchored
                if hits:
                    events.append((0, hits))
            start = 1
        for i, byte in enumerate(memoryview(data)[start:], start):
            if gather:
                avail = inject
                a = states
                while a:
                    low = a & -a
                    avail |= succ[low.bit_length() - 1]
                    a ^= low
            elif left:
                avail = (states << 1) & keep | inject
            else:
                avail = states >> 1 | inject
            states = avail & labels[byte]
            if states:
                active += states.bit_count()
                hits = states & final
                if hits:
                    if not (at_end and i == last):
                        hits &= ~end_anchored
                    if hits:
                        events.append((offset + i, hits))
        matched = _matched_states(program, data, 0) if program.track_matched else 0
        stats = StepStats(
            cycles=n,
            active_states=active,
            matched_states=matched,
            reports=len(events),
        )
        return events, stats, KernelState(offset=offset + n, states=states)

    # -- lazy per-cycle view -------------------------------------------------

    def iter_states(self, program: KernelProgram, data: bytes):
        """Yield ``(index, packed_state_vector)`` per input byte."""
        return iter_states_from(program, data)
