"""Functional execution of compiled regexes, collecting activity events.

The paper's simulator "uses the actual dataflow to emulate the
cycle-accurate hardware behavior" (Section 5.2): energy is a function of
which states are active, which bit vectors update, and which tiles wake up
on each input symbol.  This module runs the functional engines over the
input once per compiled regex (or per LNFA bin) and returns exactly those
event counts; the architecture-specific simulators then price the events
with the Table 1 circuit models.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.automata.dfa import DFAScanner
from repro.automata.nbva import NBVASimulator, NBVAState, NBVAStats
from repro.automata.nfa import NFASimulator, StepStats
from repro.automata.shift_and import MultiShiftAnd
from repro.compiler.program import CompiledMode, CompiledRegex
from repro.core.state import KernelState, iter_states_from
from repro.hardware.config import HardwareConfig
from repro.mapping.binning import Bin, states_per_tile


@dataclass
class RegexActivity:
    """Event counts from running one compiled regex over the input."""

    regex_id: int
    mode: CompiledMode
    cycles: int
    matches: list[int]
    active_state_cycles: int = 0  # sum over cycles of active state count
    bv_phase_cycles: int = 0
    bv_cycle_indices: list[int] = field(default_factory=list)
    bv_updates: int = 0
    set1_events: int = 0
    shift_events: int = 0
    copy_events: int = 0

    @property
    def mean_activity(self) -> float:
        """Average active states per cycle."""
        return self.active_state_cycles / self.cycles if self.cycles else 0.0

    def merge(self, other: "RegexActivity") -> "RegexActivity":
        """Associative combination of two disjoint slices of one run.

        Every field is an integer counter or a list of global indices, so
        the merge is exact: folding per-chunk activities in chunk order
        reproduces the whole-stream activity bit for bit (the invariant
        the parallel engine's energy accounting rests on).
        """
        if (self.regex_id, self.mode) != (other.regex_id, other.mode):
            raise ValueError("cannot merge activities of different regexes")
        return RegexActivity(
            regex_id=self.regex_id,
            mode=self.mode,
            cycles=self.cycles + other.cycles,
            matches=self.matches + other.matches,
            active_state_cycles=(
                self.active_state_cycles + other.active_state_cycles
            ),
            bv_phase_cycles=self.bv_phase_cycles + other.bv_phase_cycles,
            bv_cycle_indices=self.bv_cycle_indices + other.bv_cycle_indices,
            bv_updates=self.bv_updates + other.bv_updates,
            set1_events=self.set1_events + other.set1_events,
            shift_events=self.shift_events + other.shift_events,
            copy_events=self.copy_events + other.copy_events,
        )


@dataclass
class BinActivity:
    """Per-tile wake-up statistics from running one LNFA bin."""

    bin: Bin
    cycles: int
    matches: dict[int, list[int]]  # regex_id -> end positions
    tile_active_cycles: list[int] = field(default_factory=list)
    tile_active_bits: list[int] = field(default_factory=list)

    @property
    def woken_tile_cycles(self) -> int:
        """Total tile-cycles that could not be power-gated."""
        return sum(self.tile_active_cycles)

    def merge(self, other: "BinActivity") -> "BinActivity":
        """Associative combination of two disjoint slices of one run
        (same exactness guarantee as :meth:`RegexActivity.merge`)."""
        if self.bin is not other.bin and self.bin != other.bin:
            raise ValueError("cannot merge activities of different bins")
        matches = {rid: list(ends) for rid, ends in self.matches.items()}
        for rid, ends in other.matches.items():
            matches.setdefault(rid, []).extend(ends)
        return BinActivity(
            bin=self.bin,
            cycles=self.cycles + other.cycles,
            matches=matches,
            tile_active_cycles=[
                a + b
                for a, b in zip(self.tile_active_cycles, other.tile_active_cycles)
            ],
            tile_active_bits=[
                a + b
                for a, b in zip(self.tile_active_bits, other.tile_active_bits)
            ],
        )


def nbva_activity(
    compiled: CompiledRegex, matches: list[int], stats: NBVAStats
) -> RegexActivity:
    """An NBVA scan's (global) matches and counters as its regex's
    activity (fresh lists: callers may keep feeding ``stats``)."""
    return RegexActivity(
        regex_id=compiled.regex_id,
        mode=compiled.mode,
        cycles=stats.cycles,
        matches=list(matches),
        active_state_cycles=stats.active_states,
        bv_phase_cycles=stats.bv_phase_cycles,
        bv_cycle_indices=list(stats.bv_cycle_indices or []),
        bv_updates=stats.bv_updates,
        set1_events=stats.set1_events,
        shift_events=stats.shift_events,
        copy_events=stats.copy_events,
    )


def collect_regex_activity(
    compiled: CompiledRegex,
    data: bytes,
    *,
    base: int = 0,
    stats_from: int = 0,
) -> RegexActivity:
    """Run one NFA- or NBVA-mode regex and harvest its event counts.

    ``data`` may be a slice of a longer stream starting at global offset
    ``base``: reported match positions and BV cycle indices are globally
    offset.  ``stats_from`` marks the first slice-local index that this
    chunk owns; earlier bytes only warm the active set up (the parallel
    engine's overlap window) and contribute nothing to the counters.
    Warm-up is only sound for window-bounded regexes — see
    :func:`repro.engine.partition.required_overlap` — and is not
    supported for NBVA-mode regexes (their counter vectors carry
    unbounded history).
    """
    if compiled.mode is CompiledMode.LNFA:
        raise ValueError("LNFA regexes are executed per bin; see collect_bin_activity")
    assert compiled.automaton is not None
    anchors = dict(
        anchored_start=compiled.anchored_start,
        anchored_end=compiled.anchored_end,
    )
    if compiled.mode is CompiledMode.NFA:
        stats = StepStats()
        matches = NFASimulator(compiled.automaton).find_matches(
            data, stats, stats_from=stats_from, **anchors
        )
        return RegexActivity(
            regex_id=compiled.regex_id,
            mode=compiled.mode,
            cycles=stats.cycles,
            matches=[base + m for m in matches] if base else matches,
            active_state_cycles=stats.active_states,
        )
    if compiled.mode is CompiledMode.DFA:
        if compiled.anchored_start or compiled.anchored_end:
            raise ValueError("DFA-mode regexes are unanchored by eligibility")
        stats = StepStats()
        matches = DFAScanner(compiled.automaton).find_matches(
            data, stats, stats_from=stats_from
        )
        return RegexActivity(
            regex_id=compiled.regex_id,
            mode=compiled.mode,
            cycles=stats.cycles,
            matches=[base + m for m in matches] if base else matches,
            active_state_cycles=stats.active_states,
        )
    if stats_from:
        raise ValueError("NBVA regexes cannot be chunk-windowed")
    stats = NBVAStats(bv_cycle_indices=[])
    matches = NBVASimulator(compiled.automaton).find_matches(
        data, stats, **anchors
    )
    if base:
        matches = [base + m for m in matches]
        stats.bv_cycle_indices = [base + i for i in stats.bv_cycle_indices]
    return nbva_activity(compiled, matches, stats)


@dataclass(frozen=True)
class _BinLayout:
    """Precomputed packed-machine geometry of one LNFA bin."""

    packed: MultiShiftAnd
    tile_masks: tuple[int, ...]  # packed-bit mask per tile
    finals: dict[int, int]  # final bit -> regex_id
    final_mask: int
    end_anchored_mask: int


def _bin_layout(bin_obj: Bin, hw: HardwareConfig) -> _BinLayout:
    """Pack a bin's LNFAs and map its bits to tiles and regexes.

    The bin's LNFAs are mapped regex-sliced: tile ``t`` holds states
    ``[t * region, (t + 1) * region)`` of every member, where ``region``
    is the per-LNFA share of the tile's capacity.
    """
    lnfas = [item.lnfa for item in bin_obj.items]
    anchors = [
        (item.anchored_start, item.anchored_end) for item in bin_obj.items
    ]
    packed = MultiShiftAnd(lnfas, anchors=anchors)
    region = states_per_tile(bin_obj.kind, hw) // bin_obj.size

    tile_masks = [0] * bin_obj.tiles
    offset = 0
    for lnfa in lnfas:
        for state in range(len(lnfa)):
            tile_masks[state // region] |= 1 << (offset + state)
        offset += len(lnfa)

    finals: dict[int, int] = {}
    end_anchored_mask = 0
    offset = 0
    for item, lnfa in zip(bin_obj.items, lnfas):
        final_bit = offset + len(lnfa) - 1
        finals[final_bit] = item.regex_id
        if item.anchored_end:
            end_anchored_mask |= 1 << final_bit
        offset += len(lnfa)
    final_mask = 0
    for bit in finals:
        final_mask |= 1 << bit
    return _BinLayout(
        packed=packed,
        tile_masks=tuple(tile_masks),
        finals=finals,
        final_mask=final_mask,
        end_anchored_mask=end_anchored_mask,
    )


def collect_bin_activity(
    bin_obj: Bin,
    data: bytes,
    hw: HardwareConfig,
    *,
    base: int = 0,
    stats_from: int = 0,
) -> BinActivity:
    """Run one LNFA bin, tracking which of its tiles wake up each cycle.

    ``base``/``stats_from`` have the same chunk-windowing semantics as in
    :func:`collect_regex_activity`: the slice's first ``stats_from``
    bytes warm up the shift registers without being counted, and match
    positions are offset to the global stream.

    The bin's LNFAs are mapped regex-sliced: tile ``t`` holds states
    ``[t * region, (t + 1) * region)`` of every member, where ``region``
    is the per-LNFA share of the tile's capacity.  Tile 0 holds all the
    initial states, so it is awake every cycle; later tiles are awake only
    on cycles where they hold at least one active state (Fig. 7's power
    gating).
    """
    layout = _bin_layout(bin_obj, hw)
    packed = layout.packed
    tile_masks = layout.tile_masks
    tile_count = len(tile_masks)
    finals = layout.finals
    final_mask = layout.final_mask
    end_anchored_mask = layout.end_anchored_mask

    matches: dict[int, list[int]] = {item.regex_id: [] for item in bin_obj.items}
    tile_active_cycles = [0] * tile_count
    tile_active_bits = [0] * tile_count
    cycles = 0
    last = len(data) - 1
    for i, states in packed.iter_states(data):
        if i < stats_from:
            continue
        cycles += 1
        tile_active_cycles[0] += 1  # initial tile is never gated
        tile_active_bits[0] += (states & tile_masks[0]).bit_count()
        for t in range(1, tile_count):
            live = states & tile_masks[t]
            if live:
                tile_active_cycles[t] += 1
                tile_active_bits[t] += live.bit_count()
        hits = states & final_mask
        if i != last:
            hits &= ~end_anchored_mask
        while hits:
            low = hits & -hits
            hits ^= low
            matches[finals[low.bit_length() - 1]].append(base + i)
    return BinActivity(
        bin=bin_obj,
        cycles=cycles,
        matches=matches,
        tile_active_cycles=tile_active_cycles,
        tile_active_bits=tile_active_bits,
    )


class RegexActivityCollector:
    """Stateful, snapshotable counterpart of :func:`collect_regex_activity`.

    Feed the stream one segment at a time; :meth:`activity` returns the
    same :class:`RegexActivity` (bit for bit) that one whole-stream
    ``collect_regex_activity`` call would have produced.  The collector's
    full state — scanner frontier, accumulated counters, match list —
    round-trips through :meth:`snapshot`/:meth:`restore` as plain JSON,
    which is what the durable-scan checkpoints serialize.
    """

    def __init__(self, compiled: CompiledRegex):
        if compiled.mode is CompiledMode.LNFA:
            raise ValueError(
                "LNFA regexes are executed per bin; see BinActivityCollector"
            )
        assert compiled.automaton is not None
        self._compiled = compiled
        anchors = dict(
            anchored_start=compiled.anchored_start,
            anchored_end=compiled.anchored_end,
        )
        self._nbva = compiled.mode is CompiledMode.NBVA
        if self._nbva:
            self._scanner = NBVASimulator(compiled.automaton).scanner(**anchors)
            self._stats = NBVAStats(bv_cycle_indices=[])
        elif compiled.mode is CompiledMode.DFA:
            if compiled.anchored_start or compiled.anchored_end:
                raise ValueError(
                    "DFA-mode regexes are unanchored by eligibility"
                )
            # Same feed/snapshot/restore surface and bit-identical
            # counters as the NFA scanner — including the serialized
            # KernelState documents, so checkpoints stay byte-identical
            # across the two modes.
            self._scanner = DFAScanner(compiled.automaton)
            self._stats = StepStats()
        else:
            self._scanner = NFASimulator(compiled.automaton).scanner(**anchors)
            self._stats = StepStats()
        self._matches: list[int] = []

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._scanner.offset

    @property
    def matches(self) -> list[int]:
        """The accumulated match end positions — the live, append-only
        list (read-only to callers; slice it for incremental diffs)."""
        return self._matches

    @property
    def state(self) -> KernelState | NBVAState:
        """The scanner's mid-stream state: the active set of an NFA/DFA
        regex (whichever of the two modes executes it), the plain active
        set plus live bit vectors of an NBVA one."""
        return self._scanner.state

    def apply_segment(
        self,
        *,
        stats: StepStats | NBVAStats,
        matches: list[int],
        state: KernelState | NBVAState,
    ) -> None:
        """Fold one segment's precomputed activity into the collector.

        The per-regex counterpart of :meth:`BinActivityCollector.
        apply_segment`: the fused plan steps the regex's unit once per
        segment and hands over the exact deltas :meth:`feed` would have
        accumulated — counters (of the regex's own kind), global match
        positions, and the continuation state.  Callers own the
        exactness contract.
        """
        self._stats = self._stats.merge(stats)
        self._matches.extend(matches)
        self._scanner.state = state

    def feed(self, segment: bytes, *, at_end: bool = True) -> None:
        """Consume the next segment of the stream."""
        self._matches.extend(
            self._scanner.feed(segment, self._stats, at_end=at_end)
        )

    def activity(self) -> RegexActivity:
        """The accumulated activity, as :func:`collect_regex_activity`
        would report it for the bytes consumed so far."""
        compiled = self._compiled
        stats = self._stats
        if self._nbva:
            return nbva_activity(compiled, self._matches, stats)
        return RegexActivity(
            regex_id=compiled.regex_id,
            mode=compiled.mode,
            cycles=stats.cycles,
            matches=list(self._matches),
            active_state_cycles=stats.active_states,
        )

    def snapshot(self) -> dict:
        """JSON-ready collector state."""
        return {
            "scanner": self._scanner.snapshot(),
            "stats": asdict(self._stats),
            "matches": list(self._matches),
        }

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        try:
            self._scanner.restore(doc["scanner"])
            stats_doc = dict(doc["stats"])
            self._stats = (
                NBVAStats(**stats_doc) if self._nbva else StepStats(**stats_doc)
            )
            self._matches = [int(m) for m in doc["matches"]]
        except (KeyError, TypeError) as err:
            raise ValueError(
                f"malformed regex-collector document: {err}"
            ) from err


class BinActivityCollector:
    """Stateful, snapshotable counterpart of :func:`collect_bin_activity`.

    Same contract as :class:`RegexActivityCollector`, for one LNFA bin:
    segment feeds accumulate per-tile wake-up counters and global match
    positions, and :meth:`activity` reproduces the whole-stream
    :class:`BinActivity` exactly.
    """

    def __init__(
        self, bin_obj: Bin, hw: HardwareConfig, layout: _BinLayout | None = None
    ):
        self._bin = bin_obj
        # ``layout`` shares a geometry the caller already derived (the
        # fused plan packs every bin before any collector exists).
        self._layout = layout or _bin_layout(bin_obj, hw)
        self._state = KernelState()
        self._cycles = 0
        self._matches: dict[int, list[int]] = {
            item.regex_id: [] for item in bin_obj.items
        }
        tile_count = len(self._layout.tile_masks)
        self._tile_active_cycles = [0] * tile_count
        self._tile_active_bits = [0] * tile_count

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._state.offset

    @property
    def matches(self) -> dict[int, list[int]]:
        """Accumulated per-regex match end positions — the live,
        append-only containers (read-only to callers)."""
        return self._matches

    @property
    def layout(self) -> _BinLayout:
        """The bin's packed-machine geometry (program, tiles, finals)."""
        return self._layout

    @property
    def state(self) -> KernelState:
        """The packed machine's mid-stream kernel state."""
        return self._state

    def apply_segment(
        self,
        *,
        cycles: int,
        tile_cycles: list[int],
        tile_bits: list[int],
        matches: dict[int, list[int]],
        state: KernelState,
    ) -> None:
        """Fold one segment's precomputed activity into the collector.

        The fused ruleset scanner steps every bin of a ruleset in one
        pass and hands each collector the exact deltas its own
        :meth:`feed` would have accumulated for the same segment —
        counters, per-tile wake-ups, global match positions, and the
        continuation state.  Callers own the exactness contract.
        """
        self._cycles += cycles
        for t, count in enumerate(tile_cycles):
            self._tile_active_cycles[t] += count
        for t, bits in enumerate(tile_bits):
            self._tile_active_bits[t] += bits
        for rid, ends in matches.items():
            self._matches[rid].extend(ends)
        self._state = state

    def feed(self, segment: bytes, *, at_end: bool = True) -> None:
        """Consume the next segment of the stream."""
        if not segment:
            return
        layout = self._layout
        program = layout.packed.program
        tile_masks = layout.tile_masks
        tile_count = len(tile_masks)
        finals = layout.finals
        final_mask = layout.final_mask
        end_anchored_mask = layout.end_anchored_mask
        tile_active_cycles = self._tile_active_cycles
        tile_active_bits = self._tile_active_bits
        matches = self._matches
        base = self._state.offset
        last = len(segment) - 1
        states = self._state.states
        for i, states in iter_states_from(program, segment, self._state):
            self._cycles += 1
            tile_active_cycles[0] += 1  # initial tile is never gated
            tile_active_bits[0] += (states & tile_masks[0]).bit_count()
            for t in range(1, tile_count):
                live = states & tile_masks[t]
                if live:
                    tile_active_cycles[t] += 1
                    tile_active_bits[t] += live.bit_count()
            hits = states & final_mask
            if not (at_end and i == last):
                hits &= ~end_anchored_mask
            while hits:
                low = hits & -hits
                hits ^= low
                matches[finals[low.bit_length() - 1]].append(base + i)
        self._state = KernelState(offset=base + len(segment), states=states)

    def activity(self) -> BinActivity:
        """The accumulated activity, as :func:`collect_bin_activity`
        would report it for the bytes consumed so far."""
        return BinActivity(
            bin=self._bin,
            cycles=self._cycles,
            matches={rid: list(ends) for rid, ends in self._matches.items()},
            tile_active_cycles=list(self._tile_active_cycles),
            tile_active_bits=list(self._tile_active_bits),
        )

    def snapshot(self) -> dict:
        """JSON-ready collector state (matches keyed in sorted regex-id
        order for deterministic serialized bytes)."""
        return {
            "state": self._state.to_json(),
            "cycles": self._cycles,
            "matches": [
                [rid, list(ends)]
                for rid, ends in sorted(self._matches.items())
            ],
            "tile_active_cycles": list(self._tile_active_cycles),
            "tile_active_bits": list(self._tile_active_bits),
        }

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        try:
            state = KernelState.from_json(doc["state"])
            cycles = int(doc["cycles"])
            matches = {
                int(rid): [int(e) for e in ends]
                for rid, ends in doc["matches"]
            }
            tile_active_cycles = [int(c) for c in doc["tile_active_cycles"]]
            tile_active_bits = [int(c) for c in doc["tile_active_bits"]]
        except (KeyError, TypeError) as err:
            raise ValueError(
                f"malformed bin-collector document: {err}"
            ) from err
        for item in self._bin.items:
            matches.setdefault(item.regex_id, [])
        self._state = state
        self._cycles = cycles
        self._matches = matches
        self._tile_active_cycles = tile_active_cycles
        self._tile_active_bits = tile_active_bits
