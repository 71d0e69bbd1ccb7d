"""Ruleset-wide fused execution of the functional collectors.

This is the simulator-layer half of the ``fused`` / ``native`` backends
(:mod:`repro.core.fused` is the machine itself).  Everything above the
``python`` oracle executes one :class:`FusedPlan`:

* :class:`FusedPlan` derives a mapped ruleset's execution layout once —
  LNFA bins in mapping order, NFA and DFA programs deduped by functional
  fingerprint (exactly like :class:`~repro.core.trace.ActivityTrace`),
  NBVA representatives, one :class:`~repro.core.fused.FusedRuleset`,
  one :class:`FusedLaneScanner` — and assembles unit results back into
  a :class:`~repro.simulators.rap.RunActivity` in collection order.
  Bulk scans (:class:`FusedRun`), input-parallel scans
  (:mod:`repro.engine.split`) and durable / served scans
  (:class:`~repro.engine.checkpoint.DurableScan`) all consume the one
  plan :func:`~repro.simulators.rap.bind` keeps per compiled ruleset.
* :class:`FusedLaneScanner` steps the lane-packed machine over one
  span of a stream and returns the per-bin activity deltas
  (:class:`LaneDelta`) plus the exit state.  Spans may start mid-stream
  from an explicit entry word (the durable feeder's segments) or from a
  warm-up window (the input-parallel split engine's chunks).
  Every bin is one :class:`~repro.core.table.StepTable` of the fused
  ruleset; the generated C steps them closed, the table walker
  (:meth:`StepTable.walk <repro.core.table.StepTable.walk>`) fills them
  as it goes — with no compiler, for a bin too large to close, or from
  an entry word outside a closure.
* :class:`FusedBinFeeder` and :class:`FusedRegexFeeder` step a durable
  scan's ordinary collectors through the plan, one segment at a time.
  Both are stateless between feeds — they load each unit's entry state
  from the collectors' :class:`~repro.core.KernelState` and write the
  continuation back — so snapshot/restore documents are byte-identical
  to the ``python`` backend's and a SIGKILL-resume replays the same
  integer stream.  A segment is never cut: only
  :mod:`repro.engine.split` splits a stream, and only a bulk one.
* :class:`FusedRun` reproduces
  :meth:`~repro.simulators.rap.RAPSimulator.collect_activities` for a
  whole run: the input is translated once through the shared alphabet
  classes, and NFA, DFA and NBVA units scan off the shared translation
  while LNFA bins run through the feeder.

Import this module lazily, only after the backend registry has resolved
``fused`` or ``native`` — :mod:`repro.core.fused` requires NumPy.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
from dataclasses import dataclass, replace

from repro.automata.nfa import NFASimulator
from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.core.fused import FusedRuleset, TranslatedSegment
from repro.core.registry import (
    NATIVE_FORMAT_VERSION,
    resolve_backend_with_reason,
)
from repro.core.state import KernelState
from repro.core.table import StepTable
from repro.core.trace import regex_fingerprint
from repro.hardware.config import HardwareConfig
from repro.mapping.mapper import Mapping
from repro.simulators.activity import (
    BinActivity,
    BinActivityCollector,
    RegexActivity,
    RegexActivityCollector,
    _bin_layout,
    _BinLayout,
    # Re-exported only: the benchmark ledger wraps this name on this
    # module (span ``automata.nbva_scan``), which the plan no longer calls.
    collect_regex_activity,  # noqa: F401
    nbva_activity,
)
from repro.simulators.rap import RunActivity, bind

log = logging.getLogger(__name__)


@dataclass
class LaneDelta:
    """Per-bin activity deltas of one lane-machine span.

    Everything a :meth:`BinActivityCollector.apply_segment` fold needs,
    as plain integers and lists (picklable, mergeable in chunk order):
    owned cycle count, per-bin per-tile wake-ups (tile 0 already holds
    the never-gated owned count), per-bin global match positions, and
    the exit state continuing the stream.
    """

    cycles: int
    tile_cycles: list[list[int]]
    tile_bits: list[list[int]]
    matches: list[dict[int, list[int]]]
    exit_states: list[int]
    exit_packed: int


class FusedLaneScanner:
    """Scan spans of the lane-packed machine, producing per-bin deltas.

    Built from the bins' packed-machine layouts (in bin order); the
    fused compilation — which owns every bin's table — is shared with
    the caller's when supplied, so the alphabet classes match the rest
    of the run.  The scanner holds no stream state, so one serves every
    scan of its plan; it never leaves its process (a worker is seeded
    with the ruleset and binds its own).
    """

    def __init__(
        self, layouts: list[_BinLayout], fused: FusedRuleset | None = None
    ):
        self._layouts = list(layouts)
        programs = [layout.packed.program for layout in self._layouts]
        if fused is None:
            fused = FusedRuleset(programs)
        self._fused = fused
        self._tile_starts: list[int] = []
        start = 0
        for layout in self._layouts:
            self._tile_starts.append(start)
            start += len(layout.tile_masks)

        # Global final-bit → (bin, regex_id), for match decomposition.
        finals: dict[int, tuple[int, int]] = {}
        for j, layout in enumerate(self._layouts):
            base = fused.bases[j]
            for bit, rid in layout.finals.items():
                finals[base + bit] = (j, rid)
        self._finals = finals

        # The warm-up window: the lanes forget any state after it.
        self.warm = fused.warm

        # Native-codegen attachment: decided when the scanner is built,
        # compiled and loaded lazily on the first scan.  Build failures
        # fall back to the table walker with identical results.
        resolved, why = resolve_backend_with_reason()
        self._native_requested = bool(self._layouts) and resolved == "native"
        self._native = None
        self._native_tried = False
        self._interpreted_why = why or f"{resolved} backend"

    def _native_scanner(self):
        if not self._native_requested:
            return None
        if not self._native_tried:
            self._native_tried = True
            try:
                from repro.core.native import NativeLaneScanner

                self._native = NativeLaneScanner(
                    self._fused,
                    [layout.tile_masks for layout in self._layouts],
                )
            except Exception as err:
                log.debug("native lane kernel unavailable: %s", err)
                self._native = None
                self._interpreted_why = str(err)
        return self._native

    @property
    def native_active(self) -> bool:
        """Whether scans run the compiled lane kernel (builds lazily)."""
        return self._native_scanner() is not None

    @property
    def lane_tier(self) -> str:
        """What steps the lane machine: ``dfa (S states / G groups of B
        bins)`` — the compiled kernel — or ``interpreted (<why>)``, the
        table walker (builds lazily)."""
        native = self._native_scanner()
        if native is not None:
            return native.tier
        return f"interpreted ({self._interpreted_why})"

    def lane_dfas(self) -> list[StepTable]:
        """Every bin's table, the one the walker reads (and the compiled
        kernel, for a bin that stayed its own group): closed when the
        kernel attached, else filled as the walker goes."""
        return [
            self._fused.lane_dfa(j, layout.tile_masks)
            for j, layout in enumerate(self._layouts)
        ]

    @property
    def fused(self) -> FusedRuleset:
        """The shared fused compilation this scanner steps."""
        return self._fused

    @property
    def bin_count(self) -> int:
        """Number of bins packed into the lane machine."""
        return len(self._layouts)

    def empty_delta(self, entry: int = 0) -> LaneDelta:
        """The delta of a zero-length span (merge identity)."""
        fused = self._fused
        return LaneDelta(
            cycles=0,
            tile_cycles=[
                [0] * len(layout.tile_masks) for layout in self._layouts
            ],
            tile_bits=[
                [0] * len(layout.tile_masks) for layout in self._layouts
            ],
            matches=[{} for _ in self._layouts],
            exit_states=[
                fused.extract(entry, j) for j in range(len(self._layouts))
            ],
            exit_packed=entry,
        )

    def scan(
        self,
        segment: bytes,
        *,
        entry: int = 0,
        fresh: bool,
        at_end: bool,
        base: int = 0,
        stats_from: int = 0,
        tin=None,
    ) -> LaneDelta:
        """One span of the stream as its per-bin activity deltas.

        ``entry`` is the packed word entering the span (ignored when
        ``fresh``), ``base`` the span's global offset (match positions
        are globalized against it), and ``stats_from`` the span-local
        index of the first owned byte — the warm-up prefix drives the
        word but prices nothing.  ``at_end`` marks the true stream end
        (end-anchored finals fire nowhere else).
        """
        n = len(segment)
        if n == 0:
            return self.empty_delta(entry)
        fused = self._fused
        span = dict(
            entry=entry, fresh=fresh, at_end=at_end, stats_from=stats_from
        )
        native = self._native_scanner()
        scanned = native.scan(segment, **span) if native else None
        if scanned is None and native and n > self.warm:
            # An entry word the tables cannot take: walk until the lanes
            # have forgotten it, hand the kernel the rest.
            cut, own = self.warm, min(self.warm, stats_from)
            head = self.scan(
                segment[:cut], entry=entry, fresh=False, at_end=False, base=base,
                stats_from=own,
            )
            rest = self.scan(
                segment[cut:], entry=head.exit_packed, fresh=False, at_end=at_end,
                base=base + cut, stats_from=stats_from - own,
            )
            return self.merge_deltas([head, rest])
        if scanned is None:  # no kernel, or too short a span to hand over
            cls = (tin or fused.translate(segment)).cls_bytes
            scanned = self._walk(cls, **span)
        flat_cycles, flat_bits, hits, packed = scanned

        # Either tier hands back flattened per-tile counters and the
        # packed state word at each hit position; the decomposition
        # below is shared, so the delta — and every snapshot built from
        # it — is byte-identical across tiers (plain Python ints, same
        # ordering).  End-anchored finals fire on the stream's last byte
        # only.
        finals = self._finals
        mid_final = fused.final & ~fused.end_anchored
        last = n - 1 if at_end else -1
        matches: list[dict[int, list[int]]] = [{} for _ in self._layouts]
        for position, word in hits:
            word &= fused.final if position == last else mid_final
            while word:
                low = word & -word
                word ^= low
                j, rid = finals[low.bit_length() - 1]
                matches[j].setdefault(rid, []).append(base + position)
        owned = n - max(0, stats_from)
        per_bin_cycles: list[list[int]] = []
        per_bin_bits: list[list[int]] = []
        for j, layout in enumerate(self._layouts):
            start = self._tile_starts[j]
            tiles = len(layout.tile_masks)
            # Tile 0 is never power-gated: it accrues a cycle per owned
            # input symbol regardless of liveness (only its *bits* come
            # from live cycles) — the closed form of the per-cycle loop.
            per_bin_cycles.append(
                [owned] + flat_cycles[start + 1 : start + tiles]
            )
            per_bin_bits.append(flat_bits[start : start + tiles])
        return LaneDelta(
            cycles=owned,
            tile_cycles=per_bin_cycles,
            tile_bits=per_bin_bits,
            matches=matches,
            exit_states=[
                fused.extract(packed, j) for j in range(len(self._layouts))
            ],
            exit_packed=packed,
        )

    def _walk(
        self, cls: bytes, *, entry: int, fresh: bool, at_end: bool, stats_from: int
    ) -> tuple[list[int], list[int], list[tuple[int, int]], int]:
        """The portable mirror of :meth:`NativeLaneScanner.scan
        <repro.core.native.NativeLaneScanner.scan>`: bins never
        interact, so each one's DFA is walked over the span in turn."""
        fused = self._fused
        flat_cycles: list[int] = []
        flat_bits: list[int] = []
        exits: list[int] = []
        hits: dict[int, int] = {}
        for j, dfa in enumerate(self.lane_dfas()):
            cycles, bits, found, word = dfa.walk(
                cls,
                fused.extract(entry, j),
                fresh=fresh,
                at_end=at_end,
                stats_from=stats_from,
            )
            flat_cycles += cycles
            flat_bits += bits
            exits.append(word)
            for position, state in found:
                hits[position] = hits.get(position, 0) | state << fused.bases[j]
        return flat_cycles, flat_bits, sorted(hits.items()), fused.pack(exits)

    def merge_deltas(self, deltas: list[LaneDelta]) -> LaneDelta:
        """Fold chunk deltas, in chunk order, into one segment delta.

        Counters add, match lists concatenate (positions are global and
        ascending across chunks), and the exit state is the last
        chunk's — the associative composition the split engine rests
        on.
        """
        if not deltas:
            return self.empty_delta()
        merged = deltas[0]
        for delta in deltas[1:]:
            matches: list[dict[int, list[int]]] = []
            for j in range(len(self._layouts)):
                folded = {
                    rid: list(ends) for rid, ends in merged.matches[j].items()
                }
                for rid, ends in delta.matches[j].items():
                    folded.setdefault(rid, []).extend(ends)
                matches.append(folded)
            merged = LaneDelta(
                cycles=merged.cycles + delta.cycles,
                tile_cycles=[
                    [a + b for a, b in zip(ours, theirs)]
                    for ours, theirs in zip(
                        merged.tile_cycles, delta.tile_cycles
                    )
                ],
                tile_bits=[
                    [a + b for a, b in zip(ours, theirs)]
                    for ours, theirs in zip(merged.tile_bits, delta.tile_bits)
                ],
                matches=matches,
                exit_states=delta.exit_states,
                exit_packed=delta.exit_packed,
            )
        return merged


class FusedBinFeeder:
    """Feed many bin collectors through one lane-packed machine.

    ``collectors`` are the ruleset's LNFA bins in a fixed order;
    ``scanner`` is the plan's lane scanner over the same bins (a
    bins-only one is compiled when none is supplied).  Each
    :meth:`feed` accumulates, per bin, the exact deltas the collector's
    own ``feed`` would have produced for the same segment.
    """

    def __init__(
        self,
        collectors: list[BinActivityCollector],
        scanner: FusedLaneScanner | None = None,
    ):
        self._collectors = list(collectors)
        self._scanner = scanner or FusedLaneScanner(
            [c.layout for c in self._collectors]
        )

    def feed(
        self,
        segment: bytes,
        *,
        at_end: bool = True,
        tin: TranslatedSegment | None = None,
        skip=(),
    ) -> None:
        """Consume the next stream segment on every bin at once.

        ``tin`` is the segment already translated by the scanner's
        fused compilation, when the caller shares one with other units.
        ``skip`` holds the collectors of shed bins: the packed machine
        still steps their lanes (bins never interact), but they enter at
        the empty word, their delta is dropped and the collectors stay
        frozen where they were shed.
        """
        if not segment:
            return
        live = [(j, c) for j, c in enumerate(self._collectors) if c not in skip]
        if not live:
            return
        offsets = {c.offset for _, c in live}
        if len(offsets) != 1:
            raise ValueError(
                "fused feeding requires all bins at one stream offset, "
                f"got {sorted(offsets)}"
            )
        stream_base = live[0][1].offset
        scanner = self._scanner
        states = [0] * len(self._collectors)
        for j, collector in live:
            states[j] = collector.state.states
        entry = scanner.fused.pack(states)
        delta = scanner.scan(
            segment,
            entry=entry,
            fresh=stream_base == 0,
            at_end=at_end,
            base=stream_base,
            tin=tin,
        )
        n = len(segment)
        for j, collector in live:
            collector.apply_segment(
                cycles=n,
                tile_cycles=delta.tile_cycles[j],
                tile_bits=delta.tile_bits[j],
                matches=delta.matches[j],
                state=KernelState(
                    offset=stream_base + n, states=delta.exit_states[j]
                ),
            )


class FusedRegexFeeder:
    """Feed a durable scan's regex collectors through the plan.

    The regex-side peer of :class:`FusedBinFeeder`: each NFA, DFA and
    NBVA unit is stepped once per segment through the plan's span
    scanners (compiled C when attached) and the result folded into the
    collector of *every* regex sharing the unit, instead of each regex
    stepping its own scanner.  The feeder holds no stream state — entry
    states are read from the collectors (:class:`~repro.core.KernelState`
    or :class:`~repro.automata.nbva.NBVAState`) and the continuation is
    written back — so snapshots stay byte-identical to the ``python``
    backend's.
    """

    def __init__(
        self, plan: FusedPlan, collectors: dict[int, RegexActivityCollector]
    ):
        self._fused = plan.fused
        # (mode, unit) -> the collectors of the regexes sharing it; NFA-
        # and DFA-mode units by their cursor number (DFA after NFA).
        first = {CompiledMode.DFA: plan.fused.gather_count}
        self._units: dict[tuple[CompiledMode, int], list] = {}
        for compiled in plan.ruleset:
            rid = compiled.regex_id
            if compiled.mode is not CompiledMode.LNFA:
                unit = first.get(compiled.mode, 0) + plan.unit_index[rid]
                self._units.setdefault((compiled.mode, unit), []).append(
                    (rid, collectors[rid])
                )

    def feed(
        self,
        tin: TranslatedSegment,
        *,
        at_end: bool = True,
        skip: Collection[int] = (),
    ) -> None:
        """Consume the next (translated) segment on every regex whose id
        is not in ``skip`` (shed regexes stay frozen where they are)."""
        if not tin.data:
            return
        fused = self._fused
        # Regexes sharing a unit have been fed the same bytes, so the
        # live ones agree on one entry state; grouping by it (rather
        # than assuming it) keeps a restored snapshot whose collectors
        # disagree exact: one more cursor of the same unit.
        groups: dict[tuple, list[RegexActivityCollector]] = {}
        for (mode, unit), members in self._units.items():
            for rid, collector in members:
                if rid not in skip:
                    groups.setdefault((mode, unit, collector.state), []).append(
                        collector
                    )
        # KernelState words are NFA active sets, as cursors take them:
        # every NFA- and DFA-mode group is one cursor of one call.
        table = [key for key in groups if key[0] is not CompiledMode.NBVA]
        spans = fused.scan_units_span(
            [
                (unit, entry.states if entry.offset else None)
                for _, unit, entry in table
            ],
            tin,
            at_end=at_end,
        )
        stepped = {
            key: (
                [key[2].offset + i for i, _ in events],
                stats,
                KernelState(offset=key[2].offset + len(tin.data), states=word),
            )
            for key, (events, stats, word) in zip(table, spans)
        }
        for key, group in groups.items():
            mode, unit, entry = key
            if mode is CompiledMode.NBVA:
                stepped[key] = fused.scan_nbva_unit_span(
                    unit, tin, state=entry, at_end=at_end
                )
            matches, stats, state = stepped[key]
            for collector in group:
                collector.apply_segment(stats=stats, matches=matches, state=state)


def unit_activity(
    compiled: CompiledRegex, positions: list[int], active: int, cycles: int
) -> RegexActivity:
    """One NFA/DFA unit's span results as its regex's activity."""
    return RegexActivity(
        regex_id=compiled.regex_id,
        mode=compiled.mode,
        cycles=cycles,
        matches=positions,
        active_state_cycles=active,
    )


class FusedPlan:
    """One mapped ruleset laid out for fused execution, derived once.

    Deterministic from ``(ruleset, mapping, hw)`` alone, so a parent and
    its workers build identical plans from the same pickled seed:

    * ``bins`` / ``bin_keys`` / ``layouts`` — every LNFA bin in mapping
      order, lane-packed by ``scanner`` (``None`` without bins);
    * ``nfa_units`` / ``dfa_units`` / ``nbva_units`` — one
      representative regex per distinct functional fingerprint, in
      ruleset order; ``unit_index`` maps every non-LNFA regex id to its
      unit's position in its mode's list;
    * ``fused`` — the one :class:`~repro.core.fused.FusedRuleset`
      holding the bins' shift programs, the NFA/DFA units' gather
      programs and the NBVA units' automata, so all of them share one
      class map and one translated input.
    """

    def __init__(
        self, ruleset: CompiledRuleset, mapping: Mapping, hw: HardwareConfig
    ):
        self.ruleset = ruleset
        self.mapping = mapping
        self.bin_keys: list[tuple[int, int]] = []
        self.bins = []
        self.layouts: list[_BinLayout] = []
        for index, bin_index, bin_obj in mapping.lnfa_bins():
            self.bin_keys.append((index, bin_index))
            self.bins.append(bin_obj)
            self.layouts.append(_bin_layout(bin_obj, hw))

        self.nfa_units: list[CompiledRegex] = []
        self.dfa_units: list[CompiledRegex] = []
        self.nbva_units: list[CompiledRegex] = []
        self.unit_index: dict[int, int] = {}
        by_mode = {
            CompiledMode.NFA: self.nfa_units,
            CompiledMode.DFA: self.dfa_units,
            CompiledMode.NBVA: self.nbva_units,
        }
        seen: dict[object, int] = {}
        for compiled in ruleset:
            units = by_mode.get(compiled.mode)
            if units is None:
                continue
            key = regex_fingerprint(compiled)  # includes the mode
            if key not in seen:
                seen[key] = len(units)
                units.append(compiled)
            self.unit_index[compiled.regex_id] = seen[key]

        def program(compiled: CompiledRegex):
            return NFASimulator(compiled.automaton).program(
                anchored_start=compiled.anchored_start,
                anchored_end=compiled.anchored_end,
            )

        self.fused = FusedRuleset(
            [layout.packed.program for layout in self.layouts],
            [program(compiled) for compiled in self.nfa_units],
            [program(compiled) for compiled in self.dfa_units],
            [
                (c.automaton, c.anchored_start, c.anchored_end)
                for c in self.nbva_units
            ],
        )
        self.scanner = (
            FusedLaneScanner(self.layouts, self.fused) if self.layouts else None
        )

    @property
    def signature(self) -> str:
        """The fused compilation's layout digest (class map + lanes +
        units) — what durable-scan fingerprints embed.

        When the native backend's compiled kernels are attached the
        digest carries a ``:native<version>`` suffix, folding
        :data:`~repro.core.registry.NATIVE_FORMAT_VERSION` into every
        fingerprint built from it — a checkpoint records the execution
        tier that wrote it.  A silent fallback (no compiler, build
        failure) leaves the plain fused digest, so fingerprints are
        unchanged whenever native does not actually run.
        """
        sig = self.fused.signature
        if self.fused.native_active or (
            self.scanner is not None and self.scanner.native_active
        ):
            sig = f"{sig}:native{NATIVE_FORMAT_VERSION}"
        return sig

    def run_activity(
        self,
        units: dict[CompiledMode, list[RegexActivity]],
        bins: list[BinActivity],
        input_symbols: int,
    ) -> RunActivity:
        """Unit results as the run's activity, in collection order.

        ``units[mode][i]`` is the activity of unit ``i`` of that mode's
        unit list; every regex sharing the unit gets its own copy
        rebound to its id (fresh lists, so regexes never alias each
        other's matches).  ``bins`` is in plan (mapping) order.
        """
        bin_of = dict(zip(self.bin_keys, bins))

        def regex_of(compiled: CompiledRegex) -> RegexActivity:
            found = units[compiled.mode][self.unit_index[compiled.regex_id]]
            return replace(
                found,
                regex_id=compiled.regex_id,
                matches=list(found.matches),
                bv_cycle_indices=list(found.bv_cycle_indices),
            )

        return RunActivity.in_collection_order(
            self.ruleset,
            self.mapping,
            regex_of,
            lambda index, bin_index: bin_of[(index, bin_index)],
            input_symbols,
        )


class FusedRun:
    """Fused activity collection for a mapped ruleset, through the
    ruleset's bound plan (:func:`~repro.simulators.rap.bind`)."""

    def __init__(
        self, ruleset: CompiledRuleset, mapping: Mapping, hw: HardwareConfig
    ):
        self._ruleset = ruleset
        self._mapping = mapping
        self._hw = hw

    def collect(self, data: bytes, backend: str | None = None) -> RunActivity:
        """The run's :class:`RunActivity`, bit-identical to the unfused
        :meth:`~repro.simulators.rap.RAPSimulator.collect_activities`
        (``backend``: the resolved one, when the caller holds it)."""
        bound = bind(self._ruleset, self._hw, mapping=self._mapping, backend=backend)
        plan = bound.plan
        fused = plan.fused
        tin = fused.translate(data)

        # Every NFA- and DFA-mode unit from the stream start: one call.
        split = fused.gather_count
        spans = fused.scan_units_span(
            [(number, None) for number in range(split + fused.dfa_count)], tin
        )

        def scanned(members, spans) -> list[RegexActivity]:
            return [
                unit_activity(
                    compiled, [i for i, _ in events], stats.active_states, stats.cycles
                )
                for compiled, (events, stats, _) in zip(members, spans)
            ]

        units = {
            CompiledMode.NFA: scanned(plan.nfa_units, spans[:split]),
            CompiledMode.DFA: scanned(plan.dfa_units, spans[split:]),
            CompiledMode.NBVA: [
                nbva_activity(
                    compiled, *fused.scan_nbva_unit_span(index, tin)[:2]
                )
                for index, compiled in enumerate(plan.nbva_units)
            ],
        }
        collectors = [
            BinActivityCollector(bin_obj, self._hw, layout)
            for bin_obj, layout in zip(plan.bins, plan.layouts)
        ]
        if collectors:
            FusedBinFeeder(collectors, plan.scanner).feed(
                data, at_end=True, tin=tin
            )
        return plan.run_activity(
            units, [c.activity() for c in collectors], len(data)
        )
