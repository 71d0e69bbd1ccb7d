"""Ruleset-wide fused execution of the functional collectors.

The simulator-layer half of the ``fused`` / ``native`` backends
(:mod:`repro.core.fused` is the machine).  Everything above the
``python`` oracle executes one :class:`FusedPlan`, derived once per
binding (:func:`~repro.simulators.rap.bind`): LNFA bins in mapping
order, one list of GATHER units and one of NBVA units, each deduped by
functional fingerprint, one :class:`~repro.core.fused.FusedRuleset` and
one :class:`FusedLaneScanner`.  Whatever the binding's library holds
steps in one crossing of it per span (:meth:`NativeScanner.span
<repro.core.native.NativeScanner.span>`).

* :class:`FusedLaneScanner` steps a stream's lane machine
  (:class:`LaneStream`) in place — the generated C the closed bins, the
  table walker the rest — and turns one span into per-bin deltas
  (:class:`LaneDelta`) for a bulk scan or a split chunk.
* :class:`FusedBinFeeder` and :class:`FusedRegexFeeder` step a durable
  scan's collectors one segment at a time, in one crossing of the
  binding's library.  The bins' lanes stay resident between segments
  and are written back on demand; the regexes' entry states are read
  from their collectors and written back.  Either way snapshots are
  byte-identical to the ``python`` backend's.
* :class:`FusedRun` is a bulk scan's
  :meth:`~repro.simulators.rap.RAPSimulator.collect_activities`: one
  crossing over the whole input, activities built from its buffers.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Collection
from dataclasses import astuple, dataclass

from repro.automata.nbva import NBVAState
from repro.automata.nfa import NFASimulator
from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.core import codegen
from repro.core.fused import FusedRuleset, TranslatedSegment, aligned
from repro.core.state import KernelState
from repro.core.table import StepTable
from repro.core.trace import regex_fingerprint
from repro.hardware.config import HardwareConfig, TileMode
from repro.mapping.mapper import Mapping
from repro.simulators.activity import (
    BinActivity,
    BinActivityCollector,
    RegexActivity,
    RegexActivityCollector,
    _bin_layout,
    _BinLayout,
    # Unused here, kept importable: the benchmark ledger wraps this name
    # on this module (span ``automata.nbva_scan``); it goes when the
    # ledger reads spans instead of wrapping names (ROADMAP item 2(a)).
    collect_regex_activity,  # noqa: F401
)
from repro.simulators.rap import Binding, RunActivity, bind


@dataclass
class LaneDelta:
    """Per-bin activity deltas of one lane-machine span (a bulk scan's,
    a split chunk's), as plain integers and lists (picklable, mergeable
    in chunk order): owned cycle count, per-bin per-tile wake-ups (tile 0
    already holds the never-gated owned count), per-bin global match
    positions, and the exit state continuing the stream.
    """

    cycles: int
    tile_cycles: list[list[int]]
    tile_bits: list[list[int]]
    matches: list[dict[int, list[int]]]
    exit_states: list[int]
    exit_packed: int


class LaneStream:
    """One stream's lane machine between its spans, stepped in place: per
    tile of every bin (in bin order) its cycle and bit counters — tile 0's
    cycles aside: never gated, it wakes once per owned byte — and the
    packed ``word`` the walker steps, or (``word`` ``None``) one state id
    per group in ``state``, which the kernel steps (``args``: the three
    buffers' addresses).  ``fresh`` until the stream's first byte.  The
    two ``int64`` counter arrays are halves of one 64-byte-aligned block,
    ``counts`` (its bytes: ``raw``), so a reset and a read are one
    memoryview operation each."""

    def __init__(self, tiles: int, word: int = 0, fresh: bool = True):
        self.word, self.fresh = word, fresh
        self.raw = aligned(16 * tiles)
        self.counts = self.raw.cast("q")
        self.tile_cycles, self.tile_bits = self.counts[:tiles], self.counts[tiles:]
        self.state = self.args = None


class FusedLaneScanner:
    """Step streams of the lane-packed machine (:meth:`step`), or turn
    one span into per-bin deltas (:meth:`scan`).

    Built from the bins' packed-machine layouts (in bin order); the
    fused compilation — which owns every bin's table — is shared with
    the caller's when supplied, so the alphabet classes match the rest
    of the run.  A stream's state is its own :class:`LaneStream`, so one
    scanner serves every scan of its plan, on any thread; it never leaves
    its process (a worker is seeded with the ruleset and binds its own).
    """

    def __init__(
        self, layouts: list[_BinLayout], fused: FusedRuleset | None = None
    ):
        self._layouts = list(layouts)
        if fused is None:
            fused = FusedRuleset(
                [layout.packed.program for layout in self._layouts],
                tile_masks=[layout.tile_masks for layout in self._layouts],
            )
        self._fused = fused
        # each bin's run of the flattened per-tile counters
        self._tile_spans: list[tuple[int, int]] = []
        start = 0
        for layout in self._layouts:
            self._tile_spans.append((start, start + len(layout.tile_masks)))
            start += len(layout.tile_masks)
        self._tiles = start
        self._zeros = bytes(16 * start)  # a stream's counters, reset

        # Global final-bit → (bin, regex_id), for match decomposition.
        finals: dict[int, tuple[int, int]] = {}
        for j, layout in enumerate(self._layouts):
            base = fused.bases[j]
            for bit, rid in layout.finals.items():
                finals[base + bit] = (j, rid)
        self._finals = finals
        self._mid_final = fused.final & ~fused.end_anchored

        # The warm-up window: the lanes forget any state after it.
        self.warm = fused.warm
        self._once = threading.local()  # per thread: the stream of one-shot spans

    def _native_scanner(self):
        """The binding's compiled kernels when they hold the lanes (the
        fused ruleset builds them on first use), else None: the table
        walker steps the bins."""
        native = self._fused._native_scanner() if self._layouts else None
        return native if native is not None and native.dfas else None

    @property
    def lane_tier(self) -> str:
        """What steps the lane machine: ``dfa (S states / G groups of B
        bins)`` — the compiled kernel — or ``interpreted (<why>)``, the
        table walker (builds lazily)."""
        native = self._native_scanner()
        if native is not None:
            return native.tier
        native = self._fused._native_scanner()
        why = native.lanes_why if native is not None else self._fused.native_why
        return f"interpreted ({why})"

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

    def stream(self, entry: int = 0, fresh: bool = True) -> LaneStream:
        """A stream's lanes entering at the packed word ``entry`` (ignored
        when ``fresh``); the kernel takes them over at their first span
        (the library is built then, not here)."""
        return LaneStream(self._tiles, entry, fresh)

    def once(self, entry: int = 0, fresh: bool = True) -> LaneStream:
        """:meth:`stream` for one span (a bulk scan, a split chunk): this
        thread's, reset — its buffers and the kernel's pointers to them
        outlive the span, so no span allocates them."""
        lanes = getattr(self._once, "lanes", None)
        if lanes is None:
            lanes = self._once.lanes = self.stream()
        lanes.raw[:] = self._zeros
        lanes.word, lanes.fresh = entry, fresh
        return lanes

    def word(self, lanes: LaneStream) -> int:
        """The packed word ``lanes`` is at."""
        held = lanes.word is None
        return self._native_scanner()._leave(lanes) if held else lanes.word

    def step(self, lanes, segment: bytes, *, at_end: bool, stats_from=0, tin=None):
        """Step ``lanes`` over one span in place; its hits, ``(span-local
        position, packed word)`` wherever a bin holds a final.
        ``stats_from`` is the first owned byte's index (the warm-up prefix
        drives the word, counts nothing), ``at_end`` marks the stream's
        end.  A word outside the kernel's closure is walked until the
        lanes forget it, then handed over for good."""
        n, native = len(segment), self._native_scanner()
        span = dict(at_end=at_end, stats_from=stats_from)
        scanned = native.scan(segment, lanes=lanes, **span) if n and native else None
        if scanned is not None:
            return scanned
        if native and n > self.warm:
            cut, own = self.warm, min(self.warm, stats_from)
            head = self.step(lanes, segment[:cut], at_end=False, stats_from=own)
            rest = self.step(
                lanes, segment[cut:], at_end=at_end, stats_from=stats_from - own
            )
            return head + [(cut + position, word) for position, word in rest]
        if not n:
            return []
        # The portable mirror of the kernel: bins never interact, so each
        # one's table is walked over the span in turn.
        fused = self._fused
        cls = (tin or fused.translate(segment)).cls_bytes
        exits: list[int] = []
        hits: dict[int, int] = {}
        for j, (dfa, (a, b)) in enumerate(zip(self.lane_dfas(), self._tile_spans)):
            cycles, bits, found, word = dfa.walk(
                cls,
                fused.extract(lanes.word, j),
                fresh=lanes.fresh,
                at_end=at_end,
                stats_from=stats_from,
            )
            tc, tb = lanes.tile_cycles, lanes.tile_bits
            tc[a:b] = array("q", map(int.__add__, tc[a:b], cycles))
            tb[a:b] = array("q", map(int.__add__, tb[a:b], bits))
            exits.append(word)
            for position, state in found:
                hits[position] = hits.get(position, 0) | state << fused.bases[j]
        lanes.word, lanes.fresh = fused.pack(exits), False
        return sorted(hits.items())

    def reports(self, hits, n: int, at_end: bool):
        """``(bin, regex id, span-local position)`` per final a span's
        hits hold, in position order; ``n`` is the span's length
        (end-anchored finals fire on the stream's last byte only)."""
        finals, final, mid_final = self._finals, self._fused.final, self._mid_final
        last = n - 1 if at_end else -1
        for position, word in hits:
            word &= final if position == last else mid_final
            while word:
                low = word & -word
                word ^= low
                yield (*finals[low.bit_length() - 1], position)

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
        lanes: LaneStream | None = None,
        scanned=None,
    ) -> LaneDelta:
        """One span of a stream as its per-bin activity deltas (a bulk
        scan, a split chunk: nothing to fold into).

        ``entry`` is the packed word entering the span (ignored when
        ``fresh``), ``base`` the span's global offset (match positions
        are globalized against it); ``stats_from`` and ``at_end`` are
        :meth:`step`'s.  ``lanes`` and ``scanned`` are a fresh stream and
        its hits when a crossing over every tier already stepped it
        (:meth:`FusedRuleset.scan_span
        <repro.core.fused.FusedRuleset.scan_span>`).
        """
        n = len(segment)
        if scanned is None:
            lanes = self.once(entry, fresh)
            scanned = self.step(
                lanes, segment, at_end=at_end, stats_from=stats_from, tin=tin
            )
        owned = n - max(0, stats_from)
        matches, tile_cycles, tile_bits = self.delta(
            lanes, scanned, n, at_end=at_end, owned=owned, base=base
        )
        packed = self.word(lanes)
        return LaneDelta(
            cycles=owned,
            tile_cycles=tile_cycles,
            tile_bits=tile_bits,
            matches=matches,
            exit_states=[self._fused.extract(packed, j) for j in range(len(matches))],
            exit_packed=packed,
        )

    def delta(self, lanes, hits, n: int, *, at_end: bool, owned: int, base=0):
        """A stepped span's per-bin ``(matches, tile wake-ups, tile bits)``
        from its ``hits`` and ``lanes``' counters: match ends are
        globalized against ``base``; ``owned`` is the span's owned bytes
        (``n`` and ``at_end`` are :meth:`reports`')."""
        matches: list[dict[int, list[int]]] = [{} for _ in self._layouts]
        for j, rid, position in self.reports(hits, n, at_end):
            matches[j].setdefault(rid, []).append(base + position)
        counts = lanes.counts.tolist()
        bits = len(counts) // 2
        # Tile 0 is never power-gated: it accrues a cycle per owned input
        # symbol regardless of liveness (only its *bits* come from live
        # cycles) — the closed form of the per-cycle loop.
        return (
            matches,
            [[owned] + counts[a + 1 : b] for a, b in self._tile_spans],
            [counts[bits + a : bits + b] for a, b in self._tile_spans],
        )

    def merge_deltas(self, deltas: list[LaneDelta]) -> LaneDelta:
        """Fold chunk deltas, in chunk order, into one segment delta.

        Counters add, match lists concatenate (positions are global and
        ascending across chunks), and the exit state is the last
        chunk's — the associative composition the split engine rests
        on.
        """
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
    """Feed many bin collectors through one lane-packed machine, resident.

    ``collectors`` are the ruleset's LNFA bins in a fixed order;
    ``scanner`` is the plan's lane scanner over the same bins (a
    bins-only one is compiled when none is supplied).  :meth:`load` makes
    the collectors one :class:`LaneStream` (``lanes``), each :meth:`feed`
    steps it and appends only reports, :meth:`sync` writes it back: what
    each collector's own ``feed`` would hold.
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
        self.load()

    def load(self, skip=()) -> None:
        """Make the collectors resident: their packed word and counters
        (``skip``: the collectors of shed bins, at an offset of their
        own, whose lanes step on from their frozen state)."""
        offsets = {c.offset for c in self._collectors if c not in skip}
        if len(offsets) > 1:
            raise ValueError(
                "fused feeding requires all bins at one stream offset, "
                f"got {sorted(offsets)}"
            )
        self._offset = self._loaded = offsets.pop() if offsets else 0
        collectors = self._collectors
        self.lanes = lanes = self._scanner.stream(
            self._scanner.fused.pack([c.state.states for c in collectors]),
            fresh=self._offset == 0,
        )
        cycles = [n for c in collectors for n in c.tile_active_cycles]
        bits = [n for c in collectors for n in c.tile_active_bits]
        lanes.tile_cycles[:], lanes.tile_bits[:] = array("q", cycles), array("q", bits)
        self._bases = [(c.cycles, c.tile_active_cycles[0]) for c in collectors]

    def feed(
        self,
        segment: bytes,
        *,
        at_end: bool = True,
        tin: TranslatedSegment | None = None,
        skip=(),
        scanned=None,
    ) -> list[tuple[int, int]]:
        """Consume the next stream segment on every bin at once; returns
        ``(bin, regex id)`` per report appended to a match list.

        ``tin`` is the segment already translated by the scanner's
        fused compilation, when the caller shares one with other units,
        and ``scanned`` the lanes' hits when a crossing over every tier
        stepped :attr:`lanes` already.  ``skip`` holds the collectors of
        shed bins: their lanes keep stepping (bins never interact), but
        their reports are dropped and :meth:`sync` leaves them frozen.
        """
        collectors = self._collectors
        if not segment or len(skip) == len(collectors):
            return []
        if scanned is None:
            scanned = self._scanner.step(self.lanes, segment, at_end=at_end, tin=tin)
        base = self._offset
        self._offset += len(segment)
        grown = []
        for j, rid, position in self._scanner.reports(scanned, len(segment), at_end):
            if collectors[j] not in skip:
                collectors[j].matches[rid].append(base + position)
                grown.append((j, rid))
        return grown

    def sync(self, skip=(), *, states: bool = True) -> None:
        """Write the resident lanes into the collectors not in ``skip``,
        as their own feeds would have left them: cycles and tile
        counters (tile 0 wakes once per owned byte) and, with
        ``states``, their kernel states."""
        owned = self._offset - self._loaded
        if not owned:
            return
        scanner, lanes, offset = self._scanner, self.lanes, self._offset
        word, extract = scanner.word(lanes) if states else 0, scanner.fused.extract
        flat_cycles, flat_bits = lanes.tile_cycles.tolist(), lanes.tile_bits.tolist()
        for j, (collector, (a, b), (cycles, tile0)) in enumerate(
            zip(self._collectors, scanner._tile_spans, self._bases)
        ):
            if collector in skip:
                continue
            collector.cycles = cycles + owned
            collector.tile_active_cycles = [tile0 + owned] + flat_cycles[a + 1 : b]
            collector.tile_active_bits = flat_bits[a:b]
            if states:
                collector.state = KernelState(offset, extract(word, j))


class FusedRegexFeeder:
    """Feed a durable scan's regex collectors through the plan: each
    GATHER and NBVA unit steps once per segment and its result folds
    into the collector of every regex sharing it.  No stream state:
    entry states are read from the collectors and the continuation is
    written back, so snapshots stay byte-identical to the ``python``
    backend's."""

    def __init__(
        self, plan: FusedPlan, collectors: dict[int, RegexActivityCollector]
    ):
        self._fused = plan.fused
        # (stall group, or None for GATHER; unit) -> the collectors of the
        # regexes sharing it: an NBVA unit is a cursor per array it sits in
        group_of = {
            rid: g for g, (_, rids) in enumerate(plan.mapping.nbva_arrays())
            for rid in rids
        }
        self._units: dict[tuple[int | None, int], list] = {}
        for compiled in plan.ruleset:
            rid = compiled.regex_id
            if compiled.mode is not CompiledMode.LNFA:
                key = group_of.get(rid), plan.unit_index[rid]
                self._units.setdefault(key, []).append((rid, collectors[rid]))

    def feed(
        self,
        tin: TranslatedSegment,
        *,
        at_end: bool = True,
        skip: Collection[int] = (),
        lanes: LaneStream | None = None,
    ) -> tuple[list | None, list[int], list[int]]:
        """Consume the next (translated) segment on every regex whose id
        is not in ``skip`` (shed regexes stay frozen where they are);
        returns the lanes' hits, the ids whose match lists grew and per
        stall group the segment's stall count (a group's live regexes').
        ``lanes`` (a :attr:`FusedBinFeeder.lanes` the kernel holds) rides
        the same crossing: its hits come back, for
        :meth:`FusedBinFeeder.feed`."""
        if not tin.data or not self._units:
            return None, [], [0] * len(self._fused.nbva_groups)
        fused = self._fused
        # Regexes sharing a unit have been fed the same bytes, so the
        # live ones agree on one entry state; grouping by it (rather
        # than assuming it) keeps a restored snapshot whose collectors
        # disagree exact: one more cursor of the same unit.
        groups: dict[tuple, list[tuple[int, RegexActivityCollector]]] = {}
        for (stall, unit), members in self._units.items():
            for rid, collector in members:
                if rid not in skip:
                    groups.setdefault((stall, unit, collector.state), []).append(
                        (rid, collector)
                    )
        # KernelState words are NFA active sets, as cursors take them:
        # every GATHER group is one GATHER cursor, every NBVA group one
        # NBVA cursor, all of one span.
        table = [key for key in groups if key[0] is None]
        nbva = [key for key in groups if key[0] is not None]
        scanned, spans, by_nbva, stalls = fused.scan_span(
            tin,
            [
                (unit, entry.states if entry.offset else None)
                for _, unit, entry in table
            ],
            [(unit, entry, stall) for stall, unit, entry in nbva],
            lanes=lanes,
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
        stepped.update(zip(nbva, by_nbva))
        grown = []
        for key, group in groups.items():
            matches, stats, state = stepped[key]
            for rid, collector in group:
                collector.apply_segment(stats=stats, matches=matches, state=state)
                if matches:
                    grown.append(rid)
        return scanned, grown, stalls


class FusedPlan:
    """One mapped ruleset laid out for fused execution, derived once.

    Deterministic from ``(ruleset, mapping, hw)`` alone, so a parent and
    its workers build identical plans from the same pickled seed:

    * ``bins`` / ``bin_keys`` / ``layouts`` — every LNFA bin in mapping
      order, lane-packed by ``scanner`` (``None`` without bins);
    * ``units`` (GATHER: NFA or DFA mode alike) / ``nbva_units`` — one
      representative regex per distinct functional fingerprint, in
      ruleset order; ``unit_index`` maps every non-LNFA regex id to its
      unit's position in its list;
    * ``stall_groups`` — per NBVA array, its mapping index and the NBVA
      units its regexes share, whose BV cycles a scan counts as one
      union (a unit in two arrays counts in both);
    * ``fused`` — the one :class:`~repro.core.fused.FusedRuleset`
      holding the bins' shift programs, the GATHER units' programs and
      the NBVA units' automata, so all of them share one class map and
      one translated input, its generated C attached on ``backend``
      (default: the one in force).
    """

    def __init__(
        self,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        hw: HardwareConfig,
        *,
        backend: str | None = None,
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

        self.units: list[CompiledRegex] = []
        self.nbva_units: list[CompiledRegex] = []
        self.unit_index: dict[int, int] = {}
        seen: dict[object, int] = {}
        for compiled in ruleset:
            if compiled.mode is CompiledMode.LNFA:
                continue
            nbva = compiled.mode is CompiledMode.NBVA
            units = self.nbva_units if nbva else self.units
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

        self.stall_groups = [
            (index, tuple(sorted({self.unit_index[rid] for rid in rids})))
            for index, rids in mapping.nbva_arrays()
        ]
        self.fused = FusedRuleset(
            [layout.packed.program for layout in self.layouts],
            [program(compiled) for compiled in self.units],
            [
                (c.automaton, c.anchored_start, c.anchored_end)
                for c in self.nbva_units
            ],
            tile_masks=[layout.tile_masks for layout in self.layouts],
            nbva_groups=[units for _, units in self.stall_groups],
            backend=backend,
        )
        self.scanner = (
            FusedLaneScanner(self.layouts, self.fused) if self.layouts else None
        )
        # Every unit's cursor at the stream start, as a bulk scan takes them
        # (an NBVA unit's in each of its stall groups).
        self.fresh_units = [(number, None) for number in range(len(self.units))]
        self.fresh_nbva = [
            (j, NBVAState(), g)
            for g, (_, units) in enumerate(self.stall_groups)
            for j in units
        ]
        self._compiled = None
        # run_activity's records, laid out once: per non-LNFA regex in
        # ruleset order its id, its unit's mode, its cursor (the
        # GATHER units', then fresh_nbva's: an NBVA unit's first), NBVA?,
        # and whether it is its cursor's first regex, which takes the
        # cursor's match list (the rest copy it); per bin its regex ids.
        first_cursor: dict[int, int] = {}
        for c, (j, _, _) in enumerate(self.fresh_nbva):
            first_cursor.setdefault(j, len(self.units) + c)
        self._records: list[tuple] = []
        taken: set[int] = set()
        for c in ruleset:
            if c.mode is CompiledMode.LNFA:
                continue
            nbva, unit = c.mode is CompiledMode.NBVA, self.unit_index[c.regex_id]
            cursor = first_cursor[unit] if nbva else unit
            mode = (self.nbva_units if nbva else self.units)[unit].mode
            self._records.append((c.regex_id, mode, cursor, nbva, cursor not in taken))
            taken.add(cursor)
        self._cursors = len(self.units) + len(self.fresh_nbva)
        self._nbva_key = tuple((j, g) for j, _, g in self.fresh_nbva)
        self._bin_rids = [tuple(item.regex_id for item in b.items) for b in self.bins]
        # per LNFA array (mapping order) the run of ``bin_keys`` it owns
        self._bin_runs: list[tuple[int, int, int]] = []
        start = 0
        for index, array in enumerate(mapping.arrays):
            if array.mode is TileMode.LNFA:
                self._bin_runs.append((index, start, start + len(array.bins)))
                start += len(array.bins)

    def compiled(self):
        """``(library, the fresh GATHER cursors' forest state ids)`` when
        the binding's library steps every unit of a bulk scan in one
        crossing — every GATHER unit in the forest, no more than a span
        takes, every NBVA unit — else ``None`` (decided once, when the
        library attaches)."""
        native = self.fused._native_scanner()
        if self._compiled is None and native is not None:
            units, count = self.fused._units, self.fused.nbva_count
            whole = all(map(native.has_nbva, range(count)))
            whole = whole and all(type(base) is int for base in native.bases)
            whole = whole and len(units) <= codegen.UNIT_SPAN_CURSORS
            self._compiled = whole and (
                native,
                array(
                    "I",
                    [
                        base + unit.table.closed_id(None)
                        for base, unit in zip(native.bases, units)
                    ],
                ),
            )
        return self._compiled or None

    def collect(self, data: bytes) -> RunActivity:
        """A bulk scan's :class:`RunActivity`: every cursor and the lanes
        from the stream start, in one crossing — straight into the
        binding's library when it steps every unit."""
        lanes = self.scanner.once() if self.scanner is not None else None
        compiled = self.compiled()
        tin = None
        if compiled is not None:
            native, ids = compiled
            found = [[] for _ in range(self._cursors)]
            hits, active, counters, stalls = native.bulk(
                data, lanes, ids, self._nbva_key, found
            )
        else:
            tin = self.fused.translate(data)
            hits, spans, outs, stalls = self.fused.scan_span(
                tin, self.fresh_units, self.fresh_nbva, lanes=lanes
            )
            found = [[i for i, _ in events] for events, _, _ in spans]
            found += [list(matches) for matches, _, _ in outs]
            active = [stats.active_states for _, stats, _ in spans]
            counters = [astuple(stats) for _, stats, _ in outs]
        n = len(data)
        bins = []
        if lanes is not None:
            if hits is None:  # the lanes are walked
                hits = self.scanner.step(lanes, data, at_end=True, tin=tin)
            delta = self.scanner.delta(lanes, hits, n, at_end=True, owned=n)
            bins = self.bin_activities(n, *delta)
        return self.run_activity(found, active, counters, bins, n, stalls)

    def bin_activities(self, cycles: int, matches, tile_cycles, tile_bits) -> list:
        """Per bin (plan order) its :class:`BinActivity` from a lane span's
        delta (:meth:`FusedLaneScanner.delta`), every regex of the bin
        keyed in its match map."""
        activities = []
        for bin_obj, rids, found, wakes, bits in zip(
            self.bins, self._bin_rids, matches, tile_cycles, tile_bits
        ):
            ends = {rid: [] for rid in rids}
            ends.update(found)
            activities.append(BinActivity(bin_obj, cycles, ends, wakes, bits))
        return activities

    def run_activity(
        self,
        found: list[list[int]],
        active: list[int],
        counters: list,
        bins: list[BinActivity],
        input_symbols: int,
        stalls: list[int],
    ) -> RunActivity:
        """Every cursor's results over the stream as the run's activity,
        in collection order.

        ``found`` holds per cursor — the GATHER units', then
        ``fresh_nbva``'s — its match ends, ``active`` per GATHER unit its
        active-state sum, ``counters`` per NBVA cursor its
        :class:`NBVAStats` fields in order.  A cursor's first regex takes
        its list, every other regex sharing it a copy (regexes never
        alias each other's matches).  ``bins`` is in plan (mapping)
        order, ``stalls`` in ``stall_groups`` order.
        """
        n, gathered, regex = input_symbols, len(self.units), {}
        for rid, mode, cursor, nbva, first in self._records:
            ends = found[cursor] if first else list(found[cursor])
            if nbva:
                c = counters[cursor - gathered]
                regex[rid] = RegexActivity(
                    rid, mode, c[0], ends, c[1], c[4], c[5], c[6], c[7], c[8]
                )
            else:
                regex[rid] = RegexActivity(rid, mode, n, ends, active[cursor])
        return RunActivity(
            regex=regex,
            lnfa_bins={
                index: bins[start:stop] for index, start, stop in self._bin_runs
            },
            input_symbols=n,
            stalls={index: k for (index, _), k in zip(self.stall_groups, stalls)},
        )


class FusedRun:
    """Fused activity collection for a mapped ruleset, through the
    ruleset's bound plan (:func:`~repro.simulators.rap.bind`; ``binding``:
    the one the caller already holds)."""

    def __init__(
        self,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        hw: HardwareConfig,
        *,
        binding: Binding | None = None,
    ):
        self._ruleset = ruleset
        self._mapping = mapping
        self._hw = hw
        self._binding = binding

    def collect(self, data: bytes, backend: str | None = None) -> RunActivity:
        """The run's :class:`RunActivity`, bit-identical to the unfused
        :meth:`~repro.simulators.rap.RAPSimulator.collect_activities`
        (``backend``: the resolved one, when the caller holds it)."""
        bound = self._binding or bind(
            self._ruleset, self._hw, mapping=self._mapping, backend=backend
        )
        return bound.plan.collect(data)
