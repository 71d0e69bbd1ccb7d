"""Fused ruleset-wide scanning (``RAP_BACKEND=fused``).

The stdlib kernel steps each compiled unit through its own scan loop
with a private 256-entry byte LUT, so on multi-pattern rule sets the
per-unit Python overhead — not the automata math — dominates wall
clock.  Data-parallel regex engines (SFA-style lockstep execution, the
BVAP compressed match tables) recover the lost throughput with three
ruleset-level tricks, and this module implements all three:

1. **Alphabet equivalence classes** (:class:`AlphabetClasses`): two
   bytes that every unit's label table treats identically are the same
   symbol.  The shared 256→k class map is computed once per ruleset and
   the input is translated once (one vectorized gather) instead of
   being re-examined per pattern.

2. **Lane packing** (:class:`FusedRuleset`): the state words of every
   Shift-And/LNFA unit travel concatenated into one wide word at fixed
   bit bases — the form snapshots and entry/exit states are in.  A
   unit's slice of the word never interacts with its neighbours', and
   plain-NFA (GATHER) units keep their own state words.

3. **One step table per machine** (:class:`~repro.core.table.StepTable`):
   every shift unit and every GATHER unit — NFA-mode and DFA-mode alike
   — is one lazily determinised table, built once per ruleset: one row
   lookup per symbol, activity priced from a histogram of state visits,
   asleep in the empty state until a class that can revive it.  Units
   are closed when the ruleset is built, bins when their C is generated
   (:mod:`repro.core.codegen` dumps closed rows); whatever the C cannot
   take — no compiler, a closure past its cap, an entry word outside a
   closure — is walked by :meth:`StepTable.walk
   <repro.core.table.StepTable.walk>`, the one portable stepper.

Exactness is the contract: a table state *is* the state word a
standalone scan of its unit would hold, and every counter is priced
from per-state or per-class popcounts that equal the per-byte sums by
construction.  The differential suite asserts bit-identity against the
``python`` oracle.

Import this module only after the backend registry has resolved
``fused`` or ``native`` — it requires NumPy.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from repro.automata.glushkov import Automaton
from repro.automata.nbva import NBVAScanner, NBVASimulator, NBVAState, NBVAStats
from repro.core import codegen
from repro.core.kernel import MatchEvent, StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.registry import resolve_backend
from repro.core.table import StepTable
from repro.regex.charclass import interned_label_masks

log = logging.getLogger(__name__)


def words_from_int(value: int, lanes: int) -> np.ndarray:
    """A non-negative int as ``lanes`` little-endian ``uint64`` words."""
    return np.frombuffer(value.to_bytes(lanes * 8, "little"), dtype=np.uint64)


def int_from_words(words: np.ndarray) -> int:
    """Inverse of :func:`words_from_int`."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


class AlphabetClasses:
    """Shared byte equivalence classes over a set of label tables.

    Two byte values are equivalent iff *every* table maps them to the
    same mask — then no unit in the ruleset can distinguish them, and
    the scan may run over class indices instead of raw bytes.  ``k``
    is the class count (≤ 256), ``class_of`` the 256-entry map
    (``table``: the same, as ``bytes.translate`` takes it), and
    ``representatives`` one canonical byte per class (the smallest).
    """

    __slots__ = ("class_of", "representatives", "k", "table")

    def __init__(self, label_tables: Iterable[Sequence[int]]):
        tables = [tuple(table) for table in label_tables]
        signatures: dict[tuple[int, ...], int] = {}
        class_of = []
        representatives: list[int] = []
        for byte in range(256):
            sig = tuple(table[byte] for table in tables)
            cls = signatures.get(sig)
            if cls is None:
                cls = len(representatives)
                signatures[sig] = cls
                representatives.append(byte)
            class_of.append(cls)
        self.class_of: tuple[int, ...] = tuple(class_of)
        self.representatives: tuple[int, ...] = tuple(representatives)
        self.k: int = len(representatives)
        # k ≤ 256, so class indices always fit a byte.
        self.table = bytes(class_of)

    def project(self, table: Sequence[int]) -> tuple[int, ...]:
        """A 256-entry table as its k-entry per-class form."""
        return tuple(table[rep] for rep in self.representatives)


class TranslatedSegment:
    """One input segment as every unit of the fused ruleset shares it.

    The generated C maps bytes to classes itself, so ``data`` is all a
    compiled scan reads; ``cls_bytes`` — the class stream the walker
    indexes, a ``bytes`` object — is built when first asked for.
    """

    __slots__ = ("data", "_classes", "_cls")

    def __init__(self, data: bytes, classes: AlphabetClasses):
        self.data = data
        self._classes = classes
        self._cls: bytes | None = None

    @property
    def cls_bytes(self) -> bytes:
        if self._cls is None:
            self._cls = self.data.translate(self._classes.table)
        return self._cls

    def counts_from(self, start: int) -> np.ndarray:
        """Per-class symbol counts over ``[start, len)`` (int64): a byte
        histogram folded through the class map.

        ``start`` is the owned-region boundary of a chunked scan: the
        warm-up prefix drives state but is excluded from pricing.
        """
        owned = np.frombuffer(self.data, dtype=np.uint8)[max(0, start) :]
        counts = np.zeros(self._classes.k, dtype=np.int64)
        classes = np.frombuffer(self._classes.table, dtype=np.uint8)
        np.add.at(counts, classes, np.bincount(owned, minlength=256))
        return counts


class _GatherUnit:
    """One GATHER unit — NFA-mode or DFA-mode alike — over the shared
    classes: its per-class ``labels`` and their popcounts, and ``table``,
    its :class:`~repro.core.table.StepTable` (one all-ones payload mask:
    a state's ``bits[0]`` is its live-position count), closed when the
    unit is built.  A closure past :data:`codegen.UNIT_DFA_MAX_STATES
    <repro.core.codegen.UNIT_DFA_MAX_STATES>` stays unclosed: such a
    unit is walked, its table filled — and restarted at that cap — as
    the stream demands (``tier`` says so).
    """

    __slots__ = ("program", "labels", "pops", "table", "tier")

    def __init__(self, program: KernelProgram, classes: AlphabetClasses):
        self.program = program
        self.labels = classes.project(program.labels)
        self.pops = np.fromiter(
            (m.bit_count() for m in self.labels),
            dtype=np.int64,
            count=classes.k,
        )
        cap = codegen.UNIT_DFA_MAX_STATES
        self.table = StepTable(program, self.labels, masks=(-1,), cap=cap)
        if self.table.close():
            self.tier = f"table ({self.table.closed} states)"
        else:
            self.tier = f"interpreted (closure > {cap})"


class _NbvaUnit:
    """One NBVA (bit-vector) unit: its automaton and anchors, plus the
    per-byte — once the shared classes exist, per-class — masks of the
    plain (``labels``) and counted (``cmatch``) positions matching a
    symbol.  The stepping tables live in the generated C; the
    interpreted path builds the ``NBVASimulator`` oracle on first use.
    """

    __slots__ = (
        "automaton", "anchored_start", "anchored_end", "labels", "cmatch", "_sim"
    )

    def __init__(
        self, automaton: Automaton, anchored_start: bool, anchored_end: bool
    ):
        self.automaton = automaton
        self.anchored_start = anchored_start
        self.anchored_end = anchored_end
        self.labels, self.cmatch = (
            interned_label_masks(
                (p.pid, p.cc)
                for p in automaton.positions
                if p.is_counted is counted
            )
            for counted in (False, True)
        )
        self._sim = None

    def scanner(self) -> NBVAScanner:
        """A fresh oracle scanner over this unit (simulator memoized)."""
        if self._sim is None:
            self._sim = NBVASimulator(self.automaton)
        return self._sim.scanner(
            anchored_start=self.anchored_start, anchored_end=self.anchored_end
        )


class FusedRuleset:
    """One ruleset compiled for lockstep execution.

    SHIFT_LEFT programs (packed LNFA bins, standalone Shift-And units)
    and GATHER programs — ``gather_programs`` are the NFA-mode ones,
    ``dfa_programs`` the DFA-mode ones; the split only names them for
    callers — share the class-translated input,
    and each is stepped as its own :class:`~repro.core.table.StepTable`
    consuming one lookup per symbol: a shift program's through
    :meth:`lane_dfa`, a GATHER program's (closed at build time,
    :class:`_GatherUnit`) through :meth:`scan_units_span`.  The shift
    programs' state words travel concatenated into one wide word at
    fixed bit bases (:meth:`pack` / :meth:`extract`) — the form lane
    snapshots and entry/exit states are in.
    ``nbva_units`` are ``(automaton, anchored_start, anchored_end)``
    bit-vector automata: their label tables join the shared classes and
    each is stepped whole-frontier by :meth:`scan_nbva_unit_span` (never
    asleep — their counters are priced on every symbol).
    """

    def __init__(
        self,
        shift_programs: Sequence[KernelProgram] = (),
        gather_programs: Sequence[KernelProgram] = (),
        dfa_programs: Sequence[KernelProgram] = (),
        nbva_units: Sequence[tuple[Automaton, bool, bool]] = (),
    ):
        self._shift = tuple(shift_programs)
        for program in self._shift:
            if program.kind is not ProgramKind.SHIFT_LEFT:
                raise ValueError(
                    "fused lane packing requires SHIFT_LEFT programs, "
                    f"got {program.kind.value}"
                )
        gathers, dfas = tuple(gather_programs), tuple(dfa_programs)
        for program in gathers + dfas:
            if program.kind is not ProgramKind.GATHER:
                raise ValueError(
                    "fused unit tables require GATHER programs, "
                    f"got {program.kind.value}"
                )

        # -- (automaton, anchored_start, anchored_end) NBVA units ---------
        self._nbva = tuple(_NbvaUnit(*unit) for unit in nbva_units)

        self.classes = AlphabetClasses(
            [p.labels for p in self._shift]
            + [p.labels for p in gathers]
            + [p.labels for p in dfas]
            + [table for u in self._nbva for table in (u.labels, u.cmatch)]
        )
        for unit in self._nbva:
            unit.labels = self.classes.project(unit.labels)
            unit.cmatch = self.classes.project(unit.cmatch)

        # -- lane-pack the shift programs' state words into one ----------
        bases = []
        offset = 0
        for program in self._shift:
            bases.append(offset)
            offset += program.width
        self.bases: tuple[int, ...] = tuple(bases)
        self.widths: tuple[int, ...] = tuple(p.width for p in self._shift)
        self.final = self.pack([p.final for p in self._shift])
        self.end_anchored = self.pack([p.end_anchored_finals for p in self._shift])
        # The warm-up window: a packed bit only rides its own member's
        # shift chain (members start at the ``inject_first`` bits), so any
        # state is forgotten after the longest member's length.
        self.warm = 1
        for p in self._shift:
            starts = [b for b in range(p.width) if p.inject_first >> b & 1]
            for first, after in zip(starts, starts[1:] + [p.width]):
                self.warm = max(self.warm, after - first)
        # (bin, tile masks) -> its step table, built when first asked for
        self._lanes: dict[tuple, StepTable] = {}

        # -- the GATHER units, each closed into its step table -----------
        # One numbering serves every span call: the NFA-mode programs,
        # then the DFA-mode ones.
        self._units = tuple(_GatherUnit(p, self.classes) for p in gathers + dfas)
        self._gather = self._units[: len(gathers)]
        self._dfa = self._units[len(gathers) :]
        self._foreign_logged = False

        # The classes that can revive some idle machine (each table
        # sleeps through the rest; the union is what a trace reports as
        # the hot-byte ratio).
        programs = self._shift + gathers + dfas
        self.union_hot_cls = np.fromiter(
            (
                any(p.inject_always & p.labels[rep] for p in programs)
                for rep in self.classes.representatives
            ),
            dtype=bool,
            count=self.classes.k,
        )

        # -- native-codegen attachment (lazy, silent-fallback) ----------
        # Decided at construction time; the compiled library itself is
        # built (or loaded from the .so cache) on first use.
        self._native_requested = resolve_backend() == "native"
        self._native_units = None
        self._native_tried = False

    def _native_scanner(self):
        """The compiled unit kernels, or None (unrequested/unbuildable).

        Any build or load failure falls back to the interpreted scan —
        results are identical by the bit-identity contract, only speed
        changes — so a missing compiler can never fail a run.
        """
        if not self._native_requested:
            return None
        if not self._native_tried:
            self._native_tried = True
            try:
                from repro.core.native import NativeUnitScanner

                self._native_units = NativeUnitScanner(self)
            except Exception as err:
                log.debug("native unit kernels unavailable: %s", err)
                self._native_units = None
        return self._native_units

    @property
    def native_active(self) -> bool:
        """Whether unit spans run compiled kernels (builds lazily)."""
        return self._native_scanner() is not None

    def extract(self, word: int, index: int) -> int:
        """Unit ``index``'s state projected out of the packed word."""
        return (word >> self.bases[index]) & ((1 << self.widths[index]) - 1)

    def pack(self, states: Sequence[int]) -> int:
        """Per-unit state words combined into one packed word."""
        word = 0
        for base, width, state in zip(self.bases, self.widths, states):
            word |= (state & ((1 << width) - 1)) << base
        return word

    def lane_dfa(self, index: int, tile_masks: Sequence[int] = ()) -> StepTable:
        """Shift program ``index`` as its :class:`~repro.core.table.
        StepTable` — the one every stepper of the bin shares, built on
        first request; ``tile_masks`` (the payload) are its tiles' masks
        over the program's own state word."""
        key = (index, tuple(tile_masks))
        table = self._lanes.get(key)
        if table is None:
            cap = codegen.LANE_DFA_MAX_STATES
            table = self.lane_group(index, index + 1, [key[1]], cap)
            table = self._lanes.setdefault(key, table)
        return table

    def lane_group(self, start: int, stop: int, tile_masks, cap: int) -> StepTable:
        """Shift programs ``start`` … ``stop - 1`` as *one* machine over
        the slice of the packed word they share, the members' tile masks
        (``tile_masks[j]``: bin ``start + j``'s) concatenated as payload.
        Never cached: the lane codegen tries joins and keeps a few."""
        members = self._shift[start:stop]
        shifts = [base - self.bases[start] for base in self.bases[start:stop]]

        def joined(values) -> int:
            return sum(value << shift for value, shift in zip(values, shifts))

        program = replace(
            members[0],
            width=sum(self.widths[start:stop]),
            labels=tuple(joined(p.labels[b] for p in members) for b in range(256)),
            **{
                field: joined(getattr(p, field) for p in members)
                for field in ("inject_first", "inject_always", "final",
                              "end_anchored_finals", "clear_after_shift")
            },
        )
        masks = [m << s for tiles, s in zip(tile_masks, shifts) for m in tiles]
        labels = self.classes.project(program.labels)
        return StepTable(program, labels, masks=masks, cap=cap)

    # -- translation ------------------------------------------------------

    def translate(self, data: bytes) -> TranslatedSegment:
        """One segment as the units share it (nothing is copied until a
        walker asks for the class stream)."""
        return TranslatedSegment(data, self.classes)

    # -- the GATHER units -----------------------------------------------

    def scan_units_span(
        self,
        cursors: Sequence[tuple[int, int | None]],
        tin: TranslatedSegment,
        *,
        stats_from: int = 0,
        at_end: bool = True,
    ) -> list[tuple[list[MatchEvent], StepStats, int]]:
        """Scan any number of GATHER-unit *cursors* over one span.

        A cursor is ``(unit, entry)``: ``unit`` numbers the NFA-mode
        programs first, then the DFA-mode ones (DFA unit ``j`` is
        ``gather_count + j``); ``entry`` is the NFA active set entering
        the span, ``None`` at the true stream start (where
        ``inject_first`` applies).  All units of a bulk scan, the
        windowed units of one split chunk, one worker's share of the
        windowless ones, two collectors of one unit at different entry
        words — each is one call.  ``stats_from`` is the first owned
        position (earlier symbols only warm the state up — no events,
        no counters) and ``at_end`` whether the span's last symbol is
        the stream's last (end-anchored finals fire nowhere else).
        Returns, per cursor, the events, the owned-region counters and
        the exit active set — identical to :meth:`PythonKernel.scan_segment
        <repro.core.pykernel.PythonKernel.scan_segment>` of the unit's
        program over the owned symbols, entered at the warmed-up state.

        A cursor whose entry is a closed state of its unit's table steps
        it in the generated C when that is attached — every such cursor
        of a mode in one call.  Everything else — no compiler, a unit
        whose closure passed the cap or the forest has no room for, an
        entry no scan of the machine produces (a hand-edited snapshot)
        — is walked (:meth:`StepTable.walk
        <repro.core.table.StepTable.walk>`): identical results, only
        slower.
        """
        if not cursors or not tin.data:
            return [([], StepStats(), entry or 0) for _, entry in cursors]
        native = self._native_scanner()
        # per cursor: (position, state word) hits, active sum, exit word
        spans: list = [None] * len(cursors)
        compiled: tuple[list, list] = ([], [])  # NFA-mode, DFA-mode cursors
        for slot, (number, entry) in enumerate(cursors):
            table = self._units[number].table
            sid = table.closed_id(entry)
            placed = native is not None and isinstance(native.bases[number], int)
            if placed and sid is not None:
                compiled[number >= len(self._gather)].append((slot, number, sid))
                continue
            if sid is None and table.closed and not self._foreign_logged:
                self._foreign_logged = True
                log.debug(
                    "unit %d entered at %r, outside its %d-state closure: "
                    "such spans are walked", number, entry, table.closed,
                )
            _, bits, hits, word = table.walk(
                tin.cls_bytes,
                entry or 0,
                fresh=entry is None,
                at_end=at_end,
                stats_from=stats_from,
            )
            spans[slot] = hits, bits[0], word
        if native is not None:  # at most one crossing per mode
            for group, span in zip(compiled, (native.gather_span, native.dfa_span)):
                if group:
                    stepped = span(
                        tin.data,
                        [cursor[1:] for cursor in group],
                        at_end=at_end,
                        stats_from=stats_from,
                    )
                    # table state ids stay on this side of the span API
                    for (slot, number, _), (raw, active, sid) in zip(group, stepped):
                        words = self._units[number].table.words
                        spans[slot] = (
                            [(pos, words[s]) for pos, s in raw], active, words[sid]
                        )

        # ``cycles`` and ``matched_states`` are pure functions of the
        # owned input (one per-class dot product); only ``active`` and
        # the events come from the stepping loops.
        counts = tin.counts_from(stats_from)
        cycles = len(tin.data) - max(0, stats_from)
        last = len(tin.data) - 1 if at_end else -1
        out = []
        for (number, _), (hits, active, state) in zip(cursors, spans):
            unit = self._units[number]
            # A hit's event word is the finals its state holds, which can
            # exceed 64 bits; end-anchored ones fire on the last byte only.
            final = unit.program.final
            mid = final & ~unit.program.end_anchored_finals
            events = [
                (pos, word & (final if pos == last else mid)) for pos, word in hits
            ]
            stats = StepStats(
                cycles=cycles,
                active_states=active,
                matched_states=(
                    int(counts @ unit.pops) if unit.program.track_matched else 0
                ),
                reports=len(events),
            )
            out.append((events, stats, state))
        return out

    def scan_unit(
        self, index: int, tin: TranslatedSegment
    ) -> tuple[list[MatchEvent], StepStats]:
        """Scan GATHER unit ``index`` over the shared translated input:
        the whole-stream, single-cursor :meth:`scan_units_span`."""
        events, stats, _ = self.scan_unit_span(index, tin)
        return events, stats

    def scan_unit_span(
        self,
        index: int,
        tin: TranslatedSegment,
        *,
        state: int = 0,
        fresh: bool = True,
        stats_from: int = 0,
        at_end: bool = True,
    ) -> tuple[list[MatchEvent], StepStats, int]:
        """One cursor of :meth:`scan_units_span` on unit ``index``,
        entering at active set ``state`` (ignored when ``fresh``, which
        marks the true stream start)."""
        (span,) = self.scan_units_span(
            [(index, None if fresh else state)],
            tin,
            stats_from=stats_from,
            at_end=at_end,
        )
        return span

    # -- the NBVA (bit-vector) units -------------------------------------

    def scan_nbva_unit_span(
        self,
        index: int,
        tin: TranslatedSegment,
        *,
        state: NBVAState = NBVAState(),
        at_end: bool = True,
    ) -> tuple[list[int], NBVAStats, NBVAState]:
        """Scan NBVA unit ``index`` over the next span of its stream.

        ``state`` is the frontier entering the span; returns the global
        match positions, the span's counters (global
        ``bv_cycle_indices``) and the exit frontier — exactly what
        :meth:`NBVAScanner.feed` yields, stepped by the generated C when
        the unit is narrow enough and by the oracle itself otherwise.
        Vectors carry unbounded history: there is no warm-up form.
        """
        native = self._native_scanner()
        if native is not None and native.has_nbva(index):
            return native.nbva_span(index, tin.data, state=state, at_end=at_end)
        scanner = self._nbva[index].scanner()
        scanner.state = state
        stats = NBVAStats(bv_cycle_indices=[])
        matches = scanner.feed(tin.data, stats, at_end=at_end)
        return matches, stats, scanner.state

    @property
    def gather_count(self) -> int:
        """Number of GATHER units in the fused compilation."""
        return len(self._gather)

    @property
    def dfa_count(self) -> int:
        """Number of DFA-tier units in the fused compilation."""
        return len(self._dfa)

    @property
    def nbva_count(self) -> int:
        """Number of NBVA units in the fused compilation."""
        return len(self._nbva)

    def unit_tier(self, number: int) -> str:
        """What steps GATHER unit ``number`` (numbered as
        :meth:`scan_units_span` does), as ``--explain`` names it:
        ``table (S states)`` or ``interpreted (closure > N)``."""
        return self._units[number].tier
