"""Fused ruleset-wide scanning (``RAP_BACKEND=fused`` and ``native``).

Stepping each compiled unit through its own loop lets per-unit Python
overhead dominate multi-pattern rule sets; three ruleset-level tricks
(SFA-style lockstep execution, BVAP's compressed match tables) win the
throughput back:

1. **Alphabet equivalence classes** (:class:`AlphabetClasses`): bytes
   every unit's label table treats alike are one symbol, one 256→k map
   per ruleset.
2. **Lane packing** (:class:`FusedRuleset`): every Shift-And/LNFA unit's
   state word rides one wide word at a fixed bit base — the form
   snapshots and entry/exit states are in; GATHER units keep their own.
3. **One step table per machine** (:class:`~repro.core.table.StepTable`):
   every shift and GATHER unit is one lazily determinised table — one
   row lookup per symbol, activity priced from a histogram of state
   visits.  The generated C (:mod:`repro.core.codegen`) steps the closed
   ones; whatever it cannot take is walked by :meth:`StepTable.walk
   <repro.core.table.StepTable.walk>`, the one portable stepper.

Exactness is the contract: a table state *is* the state word a
standalone scan of its unit would hold, and every counter equals the
per-byte sums by construction (the conformance matrix checks it against
the ``python`` oracle).  Import this module only after the backend
registry resolved ``fused`` or ``native``: it requires NumPy.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from repro.automata.glushkov import Automaton
from repro.automata.nbva import NBVAScanner, NBVASimulator, NBVAState, NBVAStats
from repro.core import codegen
from repro.core.kernel import StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.registry import resolve_backend_with_reason
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


class _GatherUnit:
    """One GATHER unit — whatever mode compiled it — over the shared
    classes: its per-class ``labels``, its events' finals (``final`` on
    the stream's last byte, ``mid`` elsewhere), and ``table``, its
    :class:`~repro.core.table.StepTable` (one all-ones payload mask: a
    state's ``bits[0]`` is its live-position count), closed when the
    unit is built.  A closure past :data:`codegen.UNIT_DFA_MAX_STATES
    <repro.core.codegen.UNIT_DFA_MAX_STATES>` stays unclosed: such a
    unit is walked, its table filled — and restarted at that cap — as
    the stream demands (``tier`` says so).
    """

    __slots__ = ("program", "labels", "final", "mid", "table", "tier")

    def __init__(self, program: KernelProgram, classes: AlphabetClasses):
        self.program = program
        self.labels = classes.project(program.labels)
        self.final = program.final
        self.mid = program.final & ~program.end_anchored_finals
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

    SHIFT_LEFT programs (LNFA bins, their tiles' ``tile_masks``) and
    GATHER programs (``gather_programs``, of any compiled mode) share one
    class map; each is one
    :class:`~repro.core.table.StepTable` (a bin's through
    :meth:`lane_dfa`, a GATHER unit's closed at build time).  The shift
    programs' words travel packed (:meth:`pack` / :meth:`extract`).
    ``nbva_units`` are ``(automaton, anchored_start, anchored_end)``
    bit-vector automata, stepped whole-frontier; ``nbva_groups`` their
    stall groups (per NBVA array, its units; by default one per unit),
    whose BV cycles are counted as one union.  :meth:`scan_span` steps
    any of them over one span.
    """

    def __init__(
        self,
        shift_programs: Sequence[KernelProgram] = (),
        gather_programs: Sequence[KernelProgram] = (),
        nbva_units: Sequence[tuple[Automaton, bool, bool]] = (),
        tile_masks: Sequence[Sequence[int]] = (),
        nbva_groups: Sequence[Sequence[int]] = (),
        backend: str | None = None,
    ):
        self._shift = tuple(shift_programs)
        # per shift program, its tiles' masks (the lane kernel's payload)
        self.tile_masks = [tuple(masks) for masks in tile_masks] or [
            () for _ in self._shift
        ]
        for program in self._shift:
            if program.kind is not ProgramKind.SHIFT_LEFT:
                raise ValueError(
                    "fused lane packing requires SHIFT_LEFT programs, "
                    f"got {program.kind.value}"
                )
        gathers = tuple(gather_programs)
        for program in gathers:
            if program.kind is not ProgramKind.GATHER:
                raise ValueError(
                    "fused unit tables require GATHER programs, "
                    f"got {program.kind.value}"
                )

        # -- (automaton, anchored_start, anchored_end) NBVA units ---------
        self._nbva = tuple(_NbvaUnit(*unit) for unit in nbva_units)
        self.nbva_groups = tuple(map(tuple, nbva_groups)) or tuple(
            (j,) for j in range(len(self._nbva))
        )

        self.classes = AlphabetClasses(
            [p.labels for p in self._shift]
            + [p.labels for p in gathers]
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
        self._units = tuple(_GatherUnit(p, self.classes) for p in gathers)
        self._foreign_logged = False
        # ``matched_states`` per unit is the owned bytes' histogram dotted
        # with this (unit x byte) matrix of each byte's class's label
        # popcount (zero for a unit that does not track it): exact sums.
        self._byte_pops = np.array(
            [
                [
                    u.labels[c].bit_count() * u.program.track_matched
                    for c in self.classes.class_of
                ]
                for u in self._units
            ],
            dtype=np.int64,
        ).reshape(-1, 256)

        # The classes that can revive some idle machine (each table
        # sleeps through the rest; the union is what a trace reports as
        # the hot-byte ratio).
        programs = self._shift + gathers
        self.union_hot_cls = np.fromiter(
            (
                any(p.inject_always & p.labels[rep] for p in programs)
                for rep in self.classes.representatives
            ),
            dtype=bool,
            count=self.classes.k,
        )

        # -- native-codegen attachment (lazy, silent-fallback) ----------
        # Decided at construction time, on ``backend`` (default: the one
        # in force); the binding's one library is built (or loaded from
        # the .so cache) on first use.
        resolved, why = resolve_backend_with_reason(backend)
        self._native_requested = resolved == "native"
        self.native_why = why or f"{resolved} backend"
        self._native = None
        self._native_tried = False
        self._native_lock = threading.Lock()

    def _native_scanner(self):
        """The binding's compiled kernels (:class:`~repro.core.native.
        NativeScanner`), or None (unrequested/unbuildable).

        Any build or load failure falls back to the interpreted scan —
        results are identical by the bit-identity contract, only speed
        changes — so a missing compiler can never fail a run.  A thread
        arriving during the build waits for it.
        """
        if self._native_requested and not self._native_tried:
            with self._native_lock:
                if not self._native_tried:
                    try:
                        from repro.core.native import NativeScanner

                        self._native = NativeScanner(self)
                    except Exception as err:
                        log.debug("native kernels unavailable: %s", err)
                        self.native_why = str(err)
                    self._native_tried = True
        return self._native

    @property
    def native_active(self) -> bool:
        """Whether the binding's generated C is attached (builds lazily)."""
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
        over the program's own state word.  Two threads racing at a miss
        both build it; ``setdefault`` keeps one for every stepper."""
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

    def scan_span(
        self,
        tin: TranslatedSegment,
        units: Sequence[tuple[int, int | None]] = (),
        nbva: Sequence[tuple[int, NBVAState, int]] = (),
        *,
        lanes=None,
        stats_from: int = 0,
        at_end: bool = True,
    ) -> tuple:
        """One span of any cursors of every tier: ``(lanes, units, nbva,
        stalls)``.  A GATHER cursor is ``(unit, entry)`` — ``unit`` numbered
        as ``gather_programs`` lists it; ``entry`` is the NFA active
        set entering the span, ``None`` at the stream start — and comes
        back as its events, owned-region counters and exit set, exactly
        :meth:`PythonKernel.scan_segment <repro.core.pykernel.PythonKernel.
        scan_segment>` of its program over the owned symbols
        (``stats_from`` is the first owned position; earlier ones only
        warm the state up).  An NBVA cursor is ``(unit, entry frontier,
        stall group)`` and comes back as :meth:`NBVAScanner.feed`'s global
        matches, counters and exit frontier (no warm-up: vectors carry
        unbounded history); ``stalls`` is per stall group the span's
        cycles in which one of its cursors triggers a BV phase.
        ``lanes`` — a stream's lane machine the kernel holds
        (:class:`~repro.simulators.fused.LaneStream`) — is stepped in
        place by the generated C (:meth:`NativeScanner.span
        <repro.core.native.NativeScanner.span>`) and its hits come back;
        ``None`` comes back when the caller must step them itself.
        ``at_end``: the span's last symbol is the stream's (end-anchored
        finals fire only there).

        Every cursor the generated C can take steps there, all of them
        and the lanes in one crossing.  The rest — no compiler, a unit
        past a cap or outside the forest, an entry no scan produces, a
        stall group holding a wide NBVA unit — is walked
        (:meth:`StepTable.walk <repro.core.table.StepTable.walk>`) or
        stepped by the oracle: identical results, only slower.
        """
        native = self._native_scanner()
        placed = native.bases if native is not None else ()
        gathers = self._units
        data = tin.data
        # per cursor: (position, state word) hits, active sum, exit word
        spans: list = [None] * len(units)
        compiled = []  # (slot, unit, closed state) of the forest's cursors
        for slot, (number, entry) in enumerate(units if data else ()):
            table = gathers[number].table
            sid = table.closed_id(entry)
            if sid is not None and placed and type(placed[number]) is int:
                compiled.append((slot, number, sid))
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
        groups = native.native_groups if native is not None else ()
        native_nbva = [k for k, cursor in enumerate(nbva) if cursor[2] in groups]
        lane_out = hist = None
        stepped: list = []
        nbva_out: list = [None] * len(nbva)
        stalls = [0] * len(self.nbva_groups)
        span = dict(at_end=at_end, stats_from=stats_from)
        if native is None or not native.dfas:
            lanes = None  # walked by the caller
        if lanes is not None or compiled or native_nbva:
            lane_out, stepped, by_c, hist, stalls = native.span(
                data,
                lanes=lanes,
                units=[cursor[1:] for cursor in compiled],
                nbva=[nbva[k] for k in native_nbva],
                **span,
            )
            for k, out in zip(native_nbva, by_c):
                nbva_out[k] = out
        # table state ids stay on this side of the span API
        for (slot, number, _), (raw, active, sid) in zip(compiled, stepped):
            words = gathers[number].table.words
            spans[slot] = [(pos, words[s]) for pos, s in raw], active, words[sid]
        cycles: dict[int, set] = {}  # the oracle's groups: positions, unioned
        for k, (index, state, group) in enumerate(nbva):
            if nbva_out[k] is None:
                scanner = self._nbva[index].scanner()
                scanner.state = state
                found: list[int] = []
                stats = NBVAStats()
                matches = scanner.feed(data, stats, at_end=at_end, bv_cycles=found)
                cycles.setdefault(group, set()).update(found)
                nbva_out[k] = matches, stats, scanner.state
        for group, found in cycles.items():
            stalls[group] += len(found)
        units_out = self._unit_results(units, spans, tin, hist, **span)
        return lane_out, units_out, nbva_out, stalls

    def _unit_results(self, cursors, spans, tin, hist, *, stats_from, at_end):
        """Per GATHER cursor its events, ``StepStats`` and exit word."""
        if not cursors or not tin.data:
            return [([], StepStats(), entry or 0) for _, entry in cursors]
        # ``cycles`` and ``matched_states`` are pure functions of the
        # owned input (one byte histogram per span); only ``active`` and
        # the events come from the stepping loops.
        cycles = len(tin.data) - max(0, stats_from)
        if hist is None:
            owned = np.frombuffer(tin.data, dtype=np.uint8)[max(0, stats_from) :]
            hist = np.bincount(owned.astype(np.intp), minlength=256)
        matched = self._byte_pops.dot(hist).tolist()
        last = len(tin.data) - 1 if at_end else -1
        out = []
        for (number, _), (hits, active, state) in zip(cursors, spans):
            unit = self._units[number]
            # A hit's event word is the finals its state holds, which can
            # exceed 64 bits; end-anchored ones fire on the last byte only.
            mid = unit.mid
            events = [(pos, word & mid) for pos, word in hits]
            if events and events[-1][0] == last:
                events[-1] = (last, hits[-1][1] & unit.final)
            stats = StepStats(
                cycles=cycles,
                active_states=active,
                matched_states=matched[number],
                reports=len(events),
            )
            out.append((events, stats, state))
        return out

    @property
    def unit_count(self) -> int:
        """Number of GATHER units in the fused compilation."""
        return len(self._units)

    @property
    def nbva_count(self) -> int:
        """Number of NBVA units in the fused compilation."""
        return len(self._nbva)

    def unit_tier(self, number: int) -> str:
        """What steps GATHER unit ``number`` (numbered as
        :meth:`scan_span` does), as ``--explain`` names it:
        ``table (S states)`` or ``interpreted (closure > N)``."""
        return self._units[number].tier
