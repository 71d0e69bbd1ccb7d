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

2. **Lane packing** (:class:`FusedRuleset`): every Shift-And/LNFA unit
   is concatenated into one wide state word with per-class label rows —
   the form snapshots and entry/exit states travel in.  A unit's slice
   of the word never interacts with its neighbours', so each is stepped
   as its own lazily determinised table (:class:`LaneDfa`, the lane IR):
   one row lookup per symbol, activity priced from a histogram of state
   visits.  The generated C dumps the same table closed
   (:mod:`repro.core.codegen`); :meth:`LaneDfa.walk` is the portable
   stepper.  Plain-NFA (GATHER) units keep their own state words, are
   determinised whole at build time — NFA-mode and DFA-mode alike, the
   unit IR — and step as cursors over one forest of tables, all in one
   call (:meth:`FusedRuleset.scan_units_span`).

3. **Literal prefiltering**: the classes that can revive an empty
   machine are known at compile time, so cold stretches are skipped by
   jumping between precomputed hot positions — found with
   ``bytes.find`` chains when few distinct byte values are hot, or one
   vectorized LUT pass otherwise.  Both prefilters yield identical
   position streams.

Exactness is the contract: the packed machine evolves each unit's state
word bit-identically to a standalone scan (the cross-unit shift leak is
absorbed exactly as the packed multi-pattern layout absorbs its
internal boundaries), and every counter is priced from per-class
popcounts that equal the per-byte sums by construction.  The
differential suite asserts bit-identity against the ``python`` oracle.

Import this module only after the backend registry has resolved
``fused`` or ``native`` — it requires NumPy.
"""

from __future__ import annotations

import hashlib
import logging
import re
import threading
from collections.abc import Iterable, Sequence

import numpy as np

# The DFA tier's subset construction lives with the automata oracles;
# this module is a lazily-loaded backend leaf, so the upward import does
# not create a cycle (repro.automata never imports repro.core.fused).
from repro.automata.dfa import ClassDFA, DFABlowupError, determinize_classes
from repro.automata.glushkov import Automaton
from repro.automata.nbva import (
    NBVA_STATE_VERSION,
    NBVAScanner,
    NBVASimulator,
    NBVAState,
    NBVAStats,
)
from repro.core import codegen
from repro.core.kernel import MatchEvent, StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.registry import (
    DFA_FORMAT_VERSION,
    FUSED_FORMAT_VERSION,
    resolve_backend,
)
from repro.core.sfa import (
    FrontierMap,
    StateMap,
    gather_map_over,
    state_map_over,
)
from repro.regex.charclass import interned_label_masks

# Use a `bytes.find` chain when at most this many distinct byte values
# can revive the machine; beyond that one vectorized LUT pass wins.
_PREFILTER_FIND_MAX = 4

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
    is the class count (≤ 256), ``class_of`` the 256-entry map, and
    ``representatives`` one canonical byte per class (the smallest).
    """

    __slots__ = ("class_of", "representatives", "k", "np_map")

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
        # k ≤ 256 so class indices always fit a byte; uint8 keeps the
        # translated input as compact as the raw one.
        self.np_map = np.array(class_of, dtype=np.uint8)

    def project(self, table: Sequence[int]) -> tuple[int, ...]:
        """A 256-entry table as its k-entry per-class form."""
        return tuple(table[rep] for rep in self.representatives)


class TranslatedSegment:
    """One input segment translated to class indices, shared by every
    unit of the fused ruleset.

    ``cls_bytes`` is the class stream as a ``bytes`` object (fastest
    per-symbol indexing from Python), ``hot_idx`` the ascending
    positions that can revive *any* unit (the union prefilter), and
    ``counts`` the lazy per-class histogram used to price
    ``matched_states`` in one dot product.  ``hot_idx`` may be passed
    as a zero-argument factory, materialized on first use — the native
    backend's compiled kernels do their own cold skipping and never
    touch the Python-side index.
    """

    __slots__ = (
        "data",
        "cls_arr",
        "cls_bytes",
        "k",
        "_hot_factory",
        "_hot_idx",
        "_hot_np",
        "_counts",
    )

    def __init__(self, data: bytes, cls_arr: np.ndarray, k: int, hot_idx):
        self.data = data
        self.cls_arr = cls_arr
        self.cls_bytes = cls_arr.tobytes()
        self.k = k
        if callable(hot_idx):
            self._hot_factory = hot_idx
            self._hot_idx: list[int] | None = None
        else:
            self._hot_factory = None
            self._hot_idx = hot_idx
        self._hot_np: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    @property
    def hot_idx(self) -> list[int]:
        """The union prefilter's hot positions (materialized lazily)."""
        if self._hot_idx is None:
            self._hot_idx = self._hot_factory()
        return self._hot_idx

    @property
    def counts(self) -> np.ndarray:
        """Per-class symbol counts over the whole segment (int64)."""
        if self._counts is None:
            self._counts = np.bincount(
                self.cls_arr, minlength=self.k
            ).astype(np.int64)
        return self._counts

    def counts_from(self, start: int) -> np.ndarray:
        """Per-class symbol counts over ``[start, len)`` (int64).

        ``start`` is the owned-region boundary of a chunked scan: the
        warm-up prefix drives state but is excluded from pricing.
        """
        if start <= 0:
            return self.counts
        return np.bincount(self.cls_arr[start:], minlength=self.k).astype(
            np.int64
        )

    def hot_for(self, hot_cls: np.ndarray) -> list[int]:
        """The union hot positions restricted to one unit's hot classes.

        Every unit's revival classes are a subset of the union the
        prefilter indexed, so filtering (one vectorized gather) is
        position-identical to scanning for that unit's classes directly.
        """
        if self._hot_np is None:
            self._hot_np = np.asarray(self.hot_idx, dtype=np.int64)
        idx = self._hot_np
        if idx.size == 0:
            return []
        return idx[hot_cls[self.cls_arr[idx]]].tolist()


class _GatherUnit:
    """One GATHER unit — NFA-mode or DFA-mode alike — over the shared
    classes: the mask stack (``labels`` / ``cold``), and its subset
    closure as a class-indexed table (``dfa``), the unit IR both steppers
    read.  State ``s`` of the table stands for exactly the NFA active
    set ``dfa.subsets[s]``, so every event and counter an NFA scan
    reports is recovered from that memory (:mod:`repro.automata.dfa`),
    anchors included.  A closure past :data:`codegen.UNIT_DFA_MAX_STATES
    <repro.core.codegen.UNIT_DFA_MAX_STATES>` leaves ``dfa`` ``None``:
    such a unit is stepped as the mask stack it is (``tier`` says so).
    """

    __slots__ = ("program", "labels", "cold", "hot_cls", "pops", "dfa", "tier")

    def __init__(self, program: KernelProgram, classes: AlphabetClasses):
        self.program = program
        self.labels = classes.project(program.labels)
        self.cold = tuple(program.inject_always & m for m in self.labels)
        self.hot_cls = np.fromiter(
            (m != 0 for m in self.cold), dtype=bool, count=classes.k
        )
        self.pops = np.fromiter(
            (m.bit_count() for m in self.labels),
            dtype=np.int64,
            count=classes.k,
        )
        cap = codegen.UNIT_DFA_MAX_STATES
        try:
            self.dfa: ClassDFA | None = determinize_classes(
                self.labels,
                program.succ,
                program.inject_always,
                program.final,
                first=program.inject_first,
                end_anchored=program.end_anchored_finals,
                max_states=cap,
            )
            self.tier = f"table ({self.dfa.state_count} states)"
        except DFABlowupError:
            self.dfa = None
            self.tier = f"interpreted (closure > {cap})"

    def enter(self, entry: int | None) -> int | None:
        """The table state a span enters at: the stream start for
        ``None``, else the state standing for active set ``entry`` —
        ``None`` without a table, or when no scan reaches that set."""
        dfa = self.dfa
        if dfa is None:
            return None
        if entry is None:
            return dfa.start
        try:
            return dfa.state_of(entry)
        except ValueError:
            return None


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


class LaneDfa:
    """One bin's slice of the packed machine, determinised on demand —
    the lane IR both steppers read.

    A bin's word evolves independently of its neighbours as ``s' = ((s
    << 1) & keep | inject) & labels[c]``, and the words it can reach are
    an Aho–Corasick-sized set.  State words are interned to ids in
    discovery order from the empty word (id 0); a state's ``next[class]``
    row is filled the first time it is asked for (:meth:`row`); each
    state knows its per-tile live bit counts (``bits``) and hit flags
    (``flags``: 1 = holds a final that fires anywhere, 2 = one that
    fires only on the stream's last byte).  An anchored bin
    (``inject_first != inject_always``) has a ``start`` row, the
    stream-start pseudo-state's successors.

    :meth:`close` runs the same rule breadth-first to fixpoint: the
    generated C dumps a closed table, and its ids stay valid because
    states met afterwards only ever append.  :meth:`walk` is the
    portable stepper; it needs no closure.  The interned table is a
    process-local cache, never pickled; walkers take turns on it.
    """

    def __init__(self, fused: FusedRuleset, index: int, tile_masks: Sequence[int]):
        self._keep, self._inject, first, final, ends = (
            fused.extract(word, index)
            for word in (
                fused.keep,
                fused.inject_always,
                fused.inject_first,
                fused.final,
                fused.end_anchored,
            )
        )
        self._first = first if first != self._inject else None
        self._mid_final, self._end_final = final & ~ends, final & ends
        self.tile_masks = tuple(tile_masks)
        labels = [fused.extract(m, index) for m in fused._labels_cls]
        # Most classes exist for some *other* unit's sake: step each state
        # once per distinct label of this bin, then spread over the classes.
        self._distinct = list(dict.fromkeys(labels))
        self._column = [self._distinct.index(m) for m in labels]
        # The classes that revive the empty word: state 0 sleeps until one.
        hot = bytes(c for c, m in enumerate(labels) if self._inject & m)
        self._wake = re.compile(b"[" + re.escape(hot) + b"]" if hot else b"(?!)")
        self.words: list[int] = []
        self.ids: dict[int, int] = {}
        self.rows: list[list[int] | None] = []
        self.bits: list[tuple[int, ...]] = []
        self.flags: list[int] = []
        self.closed = 0  # states a close() fixed: the ids the C tables hold
        self._walking = threading.Lock()
        self.restart()

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, sid: int) -> int:
        """State ``sid``'s word."""
        return self.words[sid]

    def intern(self, word: int) -> int:
        """The id of state ``word`` (a new last id if never met)."""
        sid = self.ids.get(word)
        if sid is None:
            sid = self.ids[word] = len(self.words)
            self.words.append(word)
            self.rows.append(None)
            self.bits.append(tuple((word & m).bit_count() for m in self.tile_masks))
            self.flags.append(
                bool(word & self._mid_final) | bool(word & self._end_final) << 1
            )
        return sid

    def _successors(self, avail: int) -> list[int]:
        known = self.ids.get  # most successors are states already met
        row = [known(avail & m) or self.intern(avail & m) for m in self._distinct]
        return [row[col] for col in self._column]

    def row(self, sid: int) -> list[int]:
        """State ``sid``'s successor id per class."""
        row = self.rows[sid]
        if row is None:
            row = self.rows[sid] = self._successors(
                (self.words[sid] << 1) & self._keep | self._inject
            )
        return row

    def restart(self) -> None:
        """Forget every state interned since :meth:`close` (without one:
        all but the empty word).  Ids held across a restart are void."""
        for word in self.words[self.closed :]:
            del self.ids[word]
        for column in (self.words, self.rows, self.bits, self.flags):
            del column[self.closed :]
        if not self.closed:
            self.intern(0)
            self.start = (
                None if self._first is None else self._successors(self._first)
            )

    def close(self, cap: int) -> bool:
        """Fill every row of a fresh table, breadth-first with classes in
        index order — so ids, and the source emitted from them, are the
        same in every process.  False, nothing fixed, past ``cap``."""
        sid = 0
        while sid < len(self.words):
            if len(self.words) > cap:
                return False
            self.row(sid)
            sid += 1
        self.closed = sid
        return True

    def _fold(self, visits: list[int], cycles: list[int], bits: list[int]) -> None:
        """Tile statistics are a property of the state: add a visit
        histogram's wake-ups and live bits, exactly as the C does."""
        for sid, count in enumerate(visits):
            if count:
                for t, live in enumerate(self.bits[sid]):
                    if live:
                        cycles[t] += count
                        bits[t] += count * live

    def walk(
        self, cls: bytes, word: int, *, fresh: bool, at_end: bool, stats_from: int
    ) -> tuple[list[int], list[int], list[tuple[int, int]], int]:
        """Step the bin over one class stream from state ``word``
        (ignored when ``fresh``): one row lookup per byte, asleep in
        state 0 until a reviving class.  Returns per-tile ``(cycles,
        bits)`` of the owned bytes, ``(position, state word)`` wherever a
        final fires, and the exit word — the C kernel's results, bin by
        bin.  Past the cap the table restarts mid-stream, so a hostile
        stream over an unclosable bin cannot grow it without limit."""
        with self._walking:  # the table is shared by every scan of the plan
            words, rows, flags = self.words, self.rows, self.flags
            wake = self._wake.search
            cycles, bits = [0] * len(self.tile_masks), [0] * len(self.tile_masks)
            hits: list[tuple[int, int]] = []
            sid = 0 if fresh else self.intern(word)
            row = self.start if fresh else None
            visits = [0] * len(words)
            last = len(cls) - 1 if at_end else -1
            i, n = 0, len(cls)
            while i < n:
                if row is None:
                    if not sid:
                        woken = wake(cls, i)
                        if woken is None:
                            break
                        i = woken.start()
                    row = rows[sid]
                    if row is None:
                        if len(words) > codegen.LANE_DFA_MAX_STATES + self.closed:
                            word = words[sid]  # ids do not survive a restart
                            self._fold(visits, cycles, bits)
                            self.restart()
                            sid, visits = self.intern(word), []
                        row = self.row(sid)
                        visits += [0] * (len(words) - len(visits))
                sid, row = row[cls[i]], None
                if sid and i >= stats_from:
                    visits[sid] += 1
                    hit = flags[sid]
                    if hit and (hit & 1 or i == last):
                        hits.append((i, words[sid]))
                i += 1
            self._fold(visits, cycles, bits)
            return cycles, bits, hits, words[sid]


class FusedRuleset:
    """One ruleset compiled for lockstep execution.

    All SHIFT_LEFT programs (packed LNFA bins, standalone Shift-And
    units) are concatenated into a single wide machine word; GATHER
    programs keep their own state words but share the class-translated
    input and prefilter.  Every GATHER program — ``gather_programs`` are
    the NFA-mode ones, ``dfa_programs`` the DFA-mode ones; the split
    only names them for callers and :attr:`signature` — is closed at
    build time into one class-indexed table consuming one lookup per
    symbol (:class:`_GatherUnit`), stepped through
    :meth:`scan_units_span`.
    ``nbva_units`` are ``(automaton, anchored_start, anchored_end)``
    bit-vector automata: their label tables join the shared classes and
    each is stepped whole-frontier by :meth:`scan_nbva_unit_span` (no
    prefilter — their counters are priced on every symbol).  The packed
    machine's per-unit projection
    ``(word >> base) & (2**width - 1)`` evolves bit-identically to a
    standalone scan of that unit: within a SHIFT_LEFT program the low
    bit is only ever set by injection, so a neighbour's top bit leaking
    across the concatenation boundary is either absorbed by the very
    injection that would set it anyway or force-cleared — the same
    absorption argument the packed multi-pattern layout uses for its
    internal pattern boundaries.
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
        k = self.classes.k

        # -- lane-pack the shift programs into one wide word ------------
        bases = []
        offset = 0
        for program in self._shift:
            bases.append(offset)
            offset += program.width
        self.bases: tuple[int, ...] = tuple(bases)
        self.widths: tuple[int, ...] = tuple(p.width for p in self._shift)
        self.width: int = offset

        inject_first = inject_always = final = end_anchored = clear = 0
        for base, program in zip(self.bases, self._shift):
            inject_first |= program.inject_first << base
            inject_always |= program.inject_always << base
            final |= program.final << base
            end_anchored |= program.end_anchored_finals << base
            clear |= program.clear_after_shift << base
            # The concatenation boundary: the previous unit's top bit
            # shifts onto this unit's bit 0.  Harmless when bit 0 is
            # injected every cycle anyway; otherwise it must be cleared
            # (exact, because a SHIFT_LEFT unit's bit 0 is only ever
            # activated by injection, never by its own shift).
            if not program.inject_always & 1:
                clear |= 1 << base
        self.inject_first = inject_first
        self.inject_always = inject_always
        self.final = final
        self.end_anchored = end_anchored
        self.keep = ~clear

        labels_cls = []
        for rep in self.classes.representatives:
            word = 0
            for base, program in zip(self.bases, self._shift):
                word |= program.labels[rep] << base
            labels_cls.append(word)
        self._labels_cls = tuple(labels_cls)
        self.lane_hot_cls = np.fromiter(
            (inject_always & m != 0 for m in labels_cls), dtype=bool, count=k
        )

        # -- the GATHER units: mask stacks, each closed into its table ---
        # One numbering serves every span call: the NFA-mode programs,
        # then the DFA-mode ones.
        self._units = tuple(_GatherUnit(p, self.classes) for p in gathers + dfas)
        self._gather = self._units[: len(gathers)]
        self._dfa = self._units[len(gathers) :]
        self._foreign_logged = False

        # -- the union prefilter ----------------------------------------
        union_hot = self.lane_hot_cls.copy()
        for unit in self._units:
            union_hot |= unit.hot_cls
        self.union_hot_cls = union_hot
        self._hot_lut = union_hot[self.classes.np_map]  # per raw byte
        self._hot_bytes = bytes(np.flatnonzero(self._hot_lut).tolist())

        # -- native-codegen attachment (lazy, silent-fallback) ----------
        # Decided at construction time so pickled copies shipped to
        # worker processes re-attach under the same policy; the compiled
        # library itself is rebuilt (from the .so cache) on first use.
        self._native_requested = resolve_backend() == "native"
        self._native_units = None
        self._native_tried = False

    def __getstate__(self):
        # Compiled-library handles are process-local (dlopen'd shared
        # objects); workers rebuild them lazily from the on-disk cache.
        state = self.__dict__.copy()
        state["_native_units"] = None
        state["_native_tried"] = False
        return state

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

    # -- identity -------------------------------------------------------

    @property
    def signature(self) -> str:
        """Digest of the class map and lane layout.

        Cache keys and durable-scan fingerprints embed this so an
        artifact produced under one fusion layout can never be decoded
        under another.
        """
        doc = (
            FUSED_FORMAT_VERSION,
            self.classes.k,
            self.classes.class_of,
            tuple(zip(self.bases, self.widths)),
            tuple(unit.program.width for unit in self._gather),
        )
        if self._dfa:
            # Appended only when DFA units exist so rulesets without the
            # tier keep their pre-DFA signatures byte-for-byte.
            doc = doc + (
                DFA_FORMAT_VERSION,
                tuple(
                    (unit.program.width, unit.dfa.state_count)
                    for unit in self._dfa
                ),
            )
        if self._nbva:
            # Same rule: only NBVA-bearing rulesets roll over.
            doc = doc + (
                "nbva",
                NBVA_STATE_VERSION,
                tuple(unit.automaton.state_count for unit in self._nbva),
            )
        return hashlib.sha256(repr(doc).encode("ascii")).hexdigest()

    def extract(self, word: int, index: int) -> int:
        """Unit ``index``'s state projected out of the packed word."""
        return (word >> self.bases[index]) & ((1 << self.widths[index]) - 1)

    def pack(self, states: Sequence[int]) -> int:
        """Per-unit state words combined into one packed word."""
        word = 0
        for base, width, state in zip(self.bases, self.widths, states):
            word |= (state & ((1 << width) - 1)) << base
        return word

    def lane_dfa(self, index: int, tile_masks: Sequence[int] = ()) -> LaneDfa:
        """A fresh :class:`LaneDfa` over shift program ``index``'s slice
        of the packed word; ``tile_masks`` are its tiles' masks over
        that slice.  (How :mod:`repro.core.codegen`, which this module
        imports, gets its bins.)"""
        return LaneDfa(self, index, tile_masks)

    # -- translation + prefilter ----------------------------------------

    def translate(self, data: bytes) -> TranslatedSegment:
        """Translate one segment to class indices and prefilter it.

        The prefilter index is lazy: it materializes the first time an
        interpreted scan asks for hot positions, and never does when
        every consumer runs a compiled native kernel.
        """
        arr = np.frombuffer(data, dtype=np.uint8)
        cls_arr = self.classes.np_map[arr]
        return TranslatedSegment(
            data,
            cls_arr,
            self.classes.k,
            lambda: self._hot_positions(data, arr),
        )

    def _hot_positions(self, data: bytes, arr: np.ndarray) -> list[int]:
        hot_bytes = self._hot_bytes
        if not hot_bytes:
            return []
        if len(hot_bytes) <= _PREFILTER_FIND_MAX:
            positions: list[int] = []
            for value in hot_bytes:
                pos = data.find(value)
                while pos != -1:
                    positions.append(pos)
                    pos = data.find(value, pos + 1)
            positions.sort()
            return positions
        return np.flatnonzero(self._hot_lut[arr]).tolist()

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
        non-serial units of one split chunk, round-two entries, two
        collectors of one unit at different entry words — each is one
        call.  ``stats_from`` is the first owned position (earlier
        symbols only warm the state up — no events, no counters) and
        ``at_end`` whether the span's last symbol is the stream's last
        (end-anchored finals fire nowhere else).  Returns, per cursor,
        the events, the owned-region counters and the exit active set —
        identical to :meth:`PythonKernel.scan
        <repro.core.pykernel.PythonKernel.scan>` of the unit's program.

        A cursor whose entry is a state of its unit's table steps that
        table: in the generated C when it is attached — every such
        cursor of a mode in one call — else through :meth:`_dfa_span`.
        A unit without a table, and an entry no scan of the machine
        produces (a hand-edited snapshot), run the mask stack itself
        (:meth:`_gather_span`): identical results, only slower.
        """
        if not cursors or not tin.data:
            return [([], StepStats(), entry or 0) for _, entry in cursors]
        last = len(tin.data) - 1 if at_end else -1

        def decoded(number, raw, active, sid):
            # Steppers record (position, table state); the subset memory
            # turns each into its final-position mask, which can exceed
            # 64 bits and so stays on this side of the C ABI.
            unit = self._units[number]
            subsets, final = unit.dfa.subsets, unit.program.final
            mid = final & ~unit.program.end_anchored_finals
            events = [
                (pos, subsets[s] & (final if pos == last else mid))
                for pos, s in raw
            ]
            return events, active, subsets[sid]

        native = self._native_scanner()
        spans: list = [None] * len(cursors)
        compiled: tuple[list, list] = ([], [])  # NFA-mode, DFA-mode cursors
        for slot, (number, entry) in enumerate(cursors):
            unit = self._units[number]
            sid = unit.enter(entry)
            if sid is None:
                if not self._foreign_logged:
                    self._foreign_logged = True
                    log.debug(
                        "unit %d (%s) entered at %r: such spans step the "
                        "mask stack", number, unit.tier, entry,
                    )
                spans[slot] = self._gather_span(
                    unit, tin, entry or 0, entry is None, stats_from, at_end
                )
            elif native is not None and native.bases[number] is not None:
                dfa_mode = number >= len(self._gather)
                compiled[dfa_mode].append((slot, number, sid))
            else:
                spans[slot] = decoded(
                    number, *self._dfa_span(unit, tin, sid, stats_from, at_end)
                )
        if native is not None:  # at most one crossing per mode
            for group, span in zip(compiled, (native.gather_span, native.dfa_span)):
                if group:
                    walked = span(
                        tin.cls_bytes,
                        [cursor[1:] for cursor in group],
                        at_end=at_end,
                        stats_from=stats_from,
                    )
                    for (slot, number, _), result in zip(group, walked):
                        spans[slot] = decoded(number, *result)

        # ``cycles`` and ``matched_states`` are pure functions of the
        # owned input (one per-class dot product); only ``active`` and
        # the events come from the stepping loops.
        counts = tin.counts_from(stats_from)
        cycles = len(tin.data) - max(0, stats_from)
        out = []
        for (number, _), (events, active, state) in zip(cursors, spans):
            unit = self._units[number]
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

    def scan_dfa_unit_span(
        self, index: int, tin: TranslatedSegment, **span
    ) -> tuple[list[MatchEvent], StepStats, int]:
        """:meth:`scan_unit_span` of DFA-mode unit ``index`` (``state``
        is an NFA active set here too: :meth:`dfa_table` translates)."""
        return self.scan_unit_span(len(self._gather) + index, tin, **span)

    @staticmethod
    def _gather_span(
        unit: _GatherUnit,
        tin: TranslatedSegment,
        state: int,
        fresh: bool,
        stats_from: int,
        at_end: bool,
    ) -> tuple[list[MatchEvent], int, int]:
        """The mask-stack interpreter of one cursor — what a unit without
        a table, or an entry outside it, falls back to: ``(events,
        active-state sum, exit state)``."""
        program = unit.program
        cls = tin.cls_bytes
        labels = unit.labels
        cold_next = unit.cold
        hot_idx = tin.hot_for(unit.hot_cls)
        n_hot = len(hot_idx)

        succ = program.succ
        final = program.final
        end_anchored = program.end_anchored_finals
        inject = program.inject_always
        n = len(cls)
        last = n - 1
        events: list[MatchEvent] = []
        active = 0
        i = 0
        if fresh:
            states = program.inject_first & labels[cls[0]]
            if states and stats_from <= 0:
                active += states.bit_count()
                hits = states & final
                if hits and not (at_end and last == 0):
                    hits &= ~end_anchored
                if hits:
                    events.append((0, hits))
            i = 1
        else:
            states = state
        k = 0  # monotone cursor into hot_idx (indices only grow)
        while i < n:
            if not states:
                while k < n_hot and hot_idx[k] < i:
                    k += 1
                if k == n_hot:
                    break
                i = hot_idx[k]
                k += 1
                states = cold_next[cls[i]]
            else:
                avail = inject
                a = states
                while a:
                    low = a & -a
                    avail |= succ[low.bit_length() - 1]
                    a ^= low
                states = avail & labels[cls[i]]
            if states and i >= stats_from:
                active += states.bit_count()
                hits = states & final
                if hits:
                    if not (at_end and i == last):
                        hits &= ~end_anchored
                    if hits:
                        events.append((i, hits))
            i += 1
        return events, active, states

    @staticmethod
    def _dfa_span(
        unit: _GatherUnit,
        tin: TranslatedSegment,
        state: int,
        stats_from: int,
        at_end: bool,
    ) -> tuple[list[tuple[int, int]], int, int]:
        """The portable stepper of one table cursor — the generated C's
        results for it: ``(raw (position, table state) events, active
        sum, exit state)``.  Asleep in state 0 between the shared
        prefilter's hot positions."""
        (rows, pops), flags = unit.dfa.walk_view, unit.dfa.flags
        cls = tin.cls_bytes
        n = len(cls)
        last = n - 1 if at_end else -1
        hot_idx = tin.hot_for(unit.hot_cls)
        n_hot = len(hot_idx)
        raw: list[tuple[int, int]] = []
        active = 0
        s = state
        i = 0
        cursor = 0  # monotone cursor into hot_idx (indices only grow)
        while i < n:
            if not s:
                while cursor < n_hot and hot_idx[cursor] < i:
                    cursor += 1
                if cursor == n_hot:
                    break
                i = hot_idx[cursor]
                cursor += 1
            s = rows[s][cls[i]]
            if s and i >= stats_from:
                active += pops[s]
                hit = flags[s]
                if hit and (hit & 1 or i == last):
                    raw.append((i, s))
            i += 1
        return raw, active, s

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
            return native.nbva_span(
                index, tin.cls_bytes, state=state, at_end=at_end
            )
        scanner = self._nbva[index].scanner()
        scanner.state = state
        stats = NBVAStats(bv_cycle_indices=[])
        matches = scanner.feed(tin.data, stats, at_end=at_end)
        return matches, stats, scanner.state

    # -- chunk mappings (SFA stitching) ---------------------------------

    def gather_unit_map(
        self, index: int, tin: TranslatedSegment, *, start: int = 0
    ) -> FrontierMap:
        """GATHER unit ``index``'s :class:`FrontierMap` over ``tin[start:]``.

        The bounded frontier-function table of one chunk: sound even
        for cyclic units, where no warm-up window exists.
        """
        unit = self._gather[index]
        return gather_map_over(
            tin.cls_bytes[start:] if start else tin.cls_bytes,
            unit.labels,
            unit.program.succ,
            inject=unit.program.inject_always,
            width=unit.program.width,
        )

    def dfa_unit_map(
        self, index: int, tin: TranslatedSegment, *, start: int = 0
    ) -> StateMap:
        """DFA unit ``index``'s :class:`StateMap` over ``tin[start:]``.

        Function composition over at most the DFA's state count — the
        trivially composable form the input-parallel split engine folds
        for cyclic DFA-tier units.
        """
        unit = self._dfa[index]
        dfa = unit.dfa
        return state_map_over(
            tin.cls_bytes[start:] if start else tin.cls_bytes,
            dfa.transitions,
            dfa.k,
            states=dfa.state_count,
        )

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

    def dfa_table(self, index: int) -> ClassDFA | None:
        """DFA unit ``index``'s table — the state index ↔ NFA subset
        memory (``subsets`` / ``state_of``) the split engine's
        :class:`StateMap` entries translate through — or ``None`` when
        its closure passed the cap."""
        return self._dfa[index].dfa

    def unit_tier(self, number: int) -> str:
        """What steps GATHER unit ``number`` (numbered as
        :meth:`scan_units_span` does), as ``--explain`` names it:
        ``table (S states)`` or ``interpreted (closure > N)``."""
        return self._units[number].tier
