"""The ``native`` backend: runtime-compiled C kernels for fused scans.

:mod:`repro.core.codegen` emits one C translation unit per binding; this
module owns the rest — the capability probe (a C compiler, found and
smoke-tested once per process and ``$CC``/``$PATH``), the build (``cc
-O3 -shared`` into the on-disk cache, loaded via ``cffi`` or ``ctypes``)
and :class:`NativeScanner`, the library's one Python face, which enters
it through one symbol, ``rap_scan_span``.

* **Silent fallback.**  No compiler, a build or a load error: the
  interpreted fused path runs instead, with identical results (callers
  catch :class:`NativeBuildError`; ``RAP_NATIVE_DISABLE=1`` forces it).
* **Keyed shared objects.**  A library's key is the SHA-256 of its
  source, which names :data:`~repro.io.envelope.PLAN_VERSION`; objects
  live under ``<cache>/native/`` as ``<key>.<host tag>.so``, published
  by :func:`repro.io.envelope.publish` within ``RAP_CACHE_MAX_MB``.
* **Byte-identical state.**  Entry/exit states cross the ABI as the
  little-endian ``uint64`` words of :func:`~repro.core.fused.
  words_from_int`: every state a native scan round-trips is the one the
  interpreted scan would have produced.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import re
import shutil
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path

import numpy as np

from repro.automata.nbva import NBVAState, NBVAStats
from repro.core import codegen
from repro.core.fused import words_from_int
from repro.io.envelope import publish

NATIVE_DISABLE_ENV = "RAP_NATIVE_DISABLE"

log = logging.getLogger(__name__)


class NativeBuildError(Exception):
    """A native kernel could not be built or loaded (callers fall back)."""


# -- capability probe ---------------------------------------------------------

_SMOKE: dict[str, str | None] = {}  # cc path -> failure reason (None = ok)

_SMOKE_SOURCE = "int rap_probe(void) { return 42; }\n"


_COMPILERS: dict[tuple, str | None] = {}  # ($CC, $PATH) -> cc path


def _find_compiler() -> str | None:
    """The C compiler on ``$PATH``, looked up once per ``($CC, $PATH)``:
    every ``resolve_backend()`` lands here, several times per scan."""
    key = (os.environ.get("CC"), os.environ.get("PATH"))
    if key not in _COMPILERS:
        found = None
        for candidate in (key[0], "cc", "gcc", "clang"):
            found = shutil.which(candidate) if candidate else None
            if found:
                break
        _COMPILERS[key] = found
    return _COMPILERS[key]


def _smoke_test(cc: str) -> str | None:
    """Compile-and-load a trivial shared object once per process."""
    cached = _SMOKE.get(cc, _SMOKE)
    if cached is not _SMOKE:
        return cached
    reason: str | None = None
    try:
        with tempfile.TemporaryDirectory(prefix="rap-native-probe-") as tmp:
            src = Path(tmp) / "probe.c"
            out = Path(tmp) / "probe.so"
            src.write_text(_SMOKE_SOURCE)
            proc = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", str(out), str(src)],
                capture_output=True,
                timeout=60,
            )
            if proc.returncode != 0:
                reason = "C compiler cannot build shared objects"
            else:
                lib = ctypes.CDLL(str(out))
                if lib.rap_probe() != 42:
                    reason = "probe shared object misbehaved"
    except Exception as err:  # pragma: no cover - environment-specific
        reason = f"C compiler probe failed: {err}"
    _SMOKE[cc] = reason
    return reason


def native_unavailable_reason() -> str | None:
    """Why the native backend cannot run here, or None when it can."""
    if os.environ.get(NATIVE_DISABLE_ENV, "").strip():
        return f"disabled by {NATIVE_DISABLE_ENV}"
    cc = _find_compiler()
    if cc is None:
        return "no C compiler"
    return _smoke_test(cc)


def native_available() -> bool:
    """The registry's capability probe for ``native``."""
    return native_unavailable_reason() is None


# -- build + load -------------------------------------------------------------

_LIB_MEMO: dict[str, "_Library"] = {}
_LIB_FAILED: set[str] = set()


def _native_cache_dir() -> Path:
    from repro.engine.cache import default_cache_dir

    return default_cache_dir() / "native"


def source_key(source: str) -> str:
    """The shared-object cache key: SHA-256 of the generated source."""
    return hashlib.sha256(source.encode()).hexdigest()


@functools.cache
def _host_tag() -> str:
    """What ``-march=native`` means here, for a shared object's file name:
    hosts sharing a cache directory must not load each other's objects."""
    proc = Path("/proc/cpuinfo")
    cpu = proc.read_text() if proc.exists() else ""
    isa = re.search(r"^(flags|Features)\b.*", cpu, re.M)
    return source_key(isa[0])[:12] if isa else platform.machine()


def _compile_shared(cc: str, source: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="rap-native-build-") as tmp:
        src = Path(tmp) / "kernel.c"
        out = Path(tmp) / "kernel.so"
        src.write_text(source)
        base = [cc, "-O3", "-fPIC", "-shared", "-o", str(out), str(src)]
        # -march=native first (the recurrence vectorizes well); retry
        # portable when the toolchain rejects it.
        proc = subprocess.run(
            base[:2] + ["-march=native"] + base[2:],
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            proc = subprocess.run(base, capture_output=True, timeout=300)
        if proc.returncode != 0:
            raise NativeBuildError(
                "cc failed: " + proc.stderr.decode(errors="replace")[:500]
            )
        # Racing processes both compile, the last publish wins, every
        # loader sees a complete file.
        publish(target, out.read_bytes())


class _CffiLibrary:
    """A built shared object behind cffi's ABI-mode loader."""

    kind = "cffi"

    def __init__(self, path: Path, cdef: str):
        import cffi

        self._ffi = cffi.FFI()
        # Every pointer parameter is declared ``void *``: that is what
        # lets ``from_buffer`` hand an ndarray of any dtype to the call,
        # and a bytes object go as it is.
        self._ffi.cdef(re.sub(r"(?:const )?\w+(?: \w+)? \*", "void *", cdef))
        self._lib = self._ffi.dlopen(str(path))

    def pointer(self, buf):
        """``buf``'s address, as :meth:`fn` callables take it (``buf``
        must outlive it)."""
        return self._ffi.from_buffer(buf)

    def fn(self, name: str):
        """``name`` as a callable over ints, bytes objects and
        :meth:`pointer` results, unconverted."""
        return getattr(self._lib, name)

    def value(self, name: str) -> int:
        """The exported ``const int`` ``name`` (declared in the cdef)."""
        return getattr(self._lib, name)


class _CtypesLibrary:
    """The same shared object behind plain ctypes (cffi-free hosts)."""

    kind = "ctypes"

    def __init__(self, path: Path, cdef: str):
        self._lib = ctypes.CDLL(str(path))
        # per function its parameters' ctypes, from its declaration
        self._argtypes = {
            name: [
                ctypes.c_void_p if "*" in param
                else ctypes.c_longlong if "long long" in param
                else ctypes.c_int
                for param in params.split(",")
            ]
            for name, params in re.findall(r"(\w+)\(([^)]*)\)", cdef)
        }

    def pointer(self, buf):
        return ctypes.c_void_p(_address(buf))

    def fn(self, name: str):
        raw = getattr(self._lib, name)
        raw.restype, raw.argtypes = ctypes.c_int, self._argtypes[name]
        return raw

    def value(self, name: str) -> int:
        return ctypes.c_int.in_dll(self._lib, name).value


def _address(buf) -> int:
    """The data address of a bytes object or a C-contiguous ndarray."""
    if isinstance(buf, np.ndarray):
        return buf.ctypes.data
    return ctypes.cast(ctypes.c_char_p(buf), ctypes.c_void_p).value or 0


_Library = _CffiLibrary | _CtypesLibrary


def load_source(source: str, cdef: str) -> _Library:
    """Build (or reuse) and load the shared object for one source text.

    Raises :class:`NativeBuildError` on any failure; failures are
    memoized per key so a broken toolchain costs one attempt, not one
    per scan.
    """
    key = source_key(source)
    lib = _LIB_MEMO.get(key)
    if lib is not None:
        return lib
    if key in _LIB_FAILED:
        raise NativeBuildError("previous build of this layout failed")
    reason = native_unavailable_reason()
    if reason is not None:
        raise NativeBuildError(reason)
    try:
        path = _native_cache_dir() / f"{key}.{_host_tag()}.so"
        if not path.is_file():
            cc = _find_compiler()
            assert cc is not None  # the probe above just found one
            _compile_shared(cc, source, path)
            from repro.engine.cache import enforce_cache_budget

            enforce_cache_budget(keep=path)
        else:
            # Loading counts as use for the cache's LRU eviction order.
            try:
                os.utime(path)
            except OSError:
                pass
        try:
            lib = _CffiLibrary(path, cdef)
        except ImportError:
            lib = _CtypesLibrary(path, cdef)
    except NativeBuildError:
        _LIB_FAILED.add(key)
        raise
    except Exception as err:
        _LIB_FAILED.add(key)
        raise NativeBuildError(f"load failed: {err}") from err
    _LIB_MEMO[key] = lib
    return lib


# -- scanner wrappers ---------------------------------------------------------


class _Workspace(threading.local):
    """A scanner's fixed-size out-buffers, allocated on its first span in
    each thread: ``layout`` maps a name to ``(dtype, count)``; each buffer
    is a view of one block (``name``: an ndarray, or for the ``read``
    buffers a memoryview — sliced and listed per span, without NumPy)
    plus the library's pointer to it (``at_<name>``), so a span neither
    allocates nor converts them; ``args`` are the pointers of the
    buffers ``names`` lists, ``caps`` and ``shape`` what ``ctl``'s
    constant words were last written for, ``words`` a memoryview of
    ``ctl``."""

    def __init__(
        self, lib: _Library, layout: dict[str, tuple[type, int]], names=(), read=()
    ):
        words = [-(-np.dtype(t).itemsize * n // 8) for t, n in layout.values()]
        self.block = np.zeros(sum(words), dtype=np.int64)
        at = 0
        for (name, (dtype, count)), size in zip(layout.items(), words):
            view = self.block[at : at + size].view(dtype)[:count]
            setattr(self, name, memoryview(view) if name in read else view)
            setattr(self, "at_" + name, lib.pointer(view))
            at += size
        self.args = tuple(getattr(self, "at_" + name) for name in names)
        self.caps = self.shape = None
        self.words = memoryview(self.ctl)
        # fresh NBVA cursors -> (this thread's _Rows, the template's
        # words, zero vector bytes): reset in place before each span
        self.fresh: dict[tuple, tuple] = {}


class _Rows:
    """NBVA cursors as the kernel takes them: the cursor ``table`` (one
    row of :data:`~repro.core.codegen.NBVA_COLUMNS` words per cursor) and
    ``vecs``, both ndarrays, ``flat`` the table's words and ``raw`` the
    vectors' bytes as memoryviews, and ``args`` the two pointers."""

    __slots__ = ("table", "vecs", "flat", "raw", "args")

    def __init__(self, table, vecs, pointer):
        self.table, self.vecs = table, vecs
        self.flat = memoryview(table).cast("B").cast("Q")
        self.raw = memoryview(vecs).cast("B")
        self.args = pointer(table), pointer(vecs)


_FRESH = NBVAState()
# a cursor row's first counter column (the C's C_STATS), after its match
# count; NBVAStats' fields follow in order
_C_STATS = 7


class NativeScanner:
    """The compiled kernels of one binding: one library, one ``cc`` build
    (:func:`~repro.core.codegen.binding_source`), holding whichever tiers
    compiled — the lane machine (``dfas``: one closed
    :class:`~repro.core.table.StepTable` per group of adjacent bins,
    its state ids kept in a stream's buffers, which it steps in place),
    the unit forest (``bases``: per
    unit its first forest state id, or why it is not placed) and the
    narrow NBVA units.  :meth:`span` steps any of them over one span in
    one ``rap_scan_span`` call — the library's one entry point — plus
    continuations whenever an event buffer fills."""

    def __init__(self, fused):
        kernel = codegen.binding_source(fused, fused.tile_masks)
        self.lanes_why = kernel.lanes_why
        if not kernel.source:
            raise NativeBuildError(kernel.lanes_why or "no native-eligible tier")
        self._source, lanes = kernel.source, kernel.lanes
        self.bases, rows = codegen.unit_forest(fused)
        vectors = rows > 0 and kernel.scalar_why is None
        cdef = codegen.SCAN_CDEF + ("\n" + codegen.FOREST_CDEF) * vectors
        lib = load_source(kernel.source, cdef)
        # the forest step the compiler took: 16 units a state vector, or 1
        self.forest_lanes = lib.value(codegen.FOREST_LANES) if vectors else 1
        self._span_fn = lib.fn("rap_scan_span")
        nbva, classes = codegen.native_nbva_indices(fused), fused.classes.class_of
        self.dfas, self.tier = (lanes.closure, lanes.tier) if lanes else ([], None)
        if lanes:  # per group: its first bin, where its slice of the word sits
            ends = [fused.bases[j] for j in lanes.first[1:]] + [sum(fused.widths)]
            self._slices = [
                (j, fused.bases[j], (1 << end - fused.bases[j]) - 1)
                for j, end in zip(lanes.first, ends)
            ]
        placed = sum(isinstance(base, int) for base in self.bases)
        tiers = [f"lanes {lanes.tier}"] if lanes else []
        tiers += [f"lanes walked ({kernel.lanes_why})"] * bool(kernel.lanes_why)
        if self.forest_lanes > 1:
            vecs = -(-placed // 16)
            step = f"state vectors, {placed} units in {vecs} vector" + "s" * (vecs > 1)
        else:
            why = kernel.scalar_why or "no AVX-512 target"
            step = f"scalar ({why if rows else 'no unit placed'})"
            step += f", {kernel.fold} cursors folded" * bool(kernel.fold)
        tiers += [
            f"unit forest {placed} of {len(self.bases)} tables "
            f"({rows * fused.classes.k} of {codegen.FOREST_ENTRIES} entries), {step}"
        ] * bool(self.bases)
        tiers += [f"NBVA slots {len(nbva)} of {fused.nbva_count}"] * bool(nbva)
        self.report = [  # what --explain says of the binding
            f"native library {source_key(kernel.source)[:16]}: " + "; ".join(tiers)
        ] + [f"  unit {n}: {b}" for n, b in enumerate(self.bases) if type(b) is str]
        crowded = sum(unit.table.closed > 0 for unit in fused._units) - placed
        if crowded:
            log.warning(
                "%d closed unit tables are not in the forest (--explain says "
                "why): their cursors are walked in Python", crowded,
            )
        # NBVA unit index -> (slot in the C unit table, {counted pid:
        # (word offset, words)} vector layout, total vector words); per
        # slot what each byte adds to matched_states, which the C leaves
        # to the span's byte histogram
        self._nbva = {
            j: (slot, *codegen.nbva_vector_layout(fused._nbva[j].automaton))
            for slot, j in enumerate(nbva)
        }
        # the stall groups (NBVA arrays) whose units all run here: a group
        # runs wholly in C or wholly on the oracle, so one side unions it
        self._groups = groups = len(fused.nbva_groups)
        self.native_groups = frozenset(
            g for g, units in enumerate(fused.nbva_groups)
            if all(j in self._nbva for j in units)
        )
        self._nbva_pops = np.array(
            [
                [u.labels[c].bit_count() + u.cmatch[c].bit_count() for c in classes]
                for u in map(fused._nbva.__getitem__, nbva)
            ],
            dtype=np.int64,
        ).reshape(-1, 256)
        # One event cap for every tier, each clamping it to its buffer; a
        # span's unit events are whole bytes, up to one per cursor.
        self._cap = cap = max(codegen.HIT_BUFFER_ENTRIES, lanes.block if lanes else 0)
        visits = codegen.LANE_SUBSPANS * sum(dfa.closed for dfa in self.dfas)
        lane_groups, hits = len(self.dfas), cap if lanes else 0
        most = codegen.UNIT_SPAN_CURSORS if rows else 0
        events = max(codegen.HIT_BUFFER_ENTRIES, most) if rows else 0
        i64, u32 = np.int64, np.uint32
        # A stream's lane state and tile counters are its own (LaneStream,
        # resident between spans); the rest is scratch of one span.
        self._ws = _Workspace(
            lib,
            dict(
                hist=(i64, 256), visits=(i64, visits),
                ctl=(i64, len(codegen.SCAN_CTL)),
                active=(i64, most), hit_pos=(i64, hits),
                hit_states=(u32, hits * lane_groups), units=(u32, most),
                ev_pos=(i64, events), ev_cursor=(np.int32, events),
                ev_state=(u32, events),
                ev=(i64, codegen.HIT_BUFFER_ENTRIES if nbva else 1),
                # per stall group, its bitmap of one block and its count
                bits=(np.uint64, groups * codegen.NBVA_BLOCK // 64 if nbva else 1),
                stalls=(i64, max(1, groups)),
            ),
            # rap_scan_span's buffers after the lanes', in its order
            "visits hit_pos hit_states units active ev_pos ev_cursor ev_state "
            "ev hist bits stalls".split(),
            "hit_pos hit_states units active ev_pos ev_cursor ev_state ev "
            "stalls".split(),
        )
        self._pointer = lib.pointer
        # Shared by every thread's spans: a key has one value, whoever
        # computes it (a racing miss computes it twice), and a template
        # is only ever read.
        self._fresh: dict[tuple, np.ndarray] = {}  # fresh cursors -> template
        self._hit_words: dict[tuple, int] = {}  # lane state ids -> packed word
        self._warm = fused.warm
        self._foreign_logged = False

    def has_nbva(self, index: int) -> bool:
        return index in self._nbva

    # -- the lane machine's words ------------------------------------------

    def _enter(self, lanes) -> bool:
        """Hold ``lanes`` (a :class:`~repro.simulators.fused.LaneStream`):
        its word becomes one state id per group in its ``state``, which
        the kernel steps in place (``False``: some group's word is not in
        its closure — a ``python`` snapshot after a shed, a hand edit)."""
        ids = []
        for table, (j, base, mask) in zip(self.dfas, self._slices):
            sid = 0 if lanes.fresh else table.closed_id(lanes.word >> base & mask)
            if sid is None:
                if not self._foreign_logged:
                    self._foreign_logged = True
                    log.debug(
                        "lane bin %d entry word is outside its %d-state closure: "
                        "the first %d bytes of such spans are walked",
                        j, table.closed, self._warm,
                    )
                return False
            ids.append(sid)
        if lanes.args is None:
            state = np.zeros(len(self.dfas), dtype=np.uint32)
            buffers = state, lanes.tile_cycles, lanes.tile_bits
            lanes.args = tuple(map(self._pointer, buffers))
            lanes.state = memoryview(state)
        lanes.state[:], lanes.word = array("I", ids), None
        return True

    def _leave(self, lanes) -> int:
        """The packed word of a held stream (read, not released)."""
        return self._word(lanes.state.tolist())

    def _word(self, ids) -> int:
        word = 0
        for table, (_, base, _), sid in zip(self.dfas, self._slices, ids):
            word |= table.words[sid] << base
        return word

    # -- one span of any tiers -----------------------------------------------

    def span(
        self,
        data: bytes,
        *,
        at_end: bool,
        stats_from: int = 0,
        lanes=None,
        units: list[tuple[int, int]] = (),
        nbva: list[tuple[int, NBVAState, int]] = (),
        frontiers: bool = True,
    ) -> tuple:
        """Step the lane machine (``lanes``: a stream's
        :class:`~repro.simulators.fused.LaneStream`, taken over by
        :meth:`_enter` — its state ids and tile counters are stepped and
        accumulated in place, never zeroed), ``(unit number, closed table
        state)`` forest cursors and ``(NBVA unit, entry frontier, stall
        group)`` cursors over one span, in one crossing.  Returns
        ``(lanes, units, nbva, histogram, stalls)``: ``(position, packed
        word)`` wherever a bin holds a final that fires (``None`` when not
        asked, or when the lanes are not compiled or their word is
        outside a group's closure: the caller walks until they forget
        it); per unit cursor its raw ``(position, table state)`` events,
        active-state sum and exit state; per NBVA cursor
        :meth:`NBVAScanner.feed`'s global matches, counters and exit
        frontier (``None`` without ``frontiers``); the owned bytes'
        histogram (``None`` for the lanes alone); and per stall group the
        span's cycles in which one of its cursors triggers a BV phase.
        Forest state ids and BV-cycle positions never leave this
        method."""
        if lanes is not None and not (
            self.dfas and (lanes.word is None or self._enter(lanes))
        ):
            lanes = None  # the caller walks them
        if len(units) > (cut := codegen.UNIT_SPAN_CURSORS):  # arrays full
            span = dict(at_end=at_end, stats_from=stats_from)
            head = self.span(data, lanes=lanes, units=units[:cut], nbva=nbva, **span)
            rest = self.span(data, units=units[cut:], **span)[1]
            return head[0], head[1] + rest, *head[2:]
        ws, n, m, k = self._ws, len(data), len(units), len(nbva)
        hits: list[tuple[int, int]] = []
        events: list[list[tuple[int, int]]] = []
        bases: list[int] = []
        if m:
            bases = [self.bases[number] for number, _ in units]
            ids = [base + sid for base, (_, sid) in zip(bases, units)]
            ws.units[:m] = array("I", ids)
            events = [[] for _ in units]
        found: list[list[int]] = [[] for _ in nbva]  # per NBVA cursor: matches
        offsets = [state.offset for _, state, _ in nbva]
        rows = self._nbva_rows(ws, nbva)
        words = ws.words

        def drain():
            if words[-2]:
                self._lane_hits(words[-2], hits)
            if words[-1]:
                for pos, u, sid in self._unit_events(words[-1]):
                    events[u].append((pos, sid - bases[u]))
            if k:
                self._nbva_events(rows.flat, offsets, found)

        self._cross(data, at_end, stats_from, lanes, m, k, rows, drain)
        unit_out: list = []
        if m:
            exits = [sid - base for sid, base in zip(ws.units[:m].tolist(), bases)]
            unit_out = list(zip(events, ws.active[:m].tolist(), exits))
        hist = ws.hist.copy() if m or k else None
        nbva_out, stalls = [], [0] * self._groups
        if k:
            nbva_out = self._nbva_out(nbva, rows, found, hist, n, frontiers)
            stalls = ws.stalls[: self._groups].tolist()
        return hits if lanes is not None else None, unit_out, nbva_out, hist, stalls

    def bulk(self, data: bytes, lanes, ids, nbva: tuple, found: list) -> tuple:
        """:meth:`span` of a bulk scan: every cursor fresh, over the whole
        stream, straight into the caller's records.  ``lanes`` is a fresh
        :class:`~repro.simulators.fused.LaneStream` (or ``None``), ``ids``
        the GATHER cursors' forest state ids (at most
        :data:`~repro.core.codegen.UNIT_SPAN_CURSORS`), ``nbva`` the NBVA
        cursors' ``(unit, stall group)`` pairs; ``found`` holds one list
        per cursor, GATHER then NBVA, and each cursor's event positions
        are appended to its own.  Returns the lanes' hits (as
        :meth:`span`), per GATHER cursor its active-state sum, per NBVA
        cursor its counters in :class:`NBVAStats` field order
        (``matched_states`` 0: nothing a bulk scan prices reads it) and
        per stall group its stall count."""
        if lanes is not None and not (self.dfas and self._enter(lanes)):
            lanes = None  # the caller walks them
        ws, m, k = self._ws, len(ids), len(nbva)
        hits: list[tuple[int, int]] = []
        if m:
            ws.units[:m] = ids
        rows = self._fresh_rows(ws, nbva)
        words, events = ws.words, found[:m]
        offsets, nbva_found = [0] * k, found[m:]

        def drain():
            if words[-2]:
                self._lane_hits(words[-2], hits)
            if words[-1]:
                for pos, u, _ in self._unit_events(words[-1]):
                    events[u].append(pos)
            if k:
                self._nbva_events(rows.flat, offsets, nbva_found)

        self._cross(data, True, 0, lanes, m, k, rows, drain)
        width = codegen.NBVA_COLUMNS
        flat = rows.flat[: k * width].tolist() if k else []
        return (
            hits if lanes is not None else None,
            ws.active[:m].tolist(),
            [flat[at + _C_STATS : at + width] for at in range(0, k * width, width)],
            ws.stalls[: self._groups].tolist(),
        )

    def _cross(self, data, at_end, stats_from, lanes, m, k, rows, drain) -> None:
        """Call ``rap_scan_span`` over ``data`` until the span is done,
        ``drain()`` emptying its event buffers after each return (a full
        buffer returns early; the next call resumes)."""
        ws = self._ws
        shape = (-1 if lanes is None else int(lanes.fresh), m, k, self._cap)
        if shape != ws.shape:  # codegen.SCAN_CTL: "lanes" .. "groups"
            cap, ws.shape = self._cap, shape
            # the unit and NBVA kernels write whole bytes: up to m events
            # and one
            ws.caps = cap, min(max(cap, m), len(ws.ev_pos)), min(cap, len(ws.ev))
            ws.ctl[5:12] = *shape[:3], *ws.caps, self._groups
        own = lanes.args if lanes is not None else (ws.at_hist,) * 3
        table = rows.args if rows is not None else (ws.at_hist,) * 2
        args = (int(at_end), stats_from, *table, ws.at_ctl, *own, *ws.args)
        raw = data if type(data) is bytes else self._pointer(data)
        n, rc = len(data), 1
        try:  # the C zeroes the span's counters and, done, its resume words
            while rc:
                rc = self._span_fn(raw, n, *args)
                drain()
        finally:
            if rc:  # an interrupted span: the next one starts afresh
                ws.ctl[:5] = 0
        if lanes is not None and n:
            lanes.fresh = False

    def _lane_hits(self, count: int, hits: list) -> None:
        """The lane hits of the last return, in position order (a
        lockstep block reports its sub-spans' hits interleaved)."""
        ws, groups = self._ws, len(self.dfas)
        ids = ws.hit_states[: count * groups].tolist()
        at = range(0, count * groups, groups)
        for pos, k in sorted(zip(ws.hit_pos[:count].tolist(), at)):
            key = tuple(ids[k : k + groups])
            word = self._hit_words.get(key)
            if word is None:
                word = self._hit_words[key] = self._word(key)
            hits.append((pos, word))

    def _unit_events(self, count: int):
        """The unit events of the last return: ``(position, cursor, forest
        state)`` each."""
        ws = self._ws
        return zip(
            ws.ev_pos[:count].tolist(),
            ws.ev_cursor[:count].tolist(),
            ws.ev_state[:count].tolist(),
        )

    def _fresh_rows(self, ws, cursors: tuple):
        """The :class:`_Rows` of fresh NBVA cursors, ``(unit, stall group)``
        pairs (``None`` without any): this thread's, reset in place from
        a template made once per ``cursors``."""
        held = ws.fresh.get(cursors)
        if held is not None:
            rows, template, zeros = held
            rows.flat[:] = template
            rows.raw[:] = zeros
            return rows
        if not cursors:  # (rap_scan_span reads no cursor table then)
            return None
        table = self._fresh.get(cursors)
        if table is None:
            fresh = [(j, _FRESH, g) for j, g in cursors]
            table = self._fresh[cursors] = self._build_rows(fresh)[0]
        words = sum(2 * self._nbva[j][2] for j, _ in cursors)
        vecs = np.zeros(max(1, words), np.uint64)
        rows = _Rows(table.copy(), vecs, self._pointer)
        template = memoryview(table).cast("B").cast("Q")
        ws.fresh[cursors] = rows, template, bytes(vecs.nbytes)
        return rows

    def _nbva_rows(self, ws, cursors):
        """The :class:`_Rows` the NBVA kernel takes for ``(NBVA unit,
        entry frontier, stall group)`` cursors (fresh ones' from
        :meth:`_fresh_rows`)."""
        if all(state == _FRESH for _, state, _ in cursors):
            return self._fresh_rows(ws, tuple((j, g) for j, _, g in cursors))
        return _Rows(*self._build_rows(cursors), self._pointer)

    def _build_rows(self, cursors):
        """A new cursor table and vector words for NBVA cursors."""
        layouts, rows, size = self._nbva, [], 0
        for index, state, group in cursors:
            slot, _, total = layouts[index]
            live = 0
            for pid, _ in state.vectors:
                live |= 1 << pid
            rows.append((slot, state.offset == 0, size, state.active, live, group))
            size += 2 * total  # the cursor's vectors, then its scratch
        table = np.zeros((max(1, len(rows)), codegen.NBVA_COLUMNS), dtype=np.uint64)
        if rows:
            table[:, :6] = rows
        vecs = np.zeros(max(1, size), dtype=np.uint64)
        for (index, state, _), row in zip(cursors, rows):
            for pid, vec in state.vectors:  # a fresh cursor has none
                at, words = layouts[index][1][pid]
                at += row[2]
                vecs[at : at + words] = words_from_int(vec, words)
        return table, vecs

    def _nbva_events(self, flat, offsets: list[int], found: list):
        """The NBVA matches of the last return: each cursor's ``C_NMATCH``
        of them, in turn from the buffer's front (``flat``: the cursor
        table's words)."""
        width = codegen.NBVA_COLUMNS
        counts = flat[_C_STATS - 1 : len(found) * width : width].tolist()
        total = sum(counts)
        if not total:
            return
        ends, at = self._ws.ev[:total].tolist(), 0
        for matches, count, off in zip(found, counts, offsets):
            if count:  # spans report span-local positions
                run = ends[at : at + count]
                matches += [p + off for p in run] if off else run
                at += count

    def _nbva_out(self, cursors, rows, found, hist, n: int, frontiers):
        """Per NBVA cursor ``(matches, NBVAStats, exit frontier)``, its
        ``matched_states`` the histogram dotted with its byte popcounts."""
        spans, words = [], rows.vecs.tobytes() if frontiers else b""
        matched = self._nbva_pops.dot(hist).tolist()
        for (index, state, _), out, matches in zip(cursors, rows.table.tolist(), found):
            out[_C_STATS + 2] = matched[out[0]]  # by the unit's slot
            frontier = None
            if frontiers:
                frontier = self._frontier(index, state, out, words, n)
            spans.append((matches, NBVAStats(*out[_C_STATS:]), frontier))
        return spans

    def _frontier(self, index: int, state: NBVAState, row, words, n: int):
        """A cursor's exit frontier: its vectors are little-endian words
        at its row's offset."""
        live, at = row[4], 8 * row[2]
        vectors = () if not live else tuple(
            (pid, int.from_bytes(words[at + 8 * w : at + 8 * (w + k)], "little"))
            for pid, (w, k) in self._nbva[index][1].items()
            if live >> pid & 1
        )
        return NBVAState(state.offset + n, row[3], vectors)

    # -- names over span: the lanes alone, and the benchmark ledger's --------
    # ``benchmarks/ledger/layers.py`` times spans by wrapping ``scan``,
    # ``gather_span``, ``dfa_span`` and the two class aliases below by
    # name, and is frozen with the benchmark: that is the only reason the
    # last four exist.  Every scan crosses through :meth:`span`.

    def scan(self, data: bytes, *, lanes, at_end: bool, stats_from: int = 0):
        """:meth:`span` over the lane machine alone."""
        return self.span(data, lanes=lanes, at_end=at_end, stats_from=stats_from)[0]

    def gather_span(self, data: bytes, cursors, **span):
        """:meth:`span` over GATHER cursors alone."""
        return self.span(data, units=cursors, **span)[1]

    dfa_span = gather_span


NativeLaneScanner = NativeUnitScanner = NativeScanner
