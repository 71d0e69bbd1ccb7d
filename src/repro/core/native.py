"""The ``native`` backend: runtime-compiled C kernels for fused scans.

:mod:`repro.core.codegen` emits a specialized C translation unit per
compiled ruleset; this module owns everything after that — the
capability probe (a working C compiler, looked up and smoke-tested
once per process and ``$CC``/``$PATH``), the build
(``cc -O3 -shared`` into the keyed on-disk compile cache, loaded via
``cffi`` with a ``ctypes`` fallback), and the thin scanner wrappers the
fused layers call.

Contracts:

* **Silent fallback.**  Every failure mode — no compiler, a build
  error, a load error — degrades to the interpreted fused path with
  identical results; callers catch :class:`NativeBuildError` (or see
  the registry resolve ``native`` down to ``fused``).  Set
  ``RAP_NATIVE_DISABLE=1`` to force this without uninstalling anything.
* **Keyed shared objects.**  A library's cache key is the SHA-256 of
  its generated source, which embeds
  :data:`~repro.io.envelope.PLAN_VERSION` — same tables, same key; any
  codegen change rolls every key over.  Artifacts live
  under ``<cache>/native/`` as ``<key>.<host tag>.so``,
  published the same way (:func:`repro.io.envelope.publish`) and
  subject to the same ``RAP_CACHE_MAX_MB`` size bound.
* **Byte-identical state.**  Kernel entry/exit states cross the ABI as
  the same little-endian ``uint64`` words
  :func:`~repro.core.fused.words_from_int` defines, so every
  :class:`~repro.core.state.KernelState` a native scan round-trips is
  the one the interpreted scan would have produced.
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
from pathlib import Path

import numpy as np

from repro.automata.nbva import NBVAState, NBVAStats
from repro.core import codegen
from repro.core.fused import int_from_words, words_from_int
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
        # lets ``from_buffer`` hand a bytes object or an ndarray of any
        # dtype straight to the call, with no per-argument cast.
        self._ffi.cdef(re.sub(r"(?:const )?\w+(?: \w+)? \*", "void *", cdef))
        self._lib = self._ffi.dlopen(str(path))
        self._as_is = (int, type(self.pointer(bytearray(1))))

    def pointer(self, buf):
        """``buf``'s address, as :meth:`fn` callables pass it on unchanged
        (``buf`` must outlive it)."""
        return self._ffi.from_buffer(buf)

    def fn(self, name: str):
        """``name`` as a callable over ints, :meth:`pointer` results and
        buffers (bytes objects or C-contiguous ndarrays, passed by
        address)."""
        raw = getattr(self._lib, name)
        from_buffer, as_is = self._ffi.from_buffer, self._as_is

        def call(*args):
            return raw(*[a if isinstance(a, as_is) else from_buffer(a) for a in args])

        return call


class _CtypesLibrary:
    """The same shared object behind plain ctypes (cffi-free hosts)."""

    kind = "ctypes"

    def __init__(self, path: Path, cdef: str):
        del cdef  # ctypes needs no declarations; args are wrapped per call
        self._lib = ctypes.CDLL(str(path))

    def pointer(self, buf):
        return ctypes.c_void_p(_address(buf))

    def fn(self, name: str):
        raw = getattr(self._lib, name)
        raw.restype = ctypes.c_int

        def call(*args):
            return raw(
                *[
                    ctypes.c_longlong(a)
                    if isinstance(a, int)
                    else a
                    if isinstance(a, ctypes.c_void_p)
                    else ctypes.c_void_p(_address(a))
                    for a in args
                ]
            )

        return call


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
    is a view of one block (``name``) plus the library's pointer to it
    (``at_<name>``), so a span neither allocates nor converts them."""

    def __init__(self, lib: _Library, layout: dict[str, tuple[type, int]]):
        words = [-(-np.dtype(t).itemsize * n // 8) for t, n in layout.values()]
        self.block = np.empty(sum(words), dtype=np.int64)
        at = 0
        for (name, (dtype, count)), size in zip(layout.items(), words):
            view = self.block[at : at + size].view(dtype)[:count]
            setattr(self, name, view)
            setattr(self, "at_" + name, lib.pointer(view))
            at += size


class NativeLaneScanner:
    """The compiled lane machine of one scanner layout.

    Mirrors :meth:`FusedLaneScanner.scan`'s inner work: one call (plus
    continuations when the hit buffer fills) returns the per-tile
    cycle/bit counters, ``(position, packed state word)`` wherever some
    bin's state holds a final that fires there, and the exit word.

    The kernel steps ``dfas`` — one closed
    :class:`~repro.core.table.StepTable` per *group* of adjacent bins
    (:func:`~repro.core.codegen.lane_scan_source`): the packed entry
    word becomes one state id per group on the way in, ids become the
    packed word again on the way out, so callers — and every snapshot —
    only ever see packed words.
    """

    def __init__(self, fused, tile_masks):
        kernel = codegen.lane_scan_source(fused, tile_masks)
        self._source = kernel.source
        self.dfas = kernel.closure
        lib = load_source(kernel.source, codegen.LANE_CDEF)
        self._fn = lib.fn("rap_lane_scan")
        self.tier = kernel.tier
        # per group: its first bin, then where its slice of the word sits
        ends = [fused.bases[j] for j in kernel.first[1:]] + [sum(fused.widths)]
        self._slices = [
            (j, fused.bases[j], (1 << end - fused.bases[j]) - 1)
            for j, end in zip(kernel.first, ends)
        ]
        # per group: its state words and where they sit in the packed word
        self._words = [
            (dfa.words, base) for dfa, (_, base, _) in zip(self.dfas, self._slices)
        ]
        tiles = sum(len(masks) for masks in tile_masks)
        visits = codegen.LANE_SUBSPANS * sum(dfa.closed for dfa in self.dfas)
        self._cap = cap = max(codegen.HIT_BUFFER_ENTRIES, kernel.block)
        self._counters = 2 * tiles + visits  # the words each span zeroes
        groups = len(self.dfas)
        layout = dict(tile_cycles=(np.int64, tiles), tile_bits=(np.int64, tiles))
        layout.update(visits=(np.int64, visits), state=(np.uint32, groups))
        layout.update(hit_pos=(np.int64, cap), hit_states=(np.uint32, cap * groups))
        layout.update(n_hits=(np.int64, 1), resume=(np.int64, 1))
        self._ws = _Workspace(lib, layout)
        self._warm = fused.warm
        self._foreign_logged = False

    def _enter(self, entry: int, fresh: bool) -> list[int] | None:
        """A packed entry word as one state id per group (``None``: some
        group's word is not in its closure — a shed bin entering empty
        beside live neighbours, a hand-edited snapshot)."""
        if fresh:  # the kernel starts every group itself
            return [0] * len(self.dfas)
        ids = []
        for table, (j, base, mask) in zip(self.dfas, self._slices):
            sid = table.closed_id(entry >> base & mask)
            if sid is None:
                if not self._foreign_logged:
                    self._foreign_logged = True
                    log.debug(
                        "lane bin %d entry word is outside its %d-state closure: "
                        "the first %d bytes of such spans are walked",
                        j, table.closed, self._warm,
                    )
                return None
            ids.append(sid)
        return ids

    def _leave(self, ids: list[int]) -> int:
        """The packed word of one state id per group (inverse of
        :meth:`_enter`)."""
        word = 0
        for (words, base), sid in zip(self._words, ids):
            word |= words[sid] << base
        return word

    def scan(
        self,
        data: bytes,
        *,
        entry: int,
        fresh: bool,
        at_end: bool,
        stats_from: int,
    ) -> tuple[list[int], list[int], list[tuple[int, int]], int] | None:
        """``None`` when ``entry`` holds a state outside a group's
        closure: the caller walks until the lanes have forgotten it."""
        ids = self._enter(entry, fresh)
        if ids is None:
            return None
        ws, cap, groups = self._ws, self._cap, len(self.dfas)
        ws.block[: self._counters] = 0
        ws.state[:] = ids
        hits: list[tuple[int, int]] = []
        rc, start = 1, 0
        while rc:
            rc = self._fn(
                data, len(data), start, ws.at_state, int(fresh), int(at_end),
                stats_from, ws.at_tile_cycles, ws.at_tile_bits, ws.at_visits,
                ws.at_hit_pos, ws.at_hit_states, cap, ws.at_n_hits, ws.at_resume,
            )
            # a lockstep block reports its sub-spans' hits interleaved
            nh, start = ws.n_hits.tolist()[0], ws.resume.tolist()[0]
            if nh:
                states = ws.hit_states[: nh * groups].reshape(nh, groups).tolist()
                batch = sorted(zip(ws.hit_pos[:nh].tolist(), states))
                hits += [(pos, self._leave(ids)) for pos, ids in batch]
        return (
            ws.tile_cycles.tolist(), ws.tile_bits.tolist(), hits,
            self._leave(ws.state.tolist()),
        )


class NativeUnitScanner:
    """The compiled unit kernels of one fused ruleset: the GATHER units'
    forest of tables (``rap_units_span``) and the NBVA units
    (``rap_nbva_span``)."""

    def __init__(self, fused):
        source = codegen.unit_scan_source(fused)
        if not source:
            raise NativeBuildError("no native-eligible scan units")
        # cffi resolves a declared symbol when first asked for it
        lib = load_source(source, codegen.UNITS_CDEF + codegen.NBVA_CDEF)
        # unit number -> first forest state id (a str: why it is not placed)
        self.bases, rows = codegen.unit_forest(fused)
        self._units_fn = lib.fn("rap_units_span") if rows else None
        placed = sum(isinstance(base, int) for base in self.bases)
        self.forest = [  # what --explain says of the ruleset
            f"unit forest: {placed} of {len(self.bases)} tables placed, "
            f"{rows * fused.classes.k} of {codegen.FOREST_ENTRIES} entries",
        ] + [f"  unit {n}: {b}" for n, b in enumerate(self.bases) if type(b) is str]
        crowded = sum(unit.table.closed > 0 for unit in fused._units) - placed
        if crowded:
            log.warning(
                "%d closed unit tables are not in the forest (--explain says "
                "why): their cursors are walked in Python", crowded,
            )
        # NBVA unit index -> (slot in the C unit table, {counted pid:
        # (word offset, words)} vector layout, total vector words)
        self._nbva = {
            j: (slot, *codegen.nbva_vector_layout(fused._nbva[j].automaton))
            for slot, j in enumerate(codegen.native_nbva_indices(fused))
        }
        self._nbva_fn = lib.fn("rap_nbva_span") if self._nbva else None
        self._cap = cap = codegen.HIT_BUFFER_ENTRIES
        # a span's cursors, and its events: whole bytes, up to one per cursor
        most = codegen.UNIT_SPAN_CURSORS
        events = max(cap, most)
        layout = dict(active=(np.int64, most), n_ev=(np.int64, 1))
        layout.update(resume=(np.int64, 1), ev_pos=(np.int64, events))
        layout.update(state=(np.uint32, most), ev_cursor=(np.int32, events))
        layout.update(ev_state=(np.uint32, events))
        self._units_ws = _Workspace(lib, layout)
        self._nbva_ws = _Workspace(lib, dict(at=(np.int64, 2), ev=(np.int64, cap)))

    def has_nbva(self, index: int) -> bool:
        return index in self._nbva

    def _cursors_span(
        self,
        data: bytes,
        cursors: list[tuple[int, int]],
        *,
        at_end: bool,
        stats_from: int,
    ) -> list[tuple[list[tuple[int, int]], int, int]]:
        """Step ``(unit number, closed table state)`` cursors — any
        units of the forest, in any multiplicity — over one span in one
        call (plus continuations when the event buffer fills): per
        cursor, ``(raw (position, table state) events, active-state sum,
        exit table state)``.  Forest ids never leave this method."""
        m = len(cursors)
        if m > (cut := codegen.UNIT_SPAN_CURSORS):  # the kernel's arrays are full
            span = dict(at_end=at_end, stats_from=stats_from)
            return self._cursors_span(data, cursors[:cut], **span) + (
                self._cursors_span(data, cursors[cut:], **span)
            )
        bases = [self.bases[number] for number, _ in cursors]
        ws = self._units_ws
        # the kernel emits whole bytes (up to m events): cap >= m
        cap = min(max(self._cap, m), len(ws.ev_pos))
        ws.block[:m] = 0  # the active sums
        ws.state[:m] = [base + sid for base, (_, sid) in zip(bases, cursors)]
        events: list[list[tuple[int, int]]] = [[] for _ in cursors]
        rc, start = 1, 0
        while rc:
            rc = self._units_fn(
                data, len(data), start, ws.at_state, m, int(at_end), stats_from,
                ws.at_active, ws.at_ev_pos, ws.at_ev_cursor, ws.at_ev_state, cap,
                ws.at_n_ev, ws.at_resume,
            )
            count, start = ws.n_ev.tolist()[0], ws.resume.tolist()[0]
            for pos, u, sid in zip(
                ws.ev_pos[:count].tolist(),
                ws.ev_cursor[:count].tolist(),
                ws.ev_state[:count].tolist(),
            ):
                events[u].append((pos, sid - bases[u]))
        exits = [sid - base for sid, base in zip(ws.state[:m].tolist(), bases)]
        return list(zip(events, ws.active[:m].tolist(), exits))

    # Two names for one call, so a traced scan attributes its (at most
    # two) forest crossings to the NFA-mode and the DFA-mode units.

    def gather_span(self, data: bytes, cursors, **span):
        """:meth:`_cursors_span` over the span's NFA-mode cursors."""
        return self._cursors_span(data, cursors, **span)

    def dfa_span(self, data: bytes, cursors, **span):
        """:meth:`_cursors_span` over the span's DFA-mode cursors."""
        return self._cursors_span(data, cursors, **span)

    def nbva_span(
        self, data: bytes, cursors: list[tuple[int, NBVAState]], *, at_end: bool
    ) -> list[tuple[list[int], NBVAStats, NBVAState]]:
        """Step ``(NBVA unit, entry frontier)`` cursors over one span in
        one ``rap_nbva_span`` call (plus continuations when the event
        buffer fills): per cursor ``(global matches, counters + global
        bv_cycle_indices, exit frontier)`` — :meth:`NBVAScanner.feed`'s
        results."""
        m, layouts = len(cursors), self._nbva
        rows, size = [], 0
        for index, state in cursors:
            slot, _, total = layouts[index]
            live = 0
            for pid, _ in state.vectors:
                live |= 1 << pid
            rows.append((slot, state.offset == 0, size, state.active, live))
            size += 2 * total  # the cursor's vectors, then its scratch
        table = np.zeros((m, codegen.NBVA_COLUMNS), dtype=np.uint64)
        table[:, :5] = rows
        vecs = np.zeros(max(1, size), dtype=np.uint64)
        for (index, state), row in zip(cursors, rows):
            for pid, vec in state.vectors:  # a fresh cursor has none
                at, words = layouts[index][1][pid]
                at += row[2]
                vecs[at : at + words] = words_from_int(vec, words)
        offsets = [state.offset for _, state in cursors]
        ws = self._nbva_ws
        ws.at[:] = 0  # (cursor, position) to resume at
        matches: list[list[int]] = [[] for _ in cursors]
        bv_cycles: list[list[int]] = [[] for _ in cursors]
        rc = 1
        while rc:
            rc = self._nbva_fn(
                data, len(data), m, int(at_end), table, vecs, ws.at_ev,
                min(self._cap, len(ws.ev)), ws.at_at,
            )
            # Each cursor's events in turn, ``C_NEV`` each, nearly all a BV
            # cycle alone (flags 1, taken as slices); reports one by one.
            rows_out = table.tolist()
            counts = [row[5] for row in rows_out]
            total = sum(counts)
            if not total:
                continue
            events = ws.ev[:total]
            positions = events >> 2
            if any(offsets):
                positions += np.repeat(np.array(offsets, dtype=np.int64), counts)
            found = positions.tolist()
            flags = events & 3
            odd = np.flatnonzero(flags != 1)
            odd_flags, odd = flags[odd].tolist(), odd.tolist()
            cut = j = 0
            for k, count in enumerate(counts):
                end = cut + count
                while j < len(odd) and odd[j] < end:
                    at, flag = odd[j], odd_flags[j]
                    bv_cycles[k] += found[cut:at]
                    if flag & 1:
                        bv_cycles[k].append(found[at])
                    if flag & 2:
                        matches[k].append(found[at])
                    cut, j = at + 1, j + 1
                bv_cycles[k] += found[cut:end]
                cut = end
        spans = []
        for k, ((index, _), (_, _, voff, _, _), out) in enumerate(
            zip(cursors, rows, rows_out)
        ):
            active, live = out[3], out[4]
            vectors = tuple(
                (pid, int_from_words(vecs[voff + at : voff + at + words]))
                for pid, (at, words) in layouts[index][1].items()
                if live >> pid & 1
            )
            stats = NBVAStats(*out[6:], bv_cycle_indices=bv_cycles[k])
            frontier = NBVAState(offsets[k] + len(data), active, vectors)
            spans.append((matches[k], stats, frontier))
        return spans
