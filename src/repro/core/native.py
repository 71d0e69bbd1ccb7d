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

    def fn(self, name: str):
        """``name`` as a callable over ints and buffers (bytes objects
        or C-contiguous ndarrays, passed by address)."""
        raw = getattr(self._lib, name)
        from_buffer = self._ffi.from_buffer

        def call(*args):
            return raw(
                *(a if isinstance(a, int) else from_buffer(a) for a in args)
            )

        return call


class _CtypesLibrary:
    """The same shared object behind plain ctypes (cffi-free hosts)."""

    kind = "ctypes"

    def __init__(self, path: Path, cdef: str):
        del cdef  # ctypes needs no declarations; args are wrapped per call
        self._lib = ctypes.CDLL(str(path))

    def fn(self, name: str):
        raw = getattr(self._lib, name)
        raw.restype = ctypes.c_int

        def call(*args):
            return raw(
                *(
                    ctypes.c_longlong(a)
                    if isinstance(a, int)
                    else ctypes.c_void_p(_address(a))
                    for a in args
                )
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
        self._fn = load_source(kernel.source, codegen.LANE_CDEF).fn(
            "rap_lane_scan"
        )
        self.tier = kernel.tier
        # per group: its first bin, then where its slice of the word sits
        ends = [fused.bases[j] for j in kernel.first[1:]] + [sum(fused.widths)]
        self._slices = [
            (j, fused.bases[j], (1 << end - fused.bases[j]) - 1)
            for j, end in zip(kernel.first, ends)
        ]
        self._tiles = sum(len(masks) for masks in tile_masks)
        self._visits = codegen.LANE_SUBSPANS * sum(dfa.closed for dfa in self.dfas)
        self._cap = max(codegen.HIT_BUFFER_ENTRIES, kernel.block)
        self._warm = fused.warm
        self._foreign_logged = False

    def _enter(self, entry: int, fresh: bool) -> np.ndarray | None:
        """A packed entry word as one state id per group (``None``: some
        group's word is not in its closure — a shed bin entering empty
        beside live neighbours, a hand-edited snapshot)."""
        if fresh:  # the kernel starts every group itself
            return np.zeros(len(self.dfas), dtype=np.uint32)
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
        return np.array(ids, dtype=np.uint32)

    def _leave(self, ids: list[int]) -> int:
        """The packed word of one state id per group (inverse of
        :meth:`_enter`)."""
        slices = zip(self.dfas, ids, self._slices)
        return sum(dfa[sid] << base for dfa, sid, (_, base, _) in slices)

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
        state = self._enter(entry, fresh)
        if state is None:
            return None
        cap = self._cap
        tile_cycles = np.zeros(self._tiles, dtype=np.int64)
        tile_bits = np.zeros(self._tiles, dtype=np.int64)
        visits = np.zeros(self._visits, dtype=np.int64)
        hit_pos = np.empty(cap, dtype=np.int64)
        hit_states = np.empty((cap, len(self.dfas)), dtype=np.uint32)
        n_hits = np.zeros(1, dtype=np.int64)
        resume = np.zeros(1, dtype=np.int64)
        hits: list[tuple[int, int]] = []
        rc = 1
        while rc:
            rc = self._fn(
                data, len(data), int(resume[0]), state, int(fresh), int(at_end),
                stats_from, tile_cycles, tile_bits, visits, hit_pos, hit_states,
                cap, n_hits, resume,
            )
            # a lockstep block reports its sub-spans' hits interleaved
            nh = int(n_hits[0])
            batch = sorted(zip(hit_pos[:nh].tolist(), hit_states[:nh].tolist()))
            hits.extend((pos, self._leave(ids)) for pos, ids in batch)
        return (
            tile_cycles.tolist(), tile_bits.tolist(), hits, self._leave(state.tolist())
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
        self._cap = codegen.HIT_BUFFER_ENTRIES

    def has_nbva(self, index: int) -> bool:
        return index in self._nbva

    def _drain(self, fn, data: bytes, cap: int, *args):
        """Drive one span kernel through the continuation protocol.

        Calls ``fn(data, n, start_i, *args, cap, n_ev, resume_i)`` until
        it reports completion, yielding after each return the number of
        entries it left in the caller's event buffers (to be consumed
        before the next re-entry overwrites them).
        """
        n_ev = np.zeros(1, dtype=np.int64)
        resume = np.zeros(1, dtype=np.int64)
        i = 0
        while True:
            rc = fn(
                data,
                len(data),
                i,
                *args,
                cap,
                n_ev,
                resume,
            )
            yield int(n_ev[0])
            i = int(resume[0])
            if rc == 0:
                return

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
        m, span = len(cursors), dict(at_end=at_end, stats_from=stats_from)
        if m > (cut := codegen.UNIT_SPAN_CURSORS):  # the kernel's arrays are full
            return self._cursors_span(data, cursors[:cut], **span) + (
                self._cursors_span(data, cursors[cut:], **span)
            )
        bases = [self.bases[number] for number, _ in cursors]
        state = np.array(
            [base + sid for base, (_, sid) in zip(bases, cursors)], dtype=np.uint32
        )
        active = np.zeros(m, dtype=np.int64)
        cap = max(self._cap, m)  # the kernel emits whole bytes: up to m events
        ev_pos = np.empty(cap, dtype=np.int64)
        ev_cursor = np.empty(cap, dtype=np.int32)
        ev_state = np.empty(cap, dtype=np.uint32)
        events: list[list[tuple[int, int]]] = [[] for _ in cursors]
        for count in self._drain(
            self._units_fn,
            data,
            cap,
            state,
            m,
            1 if at_end else 0,
            stats_from,
            active,
            ev_pos,
            ev_cursor,
            ev_state,
        ):
            for pos, u, sid in zip(
                ev_pos[:count].tolist(),
                ev_cursor[:count].tolist(),
                ev_state[:count].tolist(),
            ):
                events[u].append((pos, sid - bases[u]))
        exits = [sid - base for sid, base in zip(state.tolist(), bases)]
        return list(zip(events, active.tolist(), exits))

    # Two names for one call, so a traced scan attributes its (at most
    # two) forest crossings to the NFA-mode and the DFA-mode units.

    def gather_span(self, data: bytes, cursors, **span):
        """:meth:`_cursors_span` over the span's NFA-mode cursors."""
        return self._cursors_span(data, cursors, **span)

    def dfa_span(self, data: bytes, cursors, **span):
        """:meth:`_cursors_span` over the span's DFA-mode cursors."""
        return self._cursors_span(data, cursors, **span)

    def nbva_span(
        self,
        index: int,
        data: bytes,
        *,
        state: NBVAState,
        at_end: bool,
    ) -> tuple[list[int], NBVAStats, NBVAState]:
        """``(global matches, counters + global bv_cycle_indices, exit
        frontier)`` for one span — :meth:`NBVAScanner.feed`'s results."""
        slot, layout, total = self._nbva[index]
        base = state.offset
        vecs = np.zeros(max(1, total), dtype=np.uint64)
        live = 0
        for pid, vec in state.vectors:
            offset, words = layout[pid]
            vecs[offset : offset + words] = words_from_int(vec, words)
            live |= 1 << pid
        active = np.array([state.active], dtype=np.uint64)
        live = np.array([live], dtype=np.uint64)
        scratch = np.empty_like(vecs)
        counters = np.zeros(11, dtype=np.int64)
        ev = np.empty(self._cap, dtype=np.int64)
        matches: list[int] = []
        bv_cycles: list[int] = []
        for count in self._drain(
            self._nbva_fn,
            data,
            self._cap,
            slot,
            active,
            live,
            vecs,
            scratch,
            1 if base == 0 else 0,
            1 if at_end else 0,
            counters,
            ev,
        ):
            events = ev[:count]
            positions = (events >> 2) + base
            bv_cycles.extend(positions[(events & 1) != 0].tolist())
            matches.extend(positions[(events & 2) != 0].tolist())
        exit_live = int(live[0])
        vectors = tuple(
            (pid, int_from_words(vecs[offset : offset + words]))
            for pid, (offset, words) in layout.items()
            if exit_live >> pid & 1
        )
        stats = NBVAStats(*counters.tolist(), bv_cycle_indices=bv_cycles)
        end = base + len(data)
        return matches, stats, NBVAState(end, int(active[0]), vectors)
