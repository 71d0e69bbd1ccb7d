"""On-disk compile cache keyed by workload content.

Every ``scan``/``experiment`` invocation used to recompile its regexes
from scratch; compilation (parsing, the Fig. 9 decision graph, unfolding,
tile planning) dominates start-up for realistic rule sets.  The cache
stores compiled rulesets as the versioned JSON documents of
:mod:`repro.io.serialize` under ``~/.cache/rap-repro/`` (override with
the ``RAP_CACHE_DIR`` environment variable or an explicit root).

The key is a SHA-256 over the canonical JSON of everything that can
change the compiler's output: the pattern list (in order), every
:class:`~repro.compiler.pipeline.CompilerConfig` field including the
full hardware config, the cost constants in force, and
:data:`~repro.io.envelope.PLAN_VERSION`.  No backend is in it: the
compiled ruleset is the same document on every backend, so one entry
serves them all (a calibrated backend's constants differ, and so do its
keys).  Bumping the version invalidates every cached entry, and two
processes racing on the same key both write the same bytes.

Entries are written and verified by :mod:`repro.io.envelope` — atomic
publish, checksummed envelope — so *any* corruption (truncation, bit
rot, a partial write from a crashed process) is caught positively
rather than by hoping the deserializer chokes.  A failed entry is
mapped onto :class:`~repro.errors.CacheCorruptionError`, logged at
debug level, evicted, and treated as a miss: a broken cache can slow a
run down but never change its results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import logging
import os
from collections.abc import Iterable
from pathlib import Path

from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledRuleset
from repro.errors import CacheCorruptionError
from repro.io import envelope
from repro.io.envelope import PLAN_VERSION
from repro.io.serialize import FORMAT_NAME, ruleset_from_json, ruleset_to_json

CACHE_DIR_ENV = "RAP_CACHE_DIR"
CACHE_MAX_MB_ENV = "RAP_CACHE_MAX_MB"

log = logging.getLogger(__name__)


def default_cache_dir() -> Path:
    """``$RAP_CACHE_DIR`` if set, else ``~/.cache/rap-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rap-repro"


def cache_budget_bytes() -> int | None:
    """The ``RAP_CACHE_MAX_MB`` budget in bytes, or None for unbounded.

    Unset, non-numeric, and non-positive values all mean "no bound" —
    a malformed budget must degrade to the historical behaviour, never
    fail a scan.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        log.debug("ignoring non-numeric %s=%r", CACHE_MAX_MB_ENV, raw)
        return None
    if mb <= 0:
        return None
    return int(mb * 1024 * 1024)


def enforce_cache_budget(
    root: str | Path | None = None, *, keep: str | Path | None = None
) -> int:
    """Evict least-recently-used cache files until under the size budget.

    Walks ``root`` (the whole cache tree, including the ``native/``
    shared-object subdirectory) and, while the total size exceeds
    ``RAP_CACHE_MAX_MB``, deletes files oldest-first by
    ``max(atime, mtime)`` — both :meth:`CompileCache.get` and the
    native loader ``os.utime`` entries they serve, so recency reflects
    *use*, not just creation.  ``keep`` (typically the entry just
    written) is never evicted even if it alone exceeds the budget: the
    artifact the caller is about to use must survive its own publish.

    Returns the number of files evicted.  All I/O is best-effort — a
    racing process deleting the same file is a no-op, and an unreadable
    directory disables enforcement rather than failing the run.
    """
    budget = cache_budget_bytes()
    if budget is None:
        return 0
    root = Path(root) if root is not None else default_cache_dir()
    keep_path = Path(keep).resolve() if keep is not None else None
    entries: list[tuple[float, int, Path]] = []
    total = 0
    try:
        walk = list(os.walk(root))
    except OSError:
        return 0
    for dirpath, _dirnames, filenames in walk:
        for name in filenames:
            if name.startswith("."):
                continue  # in-flight temp files are not evictable
            path = Path(dirpath) / name
            try:
                st = path.stat()
            except OSError:
                continue
            total += st.st_size
            if keep_path is not None and path.resolve() == keep_path:
                continue
            entries.append((max(st.st_atime, st.st_mtime), st.st_size, path))
    if total <= budget:
        return 0
    entries.sort(key=lambda item: item[0])
    evicted = 0
    for _used, size, path in entries:
        if total <= budget:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        evicted += 1
        log.debug("cache budget: evicted %s (%d bytes)", path.name, size)
    return evicted


def _json_default(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"unhashable cache-key component: {value!r}")


def ruleset_cache_key(
    patterns: Iterable[str], config: CompilerConfig | None = None
) -> str:
    """Content hash identifying one compile's exact inputs.

    Uses ``dataclasses.asdict`` over the compiler config so that any
    field added to :class:`CompilerConfig` (or to the nested
    :class:`HardwareConfig`) automatically becomes part of the key.
    """
    from repro.compiler.costmodel import active_constants

    config = config or CompilerConfig()
    constants = active_constants()
    doc = {
        "format": FORMAT_NAME,
        "version": PLAN_VERSION,
        # Mode selection scores against the calibrated cost constants,
        # so recalibrating must orphan entries compiled under the old
        # anchors (NFA/DFA splits are bit-identical, but the cached
        # artifact should match what a fresh compile would choose).
        "cost_constants": {**constants.numbers(), "source": constants.source},
        "patterns": list(patterns),
        "config": dataclasses.asdict(config),
    }
    if not all(isinstance(p, str) for p in doc["patterns"]):
        raise TypeError("the compile cache keys on string patterns only")
    canonical = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=_json_default
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class CompileCache:
    """A directory of compiled rulesets addressed by content hash.

    Entries are :mod:`repro.io.envelope` documents whose payload is the
    ruleset's JSON text: a read verifies content integrity
    byte-for-byte before touching the deserializer.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The last eviction's structured error (diagnostics/tests).
        self.last_corruption: CacheCorruptionError | None = None

    def path(self, key: str) -> Path:
        """Where a key's entry lives on disk."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> CompiledRuleset | None:
        """The cached ruleset, or None on a miss or a corrupted entry."""
        try:
            ruleset = self._load(
                self.path(key), lambda text: ruleset_from_json(json.loads(text))
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        if ruleset is not None:
            self.hits += 1
        return ruleset

    def _load(self, path: Path, decode):
        """One envelope's payload through ``decode``; a corrupt entry is
        evicted and reads as ``None``, an absent one raises."""
        try:
            value = decode(envelope.load(path))
        except envelope.EnvelopeError as err:
            return self._evict(path, err.reason)
        except (ValueError, KeyError, TypeError) as err:
            # Checksum passed but the payload is version-skewed or was
            # written by a buggy serializer: still an eviction.
            return self._evict(path, f"undeserializable payload: {err}")
        # Freshen the entry so LRU budget eviction sees it as used.
        with contextlib.suppress(OSError):
            os.utime(path)
        return value

    def _evict(self, path: Path, reason: str) -> None:
        """Drop a corrupt entry, mapping it onto CacheCorruptionError.

        Always returns None (a miss): corruption must never fail the
        run — the caller recompiles and overwrites the entry.
        """
        error = CacheCorruptionError(
            f"cache entry {path.name} corrupt ({reason}); "
            "evicted and recompiling",
            phase="cache",
        )
        log.debug("%s", error)
        self.last_corruption = error
        with contextlib.suppress(OSError):
            os.unlink(path)
        self.misses += 1
        self.evictions += 1
        return None

    def _store(self, path: Path, payload: str) -> Path:
        """Publish ``payload`` at ``path`` inside the cache's envelope."""
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope.dump(path, payload, format=FORMAT_NAME)
        return path

    def put(self, key: str, ruleset: CompiledRuleset) -> Path:
        """Atomically persist a compiled ruleset under ``key``."""
        path = self._store(self.path(key), json.dumps(ruleset_to_json(ruleset)))
        # Deterministic fault injection: a "truncate_cache" directive
        # corrupts this write so recovery paths are testable in CI.
        from repro.engine import faults

        faults.inject_cache_put(path)
        self.evictions += enforce_cache_budget(self.root, keep=path)
        return path

    # -- generic checksummed blobs ------------------------------------
    #
    # Small JSON side-documents (e.g. per-backend cost-model
    # calibration) share the cache directory and its integrity story:
    # the same envelope, the same corruption-is-a-miss policy, and the
    # same size budget.  Blobs live under blobs/<name>.json so they can
    # never collide with a content-hash ruleset key.

    def blob_path(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid blob name: {name!r}")
        return self.root / "blobs" / f"{name}.json"

    def get_blob(self, name: str):
        """The stored JSON value, or None on a miss or corruption."""
        try:
            return self._load(self.blob_path(name), json.loads)
        except FileNotFoundError:
            return None

    def put_blob(self, name: str, value) -> Path:
        """Atomically persist a JSON-serializable value under ``name``."""
        path = self._store(
            self.blob_path(name), json.dumps(value, sort_keys=True)
        )
        self.evictions += enforce_cache_budget(self.root, keep=path)
        return path


def cached_compile_ruleset(
    patterns: Iterable[str],
    config: CompilerConfig | None = None,
    cache: CompileCache | None = None,
) -> CompiledRuleset:
    """``compile_ruleset`` behind the on-disk cache.

    A warm hit skips parsing and compilation entirely (the JSON load is
    an order of magnitude cheaper); a miss compiles and populates the
    cache for the next run.
    """
    patterns = list(patterns)
    config = config or CompilerConfig()
    if cache is None:
        cache = CompileCache()
    key = ruleset_cache_key(patterns, config)
    ruleset = cache.get(key)
    if ruleset is None:
        ruleset = compile_ruleset(patterns, config)
        cache.put(key, ruleset)
    return ruleset
