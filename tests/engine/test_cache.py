"""Compile-cache tests: keying, invalidation, and corruption recovery."""

import json
import os

import pytest

from repro.compiler import CompilerConfig
from repro.engine import cache as cache_mod
from repro.engine.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    enforce_cache_budget,
    CompileCache,
    cached_compile_ruleset,
    default_cache_dir,
    ruleset_cache_key,
)
from repro.hardware.config import DEFAULT_CONFIG
from repro.io import envelope
from repro.io.serialize import ruleset_to_json
from tests.helpers import killed_at, persistence_trace

PATTERNS = ["abc", "a{4}b", "x[yz]w"]


class TestCacheKey:
    def test_key_is_stable(self):
        a = ruleset_cache_key(PATTERNS, CompilerConfig())
        b = ruleset_cache_key(list(PATTERNS), CompilerConfig())
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_key_tracks_patterns(self):
        base = ruleset_cache_key(PATTERNS)
        assert ruleset_cache_key(PATTERNS + ["q"]) != base
        # Order is part of the compile's identity (regex ids).
        assert ruleset_cache_key(list(reversed(PATTERNS))) != base

    def test_key_tracks_compiler_config(self):
        base = ruleset_cache_key(PATTERNS, CompilerConfig())
        assert (
            ruleset_cache_key(PATTERNS, CompilerConfig(bv_depth=32)) != base
        )
        assert (
            ruleset_cache_key(PATTERNS, CompilerConfig(unfold_threshold=3))
            != base
        )

    def test_key_tracks_hardware_config(self):
        import dataclasses

        base = ruleset_cache_key(PATTERNS, CompilerConfig())
        hw = dataclasses.replace(DEFAULT_CONFIG, clock_ghz=9.9)
        assert ruleset_cache_key(PATTERNS, CompilerConfig(hw=hw)) != base

    def test_key_tracks_format_version(self, monkeypatch):
        base = ruleset_cache_key(PATTERNS)
        monkeypatch.setattr(cache_mod, "PLAN_VERSION", cache_mod.PLAN_VERSION + 1)
        assert ruleset_cache_key(PATTERNS) != base

    def test_non_string_patterns_rejected(self):
        with pytest.raises(TypeError):
            ruleset_cache_key([b"abc"])


class TestCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "over"))
        assert default_cache_dir() == tmp_path / "over"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().name == "rap-repro"


class TestCompileCache:
    def test_miss_then_hit_round_trips(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = cached_compile_ruleset(PATTERNS, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        warm = cached_compile_ruleset(PATTERNS, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert ruleset_to_json(warm) == ruleset_to_json(cold)

    def test_different_config_different_entry(self, tmp_path):
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, CompilerConfig(), cache)
        cached_compile_ruleset(PATTERNS, CompilerConfig(bv_depth=32), cache)
        assert cache.misses == 2
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_one_cache_entry_serves_every_backend(self, tmp_path):
        """The compiled ruleset is one document on every backend, so the
        key names none: a native compile hits what python wrote."""
        from repro.core import use_backend

        cache = CompileCache(tmp_path)
        with use_backend("python"):
            cold = cached_compile_ruleset(PATTERNS, cache=cache)
        with use_backend("native"):
            warm = cached_compile_ruleset(PATTERNS, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert ruleset_to_json(warm) == ruleset_to_json(cold)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, cache=cache)
        monkeypatch.setattr(cache_mod, "PLAN_VERSION", cache_mod.PLAN_VERSION + 1)
        cached_compile_ruleset(PATTERNS, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = cached_compile_ruleset(PATTERNS, cache=cache)
        key = ruleset_cache_key(PATTERNS, CompilerConfig())
        cache.path(key).write_text("{ not json")
        again = cached_compile_ruleset(PATTERNS, cache=cache)
        assert ruleset_to_json(again) == ruleset_to_json(cold)
        # The bad entry was replaced with a good one.
        assert cache.get(key) is not None

    def test_truncated_json_recovers(self, tmp_path):
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, cache=cache)
        key = ruleset_cache_key(PATTERNS, CompilerConfig())
        full = cache.path(key).read_text()
        cache.path(key).write_text(full[: len(full) // 2])
        assert cache.get(key) is None
        assert not cache.path(key).exists()

    def test_wrong_document_recovers(self, tmp_path):
        cache = CompileCache(tmp_path)
        key = ruleset_cache_key(PATTERNS, CompilerConfig())
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text(json.dumps({"format": "other"}))
        assert cache.get(key) is None

    def test_put_is_atomic(self, tmp_path):
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, cache=cache)
        # No temp droppings survive a successful write.
        assert list(tmp_path.glob("*.tmp")) == []


    def test_put_killed_at_any_step_is_a_hit_or_a_miss(self, tmp_path):
        """Every crash point of ``put``: the next ``get`` is a miss or a
        hit with the whole ruleset — the old entry until the rename ran,
        the new one after — and the orphaned temp is never served."""
        from repro.compiler import compile_ruleset

        old, new = compile_ruleset(PATTERNS), compile_ruleset(PATTERNS + ["q+r"])
        key = ruleset_cache_key(PATTERNS, CompilerConfig())
        trace = persistence_trace(lambda: CompileCache(tmp_path / "c").put(key, new))
        names = [name for name, _ in trace]
        assert "fsync" not in names  # a cache entry can be recompiled
        for overwrite in (False, True):
            for k in range(len(trace)):
                cache = CompileCache(tmp_path / f"killed-{overwrite}-{k}")
                if overwrite:
                    cache.put(key, old)
                killed_at(k, lambda cache=cache: cache.put(key, new))
                survivor = CompileCache(cache.root)
                found = survivor.get(key)
                if k > names.index("replace"):
                    assert ruleset_to_json(found) == ruleset_to_json(new), k
                elif overwrite:
                    assert ruleset_to_json(found) == ruleset_to_json(old), k
                else:
                    assert found is None and survivor.misses == 1, k
                assert survivor.evictions == 0


class TestChecksumIntegrity:
    def entry(self, cache):
        cached_compile_ruleset(PATTERNS, cache=cache)
        return cache.path(ruleset_cache_key(PATTERNS, CompilerConfig()))

    def test_entries_carry_a_checksum(self, tmp_path):
        cache = CompileCache(tmp_path)
        document = json.loads(self.entry(cache).read_text())
        assert document["entry_version"] == envelope.STORE_VERSION
        assert len(document["checksum"]) == 64
        assert isinstance(document["payload"], str)

    def test_payload_tamper_is_positively_detected(self, tmp_path):
        # Flip one byte of the payload while keeping the envelope (and
        # even the payload itself) valid JSON: only the checksum can
        # catch this, the deserializer alone would not.
        cache = CompileCache(tmp_path)
        path = self.entry(cache)
        document = json.loads(path.read_text())
        document["payload"] = document["payload"].replace(
            '"abc"', '"abq"', 1
        )
        path.write_text(json.dumps(document))
        assert cache.get(path.stem) is None
        assert cache.evictions == 1
        assert not path.exists()
        err = cache.last_corruption
        assert err is not None
        assert "checksum mismatch" in str(err)
        assert err.phase == "cache"

    def test_pre_envelope_entry_is_a_corrupt_miss(self, tmp_path):
        # An entry from before the checksummed envelope (a bare ruleset
        # document) must evict, not crash.
        cache = CompileCache(tmp_path)
        path = self.entry(cache)
        document = json.loads(path.read_text())
        path.write_text(document["payload"])
        assert cache.get(path.stem) is None
        assert cache.evictions == 1

    def test_eviction_counts_and_recovers(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = cached_compile_ruleset(PATTERNS, cache=cache)
        path = cache.path(ruleset_cache_key(PATTERNS, CompilerConfig()))
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        again = cached_compile_ruleset(PATTERNS, cache=cache)
        assert ruleset_to_json(again) == ruleset_to_json(cold)
        assert cache.evictions == 1
        assert (cache.hits, cache.misses) == (0, 2)
        # The rewritten entry verifies clean.
        assert cached_compile_ruleset(PATTERNS, cache=cache) is not None
        assert cache.hits == 1


class TestFaultInjectedCachePuts:
    def test_truncate_cache_directive_round_trips(self, tmp_path):
        # The injected half-write is caught by the checksum on the next
        # read, evicted, and recompiled — results never change.
        from repro.engine import faults

        faults.install_plan("truncate_cache@0")
        try:
            cache = CompileCache(tmp_path)
            cold = cached_compile_ruleset(PATTERNS, cache=cache)
            # Ordinal 0 write was truncated on disk.
            again = cached_compile_ruleset(PATTERNS, cache=cache)
            assert ruleset_to_json(again) == ruleset_to_json(cold)
            assert cache.evictions == 1
            # Ordinal 1 rewrite was clean: now it hits.
            cached_compile_ruleset(PATTERNS, cache=cache)
            assert cache.hits == 1
        finally:
            faults.reset()


class TestCacheBudget:
    """``RAP_CACHE_MAX_MB``: LRU size-bound eviction over the cache tree."""

    def _fill(self, root, names, size=1000):
        root.mkdir(parents=True, exist_ok=True)
        for i, name in enumerate(names):
            path = root / name
            path.write_bytes(b"x" * size)
            # Strictly increasing recency, oldest first.
            os.utime(path, (1_000_000 + i, 1_000_000 + i))

    def test_unset_budget_is_unbounded(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
        self._fill(tmp_path, ["a.json", "b.json"])
        assert enforce_cache_budget(tmp_path) == 0
        assert len(list(tmp_path.iterdir())) == 2

    def test_malformed_budget_is_unbounded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "lots")
        self._fill(tmp_path, ["a.json"])
        assert enforce_cache_budget(tmp_path) == 0

    def test_evicts_oldest_first(self, tmp_path, monkeypatch):
        # Budget fits two 1000-byte files: the oldest two of four go.
        monkeypatch.setenv(CACHE_MAX_MB_ENV, str(2000 / (1024 * 1024)))
        self._fill(tmp_path, ["a.json", "b.json", "c.json", "d.json"])
        assert enforce_cache_budget(tmp_path) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json",
            "d.json",
        ]

    def test_keep_survives_even_over_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_MB_ENV, str(500 / (1024 * 1024)))
        self._fill(tmp_path, ["old.json", "kept.json"])
        evicted = enforce_cache_budget(tmp_path, keep=tmp_path / "kept.json")
        assert evicted == 1
        assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]

    def test_covers_native_subdir(self, tmp_path, monkeypatch):
        # The native/ shared objects share the budget with entries.
        monkeypatch.setenv(CACHE_MAX_MB_ENV, str(2000 / (1024 * 1024)))
        self._fill(tmp_path, ["a.json", "b.json"])
        self._fill(tmp_path / "native", ["old.so"], size=1000)
        os.utime(tmp_path / "native" / "old.so", (999_999, 999_999))
        assert enforce_cache_budget(tmp_path) == 1
        assert not (tmp_path / "native" / "old.so").exists()

    def test_in_flight_temp_files_are_not_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_MB_ENV, str(100 / (1024 * 1024)))
        self._fill(tmp_path, [".partial-write.tmp"])
        assert enforce_cache_budget(tmp_path) == 0
        assert (tmp_path / ".partial-write.tmp").exists()

    def test_put_surfaces_evictions(self, tmp_path, monkeypatch):
        # A put that pushes the tree over budget evicts older entries
        # (never its own) and counts them on the cache object.
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, cache=cache)
        first = cache.path(ruleset_cache_key(PATTERNS, CompilerConfig()))
        os.utime(first, (1_000_000, 1_000_000))
        monkeypatch.setenv(
            CACHE_MAX_MB_ENV, str(first.stat().st_size * 1.5 / (1024 * 1024))
        )
        cached_compile_ruleset(["different", "rules"], cache=cache)
        assert cache.evictions == 1
        assert not first.exists()
        second = cache.path(
            ruleset_cache_key(["different", "rules"], CompilerConfig())
        )
        assert second.exists()

    def test_get_freshens_recency(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        cached_compile_ruleset(PATTERNS, cache=cache)
        entry = cache.path(ruleset_cache_key(PATTERNS, CompilerConfig()))
        os.utime(entry, (1_000_000, 1_000_000))
        assert cached_compile_ruleset(PATTERNS, cache=cache) is not None
        assert entry.stat().st_mtime > 1_000_000


class TestBlobStore:
    """Checksummed JSON side-documents (calibration persistence)."""

    def test_round_trip(self, tmp_path):
        cache = CompileCache(tmp_path)
        value = {"version": 1, "constants": {"nfa_base": 1.0}}
        cache.put_blob("costmodel-fused", value)
        assert cache.get_blob("costmodel-fused") == value

    def test_miss_is_none(self, tmp_path):
        assert CompileCache(tmp_path).get_blob("absent") is None

    def test_corruption_is_a_miss_and_eviction(self, tmp_path):
        cache = CompileCache(tmp_path)
        path = cache.put_blob("costmodel-fused", {"k": 1})
        document = json.loads(path.read_text())
        document["payload"] = document["payload"].replace("1", "2")
        path.write_text(json.dumps(document))
        assert cache.get_blob("costmodel-fused") is None
        assert cache.evictions == 1
        assert not path.exists()

    def test_invalid_names_rejected(self, tmp_path):
        cache = CompileCache(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                cache.blob_path(bad)

    def test_blobs_never_collide_with_entries(self, tmp_path):
        cache = CompileCache(tmp_path)
        key = ruleset_cache_key(PATTERNS, CompilerConfig())
        assert cache.blob_path(key) != cache.path(key)
