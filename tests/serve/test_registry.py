"""Tenant-namespace tests: fingerprints, generations, reload semantics."""

import pytest

from repro.errors import CompileError, ServeError
from repro.io.serialize import scan_fingerprint
from repro.serve.registry import TenantRegistry
from tests.serve.util import ALT_PATTERNS, PATTERNS


@pytest.fixture()
def registry():
    # Namespace state mutates under reload: every test gets its own.
    return TenantRegistry()


class TestCompile:
    def test_fingerprint_is_deterministic(self, registry):
        first, _, fp1 = registry.compile(PATTERNS)
        second, _, fp2 = registry.compile(list(PATTERNS))
        assert fp1 == fp2
        assert fp1 == scan_fingerprint(first, registry.hw, registry.bin_size)
        assert fp2 == scan_fingerprint(second, registry.hw, registry.bin_size)

    def test_distinct_patterns_distinct_fingerprints(self, registry):
        _, _, fp1 = registry.compile(PATTERNS)
        _, _, fp2 = registry.compile(ALT_PATTERNS)
        assert fp1 != fp2

    def test_empty_patterns_rejected(self, registry):
        with pytest.raises(CompileError):
            registry.compile([])

    def test_invalid_pattern_rejected(self, registry):
        with pytest.raises(CompileError):
            registry.compile(["a("])


class TestNamespace:
    def test_open_installs_generation_one(self, registry):
        entry = registry.open("t", PATTERNS)
        assert entry.generation == 1
        assert entry.patterns == tuple(PATTERNS)
        assert registry.get("t") is entry
        assert registry.tenants() == ["t"]

    def test_open_reuses_matching_generation(self, registry):
        first = registry.open("t", PATTERNS)
        assert registry.open("t", list(PATTERNS)) is first

    def test_reload_bumps_generation(self, registry):
        first = registry.open("t", PATTERNS)
        second = registry.reload("t", ALT_PATTERNS)
        assert second.generation == first.generation + 1
        assert second.fingerprint != first.fingerprint
        assert registry.get("t") is second

    def test_identical_reload_is_a_noop(self, registry):
        first = registry.open("t", PATTERNS)
        again = registry.reload("t", list(PATTERNS))
        assert again is first  # no generation bump, no session rotation

    def test_failed_reload_preserves_current_generation(self, registry):
        first = registry.open("t", PATTERNS)
        with pytest.raises(CompileError):
            registry.reload("t", ["a("])
        assert registry.get("t") is first

    def test_tenants_are_isolated(self, registry):
        a = registry.open("a", PATTERNS)
        b = registry.open("b", ALT_PATTERNS)
        registry.reload("a", ALT_PATTERNS)
        assert registry.get("b") is b
        assert registry.get("a") is not a
        assert registry.tenants() == ["a", "b"]

    def test_entry_for_missing_tenant_raises(self, registry):
        with pytest.raises(ServeError, match="ghost"):
            registry.entry_for("ghost", 1)

    def test_get_missing_tenant_is_none(self, registry):
        assert registry.get("nobody") is None
