"""Per-tenant ruleset namespaces with hot reload.

The RAP paper's reconfigurability story, applied to a service: each
tenant owns a ruleset namespace that can be swapped on the fly.  A
:class:`TenantRegistry` compiles through the engine's keyed on-disk
compile cache (so two workers — or a worker resuming another worker's
session — deterministically rebuild the identical ruleset), binds it
(hardware mapping + fused plan, :func:`~repro.simulators.rap.bind`) once
per generation, and hands out immutable :class:`TenantEntry` snapshots.

Hot reload is generation-based: ``reload`` compiles the *new*
fingerprint (in the server this runs on an executor thread so the
event loop keeps serving), and only then bumps the tenant's
generation.  Live sessions notice the newer generation at their next
segment boundary and rotate onto it without dropping the connection; a
reload that compiles to the identical ruleset fingerprint is a no-op
(``swapped=False``) so spurious reloads never perturb in-flight scans.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass

from repro.compiler.program import CompiledRuleset
from repro.engine.batch import BatchEngine
from repro.errors import CompileError, ServeError
from repro.io.serialize import ruleset_to_json
from repro.mapping.mapper import Mapping
from repro.simulators.rap import bind


def ruleset_fingerprint(ruleset: CompiledRuleset) -> str:
    """Content hash of a compiled ruleset (reload no-op detection)."""
    doc = json.dumps(
        ruleset_to_json(ruleset), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True)
class TenantEntry:
    """One immutable generation of one tenant's namespace."""

    tenant: str
    generation: int
    patterns: tuple[str, ...]
    ruleset: CompiledRuleset
    mapping: Mapping
    fingerprint: str

    @property
    def plan(self):
        """The generation's bound fused plan: every session scanning
        this generation steps this one object (fused/native only)."""
        return bind(self.ruleset, self.mapping.hw, mapping=self.mapping).plan


class TenantRegistry:
    """The live tenant -> ruleset namespace map of one worker."""

    def __init__(
        self,
        engine: BatchEngine | None = None,
        hw=None,
        bin_size: int | None = None,
    ):
        from repro.hardware.config import DEFAULT_CONFIG

        self.engine = engine or BatchEngine()
        self.hw = hw or DEFAULT_CONFIG
        self.bin_size = bin_size
        self._entries: dict[str, TenantEntry] = {}
        self._lock = threading.Lock()

    def compile(
        self, patterns
    ) -> tuple[CompiledRuleset, Mapping, str]:
        """Compile patterns (through the keyed cache) and map them.

        Raises :class:`~repro.errors.CompileError` (already a
        structured :class:`ReproError`) when a pattern is rejected; the
        server maps that onto an ``error`` frame instead of a session.
        """
        patterns = list(patterns)
        if not patterns:
            raise CompileError("a session needs at least one pattern")
        ruleset = self.engine.compile(patterns, on_error="fail")
        mapping = bind(ruleset, self.hw, self.bin_size).mapping
        return ruleset, mapping, ruleset_fingerprint(ruleset)

    def get(self, tenant: str) -> TenantEntry | None:
        """The tenant's current generation, or ``None``."""
        with self._lock:
            return self._entries.get(tenant)

    def open(self, tenant: str, patterns) -> TenantEntry:
        """The entry an ``open`` frame binds to.

        Reuses the current generation when the requested patterns match
        it; otherwise compiles and installs the patterns as the
        tenant's (possibly first) generation.
        """
        patterns = tuple(patterns)
        current = self.get(tenant)
        if current is not None and current.patterns == patterns:
            return current
        return self.reload(tenant, patterns)

    def reload(self, tenant: str, patterns) -> TenantEntry:
        """Compile ``patterns`` and install them as a new generation.

        Compilation happens *before* the namespace mutates — a ruleset
        that fails to compile leaves the tenant's current generation
        untouched (sessions keep scanning).  A reload whose compiled
        fingerprint equals the current one returns the current entry
        unchanged: no generation bump, no session rotation.
        """
        patterns = tuple(patterns)
        ruleset, mapping, fingerprint = self.compile(patterns)
        with self._lock:
            current = self._entries.get(tenant)
            if current is not None and current.fingerprint == fingerprint:
                return current
            entry = TenantEntry(
                tenant=tenant,
                generation=(current.generation + 1) if current else 1,
                patterns=patterns,
                ruleset=ruleset,
                mapping=mapping,
                fingerprint=fingerprint,
            )
            self._entries[tenant] = entry
            return entry

    def entry_for(self, tenant: str, generation: int) -> TenantEntry:
        """The tenant's current entry, asserting it is ``generation``.

        Sessions resumed from a checkpoint carry the generation they
        were scanning under; a mismatch with what this helper returns
        is not an error — the session simply rotates at its next
        segment boundary — but a missing tenant is.
        """
        entry = self.get(tenant)
        if entry is None:
            raise ServeError(
                f"tenant {tenant!r} has no loaded ruleset", phase="serve"
            )
        return entry

    def tenants(self) -> list[str]:
        """The loaded tenant names (diagnostics)."""
        with self._lock:
            return sorted(self._entries)


__all__ = ["TenantEntry", "TenantRegistry", "ruleset_fingerprint"]
