"""Native compiled backend: bit-identity, probe fallback, fingerprints.

The ``native`` backend generates specialized C per compiled ruleset and
runs it through ``cffi``/``ctypes``; its entire contract is that it is
*only* faster — matches, StepStats-derived counters, the priced energy
ledger, checkpoints, and the input-parallel seam protocol must be
byte-identical to the fused (and pure-Python) tiers.  This suite drives
random regexes and deterministic seam workloads through native/fused/
python triples, proves the no-compiler probe falls back silently with
an unchanged ``scan_fingerprint``, and pins the fingerprint *fold* when
native actually attaches (a checkpoint names the kernel that wrote it).
"""

import dataclasses
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import (
    available_backends,
    backend_names,
    resolve_backend,
    resolve_backend_with_reason,
    use_backend,
)
from repro.core.native import (
    NATIVE_DISABLE_ENV,
    native_unavailable_reason,
)
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.hardware.config import DEFAULT_CONFIG
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.simulators.rap import RAPSimulator

from tests.helpers import inputs, regex_trees

NATIVE = "native" in available_backends()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native backend not available (no C toolchain?)"
)


def scannable_trees(max_leaves: int = 6):
    return regex_trees(max_leaves=max_leaves).map(
        lambda t: ast.concat(ast.lit(CharClass.of("a")), t)
    )


def _assert_results_identical(got, want):
    assert got.matches == want.matches
    assert got.energy_breakdown_pj == want.energy_breakdown_pj
    assert dataclasses.asdict(got.metrics) == dataclasses.asdict(want.metrics)


def _run(ruleset, data: bytes, backend: str):
    with use_backend(backend):
        return RAPSimulator(DEFAULT_CONFIG).run(ruleset, data)


class TestProbeAndFallback:
    def test_native_is_registered(self):
        assert "native" in backend_names()

    @needs_native
    def test_native_resolves_when_available(self):
        assert resolve_backend("native") == "native"
        assert resolve_backend_with_reason("native") == ("native", None)

    def test_disable_env_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert "disabled" in native_unavailable_reason()
        assert resolve_backend("native") == "fused"
        resolved, reason = resolve_backend_with_reason("native")
        assert resolved == "fused"
        assert "native unavailable" in reason
        assert "disabled" in reason

    def test_unknown_env_backend_reports_reason(self, monkeypatch):
        monkeypatch.setenv("RAP_BACKEND", "warp-drive")
        resolved, reason = resolve_backend_with_reason()
        assert resolved == "python"
        assert "warp-drive" in reason

    def test_explicit_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            resolve_backend_with_reason("warp-drive")

    def test_available_backend_has_no_reason(self):
        resolved, reason = resolve_backend_with_reason("python")
        assert resolved == "python"
        assert reason is None


# Patterns that land on every execution tier at once: LNFA keywords,
# an NFA alternation, a DFA-eligible literal run, and an NBVA counter.
MIXED_PATTERNS = ["needle", "marker", "foo[0-9]*bar", "ab{10,20}c", "x(y|z)w"]


def _mixed_data(n: int = 30000, seed: int = 23) -> bytes:
    rng = random.Random(seed)
    base = bytearray(
        rng.choice(b"\x00\x00\x00 abfnoxyzw") for _ in range(n)
    )
    for word in (b"needle", b"marker", b"foo42bar", b"a" + b"b" * 12 + b"c",
                 b"xyw", b"xzw"):
        for _ in range(15):
            pos = rng.randrange(n - len(word))
            base[pos : pos + len(word)] = word
    return bytes(base)


@needs_native
class TestNativeDifferential:
    """native == fused == python on matches, counters, and energy."""

    @settings(max_examples=25, deadline=None)
    @given(tree=scannable_trees(max_leaves=6), data=inputs(max_size=48))
    def test_random_regexes(self, tree, data):
        pattern = tree.to_pattern()
        ruleset = compile_ruleset([pattern])
        assume(not ruleset.rejected)
        want = _run(ruleset, data, "python")
        _assert_results_identical(_run(ruleset, data, "fused"), want)
        _assert_results_identical(_run(ruleset, data, "native"), want)

    def test_mixed_mode_ruleset(self):
        ruleset = compile_ruleset(MIXED_PATTERNS)
        assert not ruleset.rejected
        data = _mixed_data()
        want = _run(ruleset, data, "fused")
        _assert_results_identical(_run(ruleset, data, "native"), want)
        _assert_results_identical(_run(ruleset, data, "python"), want)

    @pytest.mark.parametrize("mode", [CompiledMode.NFA, CompiledMode.DFA])
    def test_forced_unit_tiers(self, mode):
        """The gather and DFA unit kernels, not just the lane machine."""
        ruleset = compile_ruleset(
            ["needle", "foo[0-9]*bar", "x(y|z)w"],
            CompilerConfig(forced_mode=mode),
        )
        assert not ruleset.rejected
        data = _mixed_data(seed=31)
        want = _run(ruleset, data, "fused")
        _assert_results_identical(_run(ruleset, data, "native"), want)

    def test_engine_scan_matches_fused(self):
        ruleset = compile_ruleset(MIXED_PATTERNS)
        data = _mixed_data(seed=37)
        want = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(ruleset, data)
        got = BatchEngine(
            EngineConfig(jobs=1, backend="native", use_cache=False)
        ).scan(ruleset, data)
        _assert_results_identical(got, want)


@needs_native
class TestNativeSeams:
    """Input-parallel seams and checkpoint state under native."""

    def test_input_jobs_matches_serial(self):
        ruleset = compile_ruleset(MIXED_PATTERNS)
        data = _mixed_data(seed=41)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(ruleset, data)
        got = BatchEngine(
            EngineConfig(
                jobs=1,
                input_jobs=2,
                backend="native",
                min_chunk_bytes=512,
                use_cache=False,
            )
        ).scan(ruleset, data)
        _assert_results_identical(got, serial)

    def test_checkpoint_at_a_seam_resumes_identically(self, tmp_path):
        """Snapshot mid-stream with input_jobs=2 on native, restore,
        finish: results equal the uninterrupted fused scan."""
        ruleset = compile_ruleset(MIXED_PATTERNS)
        data = _mixed_data(seed=43)
        plain = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(ruleset, data)
        with use_backend("native"):
            sim = RAPSimulator(DEFAULT_CONFIG)
            mapping = sim.build_mapping(ruleset, bin_size=None)
            scan = DurableScan(
                ruleset,
                mapping,
                DEFAULT_CONFIG,
                input_jobs=2,
                min_chunk_bytes=512,
            )
            store = CheckpointStore(tmp_path)
            scan.feed(data[: len(data) // 2], at_end=False)
            store.write(scan.snapshot(), scan.offset)

            resumed = DurableScan(
                ruleset,
                mapping,
                DEFAULT_CONFIG,
                input_jobs=2,
                min_chunk_bytes=512,
            )
            resumed.restore(store.load_latest(), data)
            assert resumed.offset == len(data) // 2
            resumed.feed(data[resumed.offset :], at_end=True)
            got = sim.run_from_activity(ruleset, resumed.finish(), mapping)
        _assert_results_identical(got, plain)

    def test_sigkill_mid_scan_then_resume_matches_fused_golden(
        self, tmp_path
    ):
        """Golden run on fused; SIGKILLed + resumed run on native; the
        printed matches (and float energy) must be byte-identical."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(MIXED_PATTERNS) + "\n")
        stream = tmp_path / "input.bin"
        stream.write_bytes(_mixed_data(8000, seed=47))
        ckpts = tmp_path / "ckpts"
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("RAP_FAULT_PLAN", None)
        base = [
            sys.executable,
            "-m",
            "repro",
            "scan",
            "--patterns",
            str(rules),
            str(stream),
            "--no-cache",
        ]
        durable = [
            *base,
            "--backend",
            "native",
            "--checkpoint-dir",
            str(ckpts),
            "--checkpoint-every",
            "1000",
        ]
        golden = subprocess.run(
            [*base, "--backend", "fused"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo,
        )
        assert golden.returncode == 0, golden.stderr
        killed = subprocess.run(
            durable,
            capture_output=True,
            text=True,
            env=dict(env, RAP_FAULT_PLAN="kill@2"),
            cwd=repo,
        )
        assert killed.returncode in (-signal.SIGKILL, 137)
        assert list(ckpts.glob("ckpt-*.json")), "no checkpoint survived"
        resumed = subprocess.run(
            [*durable, "--resume"],
            capture_output=True,
            text=True,
            env=dict(env, RAP_FAULT_PLAN=""),
            cwd=repo,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == golden.stdout
        assert "resumed from checkpoint" in resumed.stderr


@needs_native
class TestFingerprintFold:
    def _fingerprint(self) -> str:
        ruleset = compile_ruleset(["needle", "marker"])
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        return DurableScan(ruleset, mapping, DEFAULT_CONFIG).fingerprint

    def test_disabled_native_keeps_fused_fingerprint(self, monkeypatch):
        """The silent-fallback contract: with the probe failing, a scan
        requested on native writes checkpoints a fused scan can resume
        (and vice versa) — the fingerprint must not change."""
        with use_backend("fused"):
            fused_fp = self._fingerprint()
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        with use_backend("native"):  # resolves to fused via the probe
            assert resolve_backend() == "fused"
            assert self._fingerprint() == fused_fp

    def test_attached_native_folds_into_fingerprint(self):
        """When the native kernel actually executes, checkpoints name
        it: resuming under a different tier is an explicit rebind, the
        same contract as ``split_layout``."""
        with use_backend("fused"):
            fused_fp = self._fingerprint()
        with use_backend("native"):
            native_fp = self._fingerprint()
        assert native_fp != fused_fp

    def test_native_fingerprint_is_stable(self):
        with use_backend("native"):
            first = self._fingerprint()
            second = self._fingerprint()
        assert first == second
