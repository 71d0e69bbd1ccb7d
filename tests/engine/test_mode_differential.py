"""Forced-mode differential suite: ``--mode dfa`` == ``--mode nfa``.

The DFA tier's contract is bit-identity: a regex forced onto the
subset-constructed table must produce the same matches, the same cycle
and active-state counts, the same energy ledger, and the same durable
checkpoints as the same regex on the NFA mask stack.  The hypothesis
suites drive random regexes and inputs through both modes on every
backend; the deterministic tests target the seams where the fused
executor could diverge — literal-prefilter cold skips and
checkpoint-at-a-seam resume under ``--input-jobs 2``.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.automata.reference import ReferenceMatcher
from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import available_backends, use_backend
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator

from repro.regex import ast
from repro.regex.charclass import CharClass

from tests.helpers import inputs, regex_trees

FUSED = "fused" in available_backends()


def scannable_trees(max_leaves: int = 6):
    """Random trees prefixed with a literal: never nullable, so almost
    every draw is DFA-eligible (only subset blowups get assumed away)."""
    return regex_trees(max_leaves=max_leaves).map(
        lambda t: ast.concat(ast.lit(CharClass.of("a")), t)
    )

needs_fused = pytest.mark.skipif(not FUSED, reason="fused backend not available")


def _forced(patterns, mode: CompiledMode):
    ruleset = compile_ruleset(patterns, CompilerConfig(forced_mode=mode))
    assert not ruleset.rejected, ruleset.rejected
    return ruleset


def _assert_results_identical(got, want):
    assert got.matches == want.matches
    assert got.energy_breakdown_pj == want.energy_breakdown_pj
    assert dataclasses.asdict(got.metrics) == dataclasses.asdict(want.metrics)


def _dfa_equals_nfa(patterns, data: bytes, backend: str):
    nfa_rs = _forced(patterns, CompiledMode.NFA)
    dfa_rs = _forced(patterns, CompiledMode.DFA)
    with use_backend(backend):
        sim = RAPSimulator(DEFAULT_CONFIG)
        want = sim.run(nfa_rs, data)
        got = sim.run(dfa_rs, data)
    _assert_results_identical(got, want)
    return want


def _dfa_eligible(pattern: str) -> bool:
    ruleset = compile_ruleset(
        [pattern], CompilerConfig(forced_mode=CompiledMode.DFA)
    )
    return not ruleset.rejected


class TestRandomRegexes:
    @settings(max_examples=60, deadline=None)
    @given(tree=scannable_trees(max_leaves=6), data=inputs(max_size=48))
    def test_python_backend(self, tree, data):
        pattern = tree.to_pattern()
        assume(_dfa_eligible(pattern))
        result = _dfa_equals_nfa([pattern], data, "python")
        # Both modes also agree with the reference oracle.
        assert result.matches[0] == ReferenceMatcher(tree).find_matches(data)

    @needs_fused
    @settings(max_examples=60, deadline=None)
    @given(tree=scannable_trees(max_leaves=6), data=inputs(max_size=48))
    def test_fused_backend(self, tree, data):
        pattern = tree.to_pattern()
        assume(_dfa_eligible(pattern))
        _dfa_equals_nfa([pattern], data, "fused")

    @needs_fused
    @settings(max_examples=30, deadline=None)
    @given(
        trees=st.lists(scannable_trees(max_leaves=5), min_size=2, max_size=6),
        data=inputs(max_size=64),
    )
    def test_fused_multi_regex_rulesets(self, trees, data):
        # Drop ineligible draws instead of rejecting the whole example:
        # nullable trees are common enough to starve an assume(all(...)).
        patterns = [
            p for p in (t.to_pattern() for t in trees) if _dfa_eligible(p)
        ]
        assume(len(patterns) >= 2)
        _dfa_equals_nfa(patterns, data, "fused")


# Low-activity keywordish patterns (all DFA-eligible, prefilterable) for
# the seam tests; the cold filler byte is outside every hot class.
SEAM_PATTERNS = ["needle", "marker", "ab*c", "foo[0-9]*bar"]


def _seam_data(n: int = 24000, seed: int = 11) -> bytes:
    rng = random.Random(seed)
    base = bytearray(b"\x00" * n)
    for word in (b"needle", b"marker", b"abbbc", b"foo42bar"):
        for _ in range(20):
            pos = rng.randrange(n - len(word))
            base[pos : pos + len(word)] = word
    return bytes(base)


@needs_fused
class TestFusedSeams:
    def test_prefilter_cold_skip_seam(self):
        # A long cold run no pattern can start in: the literal prefilter
        # skips it and the input-parallel seam lands mid-skip.
        cold = b"\x00" * 5000
        data = b"needle" + cold + b"abbc" + cold + b"foo7bar"
        nfa_rs = _forced(SEAM_PATTERNS, CompiledMode.NFA)
        dfa_rs = _forced(SEAM_PATTERNS, CompiledMode.DFA)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(nfa_rs, data)
        split_engine = BatchEngine(
            EngineConfig(
                jobs=1,
                input_jobs=2,
                backend="fused",
                min_chunk_bytes=64,
                use_cache=False,
            )
        )
        _assert_results_identical(split_engine.scan(dfa_rs, data), serial)
        _assert_results_identical(split_engine.scan(nfa_rs, data), serial)

    @pytest.mark.parametrize("input_jobs", [2, 5])
    def test_split_scan_matches_serial_nfa(self, input_jobs):
        data = _seam_data()
        nfa_rs = _forced(SEAM_PATTERNS, CompiledMode.NFA)
        dfa_rs = _forced(SEAM_PATTERNS, CompiledMode.DFA)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(nfa_rs, data)
        got = BatchEngine(
            EngineConfig(
                jobs=1,
                input_jobs=input_jobs,
                backend="fused",
                min_chunk_bytes=512,
                use_cache=False,
            )
        ).scan(dfa_rs, data)
        _assert_results_identical(got, serial)

    def test_checkpoint_at_a_seam_resumes_identically(self, tmp_path):
        # Snapshot mid-stream, restore into a fresh scan, and finish:
        # the DFA-mode result must equal the uninterrupted NFA-mode scan.
        data = _seam_data(seed=13)
        nfa_rs = _forced(SEAM_PATTERNS, CompiledMode.NFA)
        dfa_rs = _forced(SEAM_PATTERNS, CompiledMode.DFA)
        with use_backend("fused"):
            sim = RAPSimulator(DEFAULT_CONFIG)
            plain = BatchEngine(
                EngineConfig(jobs=1, use_cache=False)
            ).scan(nfa_rs, data)

            mapping = sim.build_mapping(dfa_rs, bin_size=None)
            scan = DurableScan(dfa_rs, mapping, DEFAULT_CONFIG)
            store = CheckpointStore(tmp_path)
            scan.feed(data[: len(data) // 2], at_end=False)
            store.write(scan.snapshot(), scan.offset)

            resumed = DurableScan(dfa_rs, mapping, DEFAULT_CONFIG)
            resumed.restore(store.load_latest(), data)
            assert resumed.offset == len(data) // 2
            resumed.feed(data[resumed.offset :], at_end=True)
            got = sim.run_from_activity(dfa_rs, resumed.finish(), mapping)
        _assert_results_identical(got, plain)

    def test_durable_engine_path_forced_dfa(self, tmp_path):
        data = _seam_data(seed=17)
        nfa_rs = _forced(SEAM_PATTERNS, CompiledMode.NFA)
        dfa_rs = _forced(SEAM_PATTERNS, CompiledMode.DFA)
        plain = BatchEngine(
            EngineConfig(jobs=1, backend="fused", use_cache=False)
        ).scan(nfa_rs, data)
        outcome = BatchEngine(
            EngineConfig(
                jobs=1,
                input_jobs=2,
                backend="fused",
                min_chunk_bytes=512,
                use_cache=False,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_bytes=4096,
            )
        ).durable_scan(dfa_rs, data)
        assert outcome.ok
        _assert_results_identical(outcome.result, plain)


class TestAutoSelection:
    def test_auto_picks_dfa_for_low_activity_workload(self):
        # A seeded keyword-with-gap workload: unbounded stars keep it
        # off NBVA/LNFA, single-char labels keep the predicted activity
        # low, so the cost model sends it to the DFA tier.
        rng = random.Random(42)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        words = [
            "".join(rng.choice(alphabet) for _ in range(6)) for _ in range(12)
        ]
        patterns = [f"{w[:3]}{w[3]}*{w[4:]}" for w in words]
        ruleset = compile_ruleset(patterns)
        modes = [r.mode for r in ruleset]
        assert CompiledMode.DFA in modes
        assert modes.count(CompiledMode.DFA) >= len(patterns) // 2

    def test_engine_mode_knob_routes_compiles(self, monkeypatch):
        from repro.compiler.costmodel import MODE_ENV

        monkeypatch.delenv(MODE_ENV, raising=False)
        engine = BatchEngine(EngineConfig(use_cache=False, mode="nfa"))
        ruleset = engine.compile(["ab*c", "needle"])
        assert all(r.mode is CompiledMode.NFA for r in ruleset)
        # Env route: auto defers to RAP_MODE.
        monkeypatch.setenv(MODE_ENV, "dfa")
        engine = BatchEngine(EngineConfig(use_cache=False))
        ruleset = engine.compile(["ab*c", "needle"])
        assert all(r.mode is CompiledMode.DFA for r in ruleset)

    def test_engine_mode_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="warp-speed")

    def test_explain_reports_choice_and_costs(self, monkeypatch):
        from repro.compiler.costmodel import MODE_ENV

        monkeypatch.delenv(MODE_ENV, raising=False)
        engine = BatchEngine(EngineConfig(use_cache=False))
        entries = engine.explain(["ab*c", "needle", "a(b"])
        by_pattern = {e.pattern: e for e in entries}
        star = by_pattern["ab*c"]
        assert star.trace.mode is CompiledMode.DFA
        assert star.trace.costs["dfa"] < star.trace.costs["nfa"]
        assert by_pattern["needle"].trace.mode is CompiledMode.LNFA
        assert by_pattern["a(b"].error is not None
