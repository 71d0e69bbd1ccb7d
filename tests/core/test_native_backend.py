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
import json
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.automata.glushkov import (
    EdgeAction,
    GlushkovError,
    ReadKind,
    build_automaton,
)
from repro.automata.nbva import NBVASimulator, NBVAState, NBVAStats
from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import (
    available_backends,
    backend_names,
    resolve_backend,
    resolve_backend_with_reason,
    use_backend,
)
from repro.core import codegen
from repro.core.native import (
    NATIVE_DISABLE_ENV,
    native_unavailable_reason,
)
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.hardware.config import DEFAULT_CONFIG
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.regex.parser import parse_anchored
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

    @needs_native
    def test_probe_honours_env_changes_between_calls(self, monkeypatch, tmp_path):
        """The compiler lookup is memoised on ``($CC, $PATH)`` and
        ``RAP_NATIVE_DISABLE`` is read live: flipping any of the three
        between two resolutions takes effect, flipping back restores."""
        import shutil

        from repro.core import native

        monkeypatch.delenv("CC", raising=False)
        real = native._find_compiler()
        lookups = []
        which = shutil.which
        monkeypatch.setattr(
            native.shutil, "which", lambda c: lookups.append(c) or which(c)
        )
        for _ in range(3):
            assert resolve_backend("native") == "native"
        assert lookups == []  # same ($CC, $PATH): no filesystem walk

        monkeypatch.setenv("PATH", str(tmp_path))  # no compiler here
        assert native._find_compiler() is None
        assert resolve_backend_with_reason("native") == (
            "fused", "native unavailable: no C compiler"
        )
        monkeypatch.setenv("CC", real)  # an absolute $CC needs no $PATH
        assert native._find_compiler() == real
        assert resolve_backend("native") == "native"
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert resolve_backend("native") == "fused"
        monkeypatch.delenv(NATIVE_DISABLE_ENV)
        assert resolve_backend("native") == "native"
        before = len(lookups)
        assert native._find_compiler() == real and len(lookups) == before

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

    def _sigkill_resume(self, tmp_path, patterns, data, golden_backend):
        """Golden run on ``golden_backend``; SIGKILLed + resumed run on
        native; the printed matches (and float energy) must be
        byte-identical."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(patterns) + "\n")
        stream = tmp_path / "input.bin"
        stream.write_bytes(data)
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
            [*base, "--backend", golden_backend],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo,
        )
        assert golden.returncode == 0, golden.stderr
        assert golden.stdout.strip()
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

    def test_sigkill_mid_scan_then_resume_matches_fused_golden(
        self, tmp_path
    ):
        self._sigkill_resume(
            tmp_path, MIXED_PATTERNS, _mixed_data(8000, seed=47), "fused"
        )

    def test_sigkill_resume_of_the_fig1_mix_matches_python_golden(
        self, tmp_path
    ):
        """The paper's Fig. 1 mix (7 of 16 NBVA): checkpoints written
        with live bit vectors by the C kernel, resumed by it."""
        from repro.workloads.datasets import generate_benchmark
        from repro.workloads.inputs import generate_input

        patterns = list(generate_benchmark("Snort", 16).patterns)
        data = generate_input(
            "network", 6000, seed=5, patterns=patterns, plant_every=200
        )
        self._sigkill_resume(tmp_path, patterns, data, "python")


def _nbva_unit(automaton, anchored_start=False, anchored_end=False):
    """A one-unit native plan over ``automaton`` plus its oracle."""
    from repro.core.fused import FusedRuleset

    with use_backend("native"):
        fused = FusedRuleset(
            nbva_units=[(automaton, anchored_start, anchored_end)]
        )
    oracle = NBVASimulator(automaton).scanner(
        anchored_start=anchored_start, anchored_end=anchored_end
    )
    return fused, oracle


def _assert_nbva_spans(fused, oracle, segments, *, native=True):
    """Feed ``segments`` through the plan's unit 0 and the oracle in
    lockstep: matches, all 11 counters + ``bv_cycle_indices`` and the
    serialized frontier must agree after every one."""
    assert fused.native_active is native or not native
    probe = oracle._sim.scanner()
    state = NBVAState()
    for k, segment in enumerate(segments):
        at_end = k == len(segments) - 1
        want_stats = NBVAStats(bv_cycle_indices=[])
        want = oracle.feed(segment, want_stats, at_end=at_end)
        got, got_stats, state = fused.scan_nbva_unit_span(
            0, fused.translate(segment), state=state, at_end=at_end
        )
        assert got == want
        assert got_stats == want_stats
        probe.state = state
        assert json.dumps(probe.snapshot()) == json.dumps(oracle.snapshot())
    return state


def _assert_nbva_identical(automaton, data, anchors=(False, False), cuts=()):
    """Whole stream, one byte per span, and a seam at every ``cuts``."""
    plans = [[data], [data[i : i + 1] for i in range(len(data))]]
    plans += [[data[:cut], data[cut:]] for cut in cuts]
    for segments in plans:
        fused, oracle = _nbva_unit(automaton, *anchors)
        assert fused._native_scanner().has_nbva(0)
        _assert_nbva_spans(fused, oracle, segments)


def _bodies():
    leaf = st.sampled_from(["a", "b", "ab"]).map(
        lambda cs: ast.lit(CharClass.from_iterable(cs))
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: ast.concat(*t)),
            st.tuples(sub, sub).map(lambda t: ast.alt(*t)),
        ),
        max_leaves=3,
    )


def counted_regexes():
    """Concatenations of 1-3 counter groups (``r{m}`` / ``r{0,k}``, the
    two hardware-readable shapes) around plain literals."""
    group = st.tuples(_bodies(), st.booleans(), st.integers(1, 6)).map(
        lambda t: ast.repeat(t[0], t[2] if t[1] else 0, t[2])
    )
    piece = st.one_of(group, _bodies(), _bodies().map(ast.star))
    return st.tuples(
        st.lists(piece, max_size=2), group, st.lists(piece, max_size=3)
    ).map(lambda t: ast.concat(*t[0], t[1], *t[2]))


@needs_native
class TestNativeNbva:
    """The generated-C NBVA unit kernel ≡ ``NBVAScanner``, state and all."""

    @settings(max_examples=20, deadline=None)  # one cc run per example
    @given(
        tree=counted_regexes(),
        data=inputs(alphabet="abx", max_size=40),
        anchors=st.tuples(st.booleans(), st.booleans()),
    )
    def test_random_counted_regexes_at_every_seam(self, tree, data, anchors):
        try:
            automaton = build_automaton(tree)
        except GlushkovError:
            assume(False)
        assume(not automaton.is_plain)
        _assert_nbva_identical(
            automaton, data, anchors, cuts=range(1, len(data))
        )

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129, 1000])
    @pytest.mark.parametrize("read", [ReadKind.EXACT, ReadKind.ALL])
    def test_vector_widths_across_word_boundaries(self, width, read):
        # a[bc]{width}d / a[bc]{0,width}d, as a raw Repeat node (the
        # parser and smart constructors fold the width-1 shapes away)
        automaton = build_automaton(
            ast.concat(
                ast.lit(CharClass.of("a")),
                ast.Repeat(
                    ast.lit(CharClass.from_iterable("bc")),
                    width if read is ReadKind.EXACT else 0,
                    width,
                ),
                ast.lit(CharClass.of("d")),
            )
        )
        (group,) = automaton.groups
        assert (group.width, group.read) == (width, read)
        rng = random.Random(width)
        runs = [width - 1, width, width + 1, 2 * width + 3, 1, 64, 65]
        data = b"".join(
            b"a" + bytes(rng.choice(b"bc") for _ in range(max(run, 0))) + b"dx"
            for run in runs
        ) + bytes(rng.choice(b"abcd") for _ in range(200))
        assert NBVASimulator(automaton).find_matches(data)
        stats = NBVAStats()
        NBVASimulator(automaton).find_matches(data, stats)
        assert stats.overflow_events or width == 1  # no loop-back to shift
        cuts = [rng.randrange(1, len(data)) for _ in range(6)]
        _assert_nbva_identical(automaton, data, cuts=cuts)

    def test_adjacent_groups_with_copy_edges_and_anchors(self):
        parsed = parse_anchored("^x(ab|ba){65}(c[de]){0,70}f$")
        automaton = build_automaton(parsed.regex)
        actions = {edge.action for edge in automaton.edges}
        assert {EdgeAction.COPY, EdgeAction.SHIFT, EdgeAction.SET1} <= actions
        assert len(automaton.groups) == 2
        data = b"x" + b"abba" * 32 + b"ab" + b"cdce" * 20 + b"f"
        anchors = (parsed.anchored_start, parsed.anchored_end)
        assert anchors == (True, True)
        assert NBVASimulator(automaton).find_matches(
            data, anchored_start=True, anchored_end=True
        ) == [len(data) - 1]
        _assert_nbva_identical(
            automaton, data, anchors, cuts=range(1, len(data), 7)
        )
        # the same automaton unanchored, over a stream with false starts
        noisy = b"xab" + data + b"cdf" + data[1:]
        _assert_nbva_identical(automaton, noisy, cuts=(100, 200, 300))

    def test_wide_unit_stays_interpreted(self):
        automaton = build_automaton(
            parse_anchored("abcdefghij" * 7 + "x{5}y").regex
        )
        assert automaton.state_count > codegen.NBVA_NATIVE_MAX_STATES
        assert "state_count 72 > 64" == codegen.nbva_interpreted_reason(
            automaton
        )
        fused, oracle = _nbva_unit(automaton)
        assert codegen.native_nbva_indices(fused) == ()
        data = (b"abcdefghij" * 7 + b"xxxxxy") * 3
        _assert_nbva_spans(fused, oracle, [data[:100], data[100:]], native=False)
        assert oracle.offset == len(data)

    def test_dense_bv_activity_overflows_the_event_buffer(self):
        """More BV-phase cycles than ``HIT_BUFFER_ENTRIES``: the kernel
        returns mid-span and re-enters, on exactly the same stream."""
        automaton = build_automaton(parse_anchored("[ab]{0,40}c").regex)
        data = b"ab" * (codegen.HIT_BUFFER_ENTRIES + 100) + b"c"
        fused, oracle = _nbva_unit(automaton)
        state = _assert_nbva_spans(fused, oracle, [data])
        assert state.offset == len(data)
        stats = NBVAStats(bv_cycle_indices=[])
        NBVASimulator(automaton).find_matches(data, stats)
        assert stats.bv_phase_cycles > 2 * codegen.HIT_BUFFER_ENTRIES

    def test_explain_names_the_tier_and_why(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        wide = "abcdefghij" * 7 + "x{5,9}y"
        patterns = ["ab{10,20}c", wide, "needle"]

        def tiers(backend):
            engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
            return [entry.tier for entry in engine.explain(patterns)]

        assert tiers("native") == [
            "native", "interpreted (state_count 73 > 64)", None
        ]
        assert tiers("fused")[:2] == ["interpreted (fused backend)"] * 2
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(patterns) + "\n")
        stream = tmp_path / "in.bin"
        stream.write_bytes(b"x")
        argv = ["scan", "--patterns", str(rules), str(stream), "--explain"]
        assert main([*argv, "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "unit tier: native" in out
        assert "unit tier: interpreted (state_count 73 > 64)" in out
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert tiers("native")[0] == (
            "interpreted (native unavailable: disabled by RAP_NATIVE_DISABLE)"
        )

    def test_calibrate_measures_nbva_through_the_plan(self):
        """``nbva_base`` describes the tier that runs: within an order
        of magnitude of the default on native, not the ~100x of the
        pure-Python scan."""
        from repro.compiler.calibrate import calibrate
        from repro.compiler.costmodel import DEFAULT_CONSTANTS

        report = calibrate("native", probe_bytes=32768, repeats=1)
        assert report.measurements["nbva"] < 20 * report.measurements["nfa_sparse"]
        assert report.constants.nbva_base < 10 * DEFAULT_CONSTANTS.nbva_base

    def test_stats_merge_is_associative_and_concatenates(self):
        automaton = build_automaton(parse_anchored("a[bc]{3}d").regex)
        data = b"abcbd.abbbd.acccd" * 3
        parts = []
        scanner = NBVASimulator(automaton).scanner()
        for cut in (data[:7], data[7:30], data[30:]):
            stats = NBVAStats(bv_cycle_indices=[])
            scanner.feed(cut, stats, at_end=False)
            parts.append(stats)
        whole = NBVAStats(bv_cycle_indices=[])
        NBVASimulator(automaton).find_matches(data, whole)
        a, b, c = parts
        assert a.merge(b).merge(c) == a.merge(b.merge(c)) == whole
        assert NBVAStats(cycles=1).merge(NBVAStats(cycles=2)) == NBVAStats(
            cycles=3
        )


@needs_native
@pytest.mark.parametrize(
    "name, kernels",
    [
        ("keywords64", {"rap_lane_scan"}),
        ("snort_nfa64", {"rap_gather_scan_0"}),
        ("snort_mix16", {"rap_lane_scan", "rap_gather_scan_0", "rap_nbva_span"}),
        ("forced_dfa", {"rap_dfa_scan_0"}),
    ],
)
def test_generated_sources_compile_warning_free(name, kernels, tmp_path):
    """Every translation unit the three ledger rulesets (plus a forced
    DFA set) generate passes ``cc -fsyntax-only -Wall -Wextra -Werror``."""
    from benchmarks.ledger.workloads import RULESETS
    from repro.core.native import _find_compiler
    from repro.simulators.fused import FusedPlan

    if name == "forced_dfa":
        ruleset = compile_ruleset(
            ["ab*c", "foo[0-9]*bar"], CompilerConfig(forced_mode=CompiledMode.DFA)
        )
    else:
        ruleset = compile_ruleset(RULESETS[name]())
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    with use_backend("native"):
        plan = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
    sources = [codegen.unit_scan_source(plan.fused)]
    if plan.scanner is not None:
        sources.append(
            codegen.lane_scan_source(plan.fused, plan.scanner._tile_words)
        )
    emitted = "\n".join(sources)
    assert all(f"int {kernel}(" in emitted for kernel in kernels)
    for index, source in enumerate(filter(None, sources)):
        path = tmp_path / f"unit{index}.c"
        path.write_text(source)
        proc = subprocess.run(
            [_find_compiler(), "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
             str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr[:2000]


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
