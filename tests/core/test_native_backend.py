"""Native compiled backend: bit-identity, probe fallback, fingerprints.

The ``native`` backend generates specialized C per compiled ruleset and
runs it through ``ctypes``; its entire contract is that it is
*only* faster — matches, StepStats-derived counters, the priced energy
ledger, checkpoints, and the input-parallel seam protocol must be
byte-identical to the fused (and pure-Python) tiers.  This suite drives
random regexes and deterministic seam workloads through native/fused/
python triples, proves the no-compiler probe falls back silently, and
pins that the ``scan_fingerprint`` names no backend: a checkpoint written
on one resumes on any other.
"""

import contextlib
import dataclasses
import functools
import json
import logging
import os
import random
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.automata.glushkov import (
    EdgeAction,
    ReadKind,
    build_automaton,
)
from repro.automata.nbva import NBVASimulator, NBVAState, NBVAStats
from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import (
    KernelState,
    available_backends,
    backend_names,
    get_kernel,
    resolve_backend,
    resolve_backend_with_reason,
    use_backend,
)
from repro.core import codegen, native
from repro.core.native import (
    NATIVE_DISABLE_ENV,
    native_unavailable_reason,
    source_key,
)
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import DurableScan
from repro.hardware.config import DEFAULT_CONFIG
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.regex.parser import parse_anchored
from repro.simulators.rap import RAPSimulator
from repro.workloads.inputs import generate_input

from tests.conformance import cells
from tests.conformance.cells import HOST, Case
from tests.helpers import inputs, scannable_trees

NATIVE = "native" in available_backends()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native backend not available (no C toolchain?)"
)


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

    @needs_native
    def test_hosts_sharing_a_cache_dir_keep_their_own_objects(
        self, monkeypatch, tmp_path
    ):
        """``-march=native`` objects are named by source key *and* host
        tag: a second host on the same ``RAP_CACHE_DIR`` builds its own
        file, and each loader opens only its own."""
        from repro.core import native

        monkeypatch.setenv("RAP_CACHE_DIR", str(tmp_path))
        source = f"int rap_tagged(void) {{ return 7; }}  /* {tmp_path} */\n"
        key = native.source_key(source)
        assert native._host_tag() == native._host_tag() != ""  # memoised, usable
        built, opened = [], []
        compile_shared, library = native._compile_shared, native._Library
        monkeypatch.setattr(
            native, "_compile_shared",
            lambda cc, src, target: built.append(target.name)
            or compile_shared(cc, src, target),
        )
        monkeypatch.setattr(
            native, "_Library",
            lambda path, cdef: opened.append(path.name) or library(path, cdef),
        )
        for tag in ("hostA", "hostB", "hostA"):
            monkeypatch.setattr(native, "_host_tag", lambda tag=tag: tag)
            native._LIB_MEMO.pop(key, None)  # a fresh process on that host
            lib = native.load_source(source, "int rap_tagged(void);")
            assert lib.fn("rap_tagged")() == 7
        native._LIB_MEMO.pop(key, None)
        names = [f"{key}.hostA.so", f"{key}.hostB.so"]
        assert built == names and opened == [*names, names[0]]
        assert sorted(p.name for p in (tmp_path / "native").iterdir()) == names

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


def _mixed_data(n: int = 6000, seed: int = 23) -> bytes:
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
    """native == fused == python: cells of the conformance matrix
    (``tests/conformance``) on this module's rulesets."""

    @settings(max_examples=5, deadline=None)
    @given(tree=scannable_trees(max_leaves=6), data=inputs(max_size=48))
    def test_random_regexes(self, tree, data):
        case = Case([tree.to_pattern()], data)
        for backend in HOST:
            cells.bulk(case, "auto", backend, 1)

    def test_mixed_mode_ruleset(self):
        case = Case(MIXED_PATTERNS, _mixed_data())
        cells.durable(case, "auto", seams=(2000, 4000))

    @pytest.mark.parametrize("mode", [CompiledMode.NFA, CompiledMode.DFA])
    def test_forced_unit_tiers(self, mode):
        """The gather and DFA unit kernels, not just the lane machine."""
        config = CompilerConfig(forced_mode=mode)
        data = _mixed_data(seed=31)
        case = Case(["needle", "foo[0-9]*bar", "x(y|z)w"], data, compiler=config)
        cells.bulk(case, "auto", "native", 1)

    def test_engine_scan_matches_fused(self):
        case = Case(MIXED_PATTERNS, _mixed_data(seed=37))
        for backend in ("fused", "native"):
            cells.bulk(case, "auto", backend, 1)


@needs_native
class TestNativeSeams:
    """Input-parallel seams and checkpoint state under native."""

    def test_input_jobs_matches_serial(self):
        case = Case(MIXED_PATTERNS, _mixed_data(seed=41))
        cells.bulk(case, "auto", "native", 2, min_chunk=512)

    def test_checkpoint_at_a_seam_resumes_identically(self):
        data = _mixed_data(seed=43)
        cells.durable(Case(MIXED_PATTERNS, data), "auto", seams=[len(data) // 2])

    def test_sigkill_mid_scan_then_resume_matches_fused_golden(self, tmp_path):
        case = Case(MIXED_PATTERNS, _mixed_data(4000, seed=47))
        cells.sigkill_resume(case, tmp_path, "native", ["fused"])

    def test_sigkill_resume_of_the_fig1_mix_matches_python_golden(
        self, tmp_path
    ):
        """The paper's Fig. 1 mix (7 of 16 NBVA): checkpoints written
        with live bit vectors by the C kernel, resumed by it."""
        mix = cells.pinned("snort_mix16")
        cells.sigkill_resume(mix, tmp_path, "native", ["native"])


@needs_native
def test_threads_arriving_during_the_build_wait_for_it(monkeypatch):
    """Two threads on a fresh native plan both get the compiled kernels:
    the second waits for the first one's build instead of walking."""
    import time

    from repro.mapping.mapper import map_ruleset
    from repro.simulators.fused import FusedPlan

    ruleset = compile_ruleset(MIXED_PATTERNS)
    with use_backend("native"):
        plan = FusedPlan(ruleset, map_ruleset(ruleset, DEFAULT_CONFIG), DEFAULT_CONFIG)
    building, build = threading.Event(), native.NativeScanner.__init__

    def slow_build(scanner, fused):
        building.set()
        time.sleep(0.2)
        build(scanner, fused)

    monkeypatch.setattr(native.NativeScanner, "__init__", slow_build)
    attached: list[bool] = []

    def attach():
        attached.append(plan.fused._native_scanner() is not None)

    first, second = threading.Thread(target=attach), threading.Thread(target=attach)
    first.start()
    assert building.wait(10)
    second.start()
    first.join()
    second.join()
    assert attached == [True, True]


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
    lockstep: matches, all 11 counters, the stall count (the oracle's BV
    cycles) and the serialized frontier must agree after every one."""
    assert fused.native_active is native or not native
    probe = oracle._sim.scanner()
    state = NBVAState()
    for k, segment in enumerate(segments):
        at_end = k == len(segments) - 1
        want_stats, cycles = NBVAStats(), []
        want = oracle.feed(segment, want_stats, at_end=at_end, bv_cycles=cycles)
        _, _, ((got, got_stats, state),), stalls = fused.scan_span(
            fused.translate(segment), (), [(0, state, 0)], at_end=at_end
        )
        assert got == want
        assert got_stats == want_stats
        assert stalls == [len(cycles)]
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
    two hardware-readable shapes, too wide to unfold) around plain
    literals."""
    group = st.tuples(_bodies(), st.booleans(), st.integers(9, 14)).map(
        lambda t: ast.repeat(t[0], t[2] if t[1] else 0, t[2])
    )
    piece = st.one_of(group, _bodies(), _bodies().map(ast.star))
    return st.tuples(
        st.lists(piece, max_size=2), group, st.lists(piece, max_size=3)
    ).map(lambda t: ast.concat(*t[0], t[1], *t[2]))


def idle_streams():
    """Long runs of ``x`` — a byte no counted regex reads, which the
    native kernel skips — around sparse witnesses."""
    return st.lists(
        st.tuples(st.integers(0, 90), inputs(alphabet="ab", max_size=8)),
        min_size=1,
        max_size=3,
    ).map(lambda parts: b"".join(b"x" * run + witness for run, witness in parts))


@needs_native
class TestNativeNbva:
    """The generated-C NBVA unit kernel ≡ ``NBVAScanner``, state and all."""

    @settings(max_examples=5, deadline=None)
    @given(
        tree=counted_regexes(),
        data=st.one_of(idle_streams(), inputs(alphabet="abx", max_size=40)),
        anchors=st.tuples(st.booleans(), st.booleans()),
    )
    def test_random_counted_regexes_at_every_seam(self, tree, data, anchors):
        """A cell of the conformance matrix: every seam, every backend."""
        pattern = "^" * anchors[0] + tree.to_pattern() + "$" * anchors[1]
        ruleset = compile_ruleset([pattern])
        assume(not ruleset.rejected)
        assume(ruleset.regexes[0].mode is CompiledMode.NBVA)
        cells.durable(Case([pattern], data), "auto", backends=HOST)

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
        stats = NBVAStats()
        NBVASimulator(automaton).find_matches(data, stats)
        assert stats.bv_phase_cycles > 2 * codegen.HIT_BUFFER_ENTRIES

    # -- the idle skip: bytes that keep an empty frontier empty ----------

    def test_spans_start_and_end_inside_idle_runs(self):
        automaton = build_automaton(parse_anchored("ab[bc]{0,12}d").regex)
        data = b"x" * 50 + b"abbcbd" + b"x" * 40 + b"abcd" + b"x" * 60
        _assert_nbva_identical(automaton, data, cuts=(25, 80, 120, 159))
        fused, oracle = _nbva_unit(automaton)
        state = _assert_nbva_spans(fused, oracle, [data[:25], data[25:80], data[80:]])
        assert state == NBVAState(len(data))  # the frontier died out

    def test_anchored_start_entered_fresh_and_mid_stream(self):
        parsed = parse_anchored("^ab[bc]{0,12}d")
        automaton = build_automaton(parsed.regex)
        for data in (b"abbcd" + b"xab" * 30, b"xabbcd" + b"abbcd" * 20):
            # fresh: byte 0 is stepped, then the rest is one skip; entered
            # mid-stream (inside or after the match), whole spans are
            _assert_nbva_identical(automaton, data, (True, False), cuts=(3, 7, 40))

    def test_counted_initial_positions_accrue_set1_while_skipping(self):
        automaton = build_automaton(parse_anchored("[ab]{0,12}c").regex)
        assert any(automaton.positions[p].is_counted for p in automaton.initial)
        data = b"x" * 100 + b"abac" + b"x" * 100 + b"bbbbc" + b"x" * 30
        stats = NBVAStats()
        NBVASimulator(automaton).find_matches(data, stats)
        assert stats.set1_events >= data.count(b"x")  # one per idle byte
        _assert_nbva_identical(automaton, data, cuts=(50, 102, 104, 210))

    def test_stream_without_an_idle_byte(self):
        automaton = build_automaton(parse_anchored("[ab][ab]{0,20}c").regex)
        rng = random.Random(5)
        data = b"".join(rng.choice([b"a", b"b", b"ac", b"bc"]) for _ in range(200))
        fused, _ = _nbva_unit(automaton)
        row = "static const uint8_t B0_STAYS[] = { "
        source = codegen.unit_scan_source(fused)
        stays = [int(v) for v in source.split(row)[1].split(" }")[0].split(", ")]
        # every "a" and "b" wakes the unit, and no "c" finds it empty
        assert not stays[ord("a")] and not stays[ord("b")] and stays[ord("c")]
        assert b"cc" not in data and data[0] in b"ab"
        _assert_nbva_identical(automaton, data, cuts=(1, 150, len(data) - 1))

    def test_two_entries_of_one_unit_in_one_call(self, monkeypatch):
        """One unit as three cursors — fresh, and entered at two frontiers
        of different offsets — in one call: each equals the oracle fed
        alone, with the default event buffer and with a one-entry one
        whose continuations cross from cursor to cursor."""
        automaton = build_automaton(parse_anchored("ab[bc]{0,12}d").regex)
        fused, _ = _nbva_unit(automaton)
        prefixes = [b"", b"xxab" + b"b" * 8, b"x" * 20 + b"abc"]
        segment = b"bbd" + b"x" * 30 + b"abcbd" + b"abd"
        cursors, want = [], []
        for prefix in prefixes:
            oracle = NBVASimulator(automaton).scanner()
            oracle.feed(prefix, at_end=False)
            cursors.append((0, oracle.state, 0))
            stats = NBVAStats()
            matches = oracle.feed(segment, stats)
            want.append((matches, stats, oracle.state))
        assert len({state for _, state, _ in cursors}) == 3
        assert all(matches for matches, _, _ in want[1:])
        tin = fused.translate(segment)
        crossings = []  # per rap_scan_span call, its NBVA cursor count
        scanner = fused._native_scanner()
        fn, nbva = scanner._span_fn, codegen.SCAN_CTL.index("nbva")
        monkeypatch.setattr(
            scanner,
            "_span_fn",
            lambda *args: crossings.append(int(scanner._ws.ctl[nbva])) or fn(*args),
        )
        assert fused.scan_span(tin, (), cursors)[2] == want
        assert crossings == [3]
        monkeypatch.setattr(scanner, "_cap", 1)
        assert fused.scan_span(tin, (), cursors)[2] == want
        events = sum(len(m) for m, _, _ in want)
        assert crossings == [3] * (1 + events + 1)  # one more per match

    def test_explain_names_the_tier_and_why(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        monkeypatch.delenv("RAP_MODE", raising=False)  # the auto-mode rows
        wide = "abcdefghij" * 7 + "x{5,9}y"
        patterns = ["ab{10,20}c", wide, "needle"]

        def tiers(backend):
            engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
            return [entry.tier for entry in engine.explain(patterns)]

        assert tiers("native") == [
            "native",
            "interpreted (state_count 73 > 64)",
            "dfa (7 states / 1 group of 1 bins)",
        ]
        assert tiers("fused") == ["interpreted (fused backend)"] * 3
        assert tiers("python")[2] == "interpreted (python backend)"
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(patterns) + "\n")
        stream = tmp_path / "in.bin"
        stream.write_bytes(b"x")
        argv = ["scan", "--patterns", str(rules), str(stream), "--explain"]
        assert main([*argv, "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "unit tier: native" in out
        assert "unit tier: interpreted (state_count 73 > 64)" in out
        assert "lane tier: dfa (7 states / 1 group of 1 bins)" in out
        monkeypatch.setattr(codegen, "LANE_DFA_MAX_STATES", 4)
        assert tiers("native")[2] == "interpreted (bin 0 closure > 4)"
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert tiers("native") == [
            "interpreted (native unavailable: disabled by RAP_NATIVE_DISABLE)"
        ] * 3

    def test_explain_says_how_each_row_splits(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        monkeypatch.delenv("RAP_MODE", raising=False)  # the auto-mode rows
        monkeypatch.delenv("RAP_INPUT_JOBS", raising=False)
        splits = {  # tests/engine/test_split.py's ruleset: one row per kind
            "abcdef": "window 6",  # LNFA rows: the window the chunks share
            "hello": "window 6",
            "ab?c?d": "window 4",
            "a(bc)*d": "whole stream",
            "k{20,400}m": "whole stream",
            "(?:a.|.b){2}x": "window 5",
            "a(?:b.*|c)d": "whole stream",
        }
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(splits) + "\n")
        stream = tmp_path / "in.bin"
        stream.write_bytes(b"x")
        argv = ["scan", "--patterns", str(rules), str(stream), "--explain"]

        def explained(*extra):
            assert main([*argv, *extra]) == 0
            return capsys.readouterr().out

        for backend in ("fused", "native"):
            out = explained("--backend", backend, "--input-jobs", "2")
            assert "\ninput-jobs: 2\n" in out
            rows = {line.split()[0]: line for line in out.splitlines()}
            for pattern, split in splits.items():
                assert rows[pattern].endswith(f"; split: {split}")
        out = explained("--backend", "python", "--input-jobs", "2")
        assert "\ninput-jobs: 2 (ignored: python backend)\n" in out
        assert "split:" not in out
        for durable in ("--checkpoint-dir", "--max-seconds", "--max-rss-mb"):
            out = explained("--backend", "fused", "--input-jobs", "2", durable, "9")
            assert "\ninput-jobs: 2 (ignored: durable scan)\n" in out
            assert "split:" not in out
        serial = explained("--backend", "fused")
        assert "input-jobs" not in serial and "split:" not in serial
        monkeypatch.setenv("RAP_INPUT_JOBS", "1")
        assert explained("--backend", "fused") == serial

    def test_calibrate_measures_nbva_through_the_plan(self):
        """``nbva_base`` describes the tier that runs: within an order
        of magnitude of the default on native, not the ~100x of the
        pure-Python scan."""
        from repro.compiler import calibrate as cal
        from repro.compiler.costmodel import DEFAULT_CONSTANTS

        report = cal.calibrate("native", probe_bytes=32768, repeats=1)
        assert report.measurements["nbva"] < 20 * report.measurements["nfa_sparse"]
        assert report.constants.nbva_base < 10 * DEFAULT_CONSTANTS.nbva_base
        # NFA-mode units step a table: one lookup per byte whatever the
        # activity.  Probes that show no slope leave the documented
        # default in force rather than a fitted zero.
        measured = report.measurements
        if measured["nfa_dense"] <= measured["nfa_sparse"]:
            assert report.constants.nfa_active == DEFAULT_CONSTANTS.nfa_active
        with mock.patch.object(cal, "_time_scan", lambda *probe: 1e-8):
            flat = cal.calibrate("native").constants
        assert flat.nfa_active == DEFAULT_CONSTANTS.nfa_active
        assert flat.dfa_density == DEFAULT_CONSTANTS.dfa_density

    def test_stats_merge_is_associative_and_concatenates(self):
        automaton = build_automaton(parse_anchored("a[bc]{3}d").regex)
        data = b"abcbd.abbbd.acccd" * 3
        parts = []
        scanner = NBVASimulator(automaton).scanner()
        for cut in (data[:7], data[7:30], data[30:]):
            stats = NBVAStats()
            scanner.feed(cut, stats, at_end=False)
            parts.append(stats)
        whole = NBVAStats()
        NBVASimulator(automaton).find_matches(data, whole)
        a, b, c = parts
        assert a.merge(b).merge(c) == a.merge(b.merge(c)) == whole
        assert NBVAStats(cycles=1).merge(NBVAStats(cycles=2)) == NBVAStats(
            cycles=3
        )


def lnfa_rulesets():
    """2-6 linear patterns — literals, classes, runs of ``.``, ``(?i)``,
    ``^`` / ``$`` — led by a long literal, so the packed machine spans
    64-bit word boundaries and one bin closes over more than 8 states."""
    atom = st.sampled_from(["a", "b", "c", "x", "[ab]", "[^a]", ".", ".."])
    body = st.lists(atom, min_size=1, max_size=6).map("".join)
    decorated = st.tuples(
        st.booleans(), st.booleans(), st.booleans(), body
    ).map(
        lambda t: "(?i)" * t[0] + "^" * t[1] + t[3] + "$" * t[2]
    )
    long_literal = st.integers(9, 70).map(
        lambda n: "".join("abc"[i * i % 3] for i in range(n))
    )
    return st.tuples(
        long_literal, st.lists(decorated, min_size=1, max_size=5)
    ).map(lambda t: [t[0], *t[1]])


def _lane_worthy(patterns, data) -> bool:
    """At least two patterns land in LNFA mode, none is rejected."""
    ruleset = compile_ruleset(patterns)
    lanes = sum(r.mode is CompiledMode.LNFA for r in ruleset)
    return not ruleset.rejected and lanes >= 2 and len(data) > 1


def _warm_bin(collector, segment: bytes) -> None:
    """Step a bin's oracle collector over ``segment`` for state only: no
    match, no counter (the warm-up before a span's owned bytes)."""
    _, _, collector.state = get_kernel().scan_segment(
        collector.layout.packed.program, segment, collector.state, at_end=False
    )


def _oracle_delta(plan, segment, *, entry=0, fresh, at_end, base=0, stats_from=0):
    """One lane span by the ``python`` oracle: each bin's own collector
    restored to the entry word, warmed over the prefix, then fed the
    owned bytes — everything it reports is the span's delta."""
    from repro.simulators.activity import BinActivityCollector
    from repro.simulators.fused import LaneDelta

    assert fresh == (base == 0)  # the collectors read freshness off the offset
    tile_cycles, tile_bits, matches, exits = [], [], [], []
    for j, (bin_obj, layout) in enumerate(zip(plan.bins, plan.layouts)):
        collector = BinActivityCollector(bin_obj, DEFAULT_CONFIG, layout)
        state = KernelState(offset=base, states=plan.fused.extract(entry, j))
        collector.restore({**collector.snapshot(), "state": state.to_json()})
        _warm_bin(collector, segment[:stats_from])
        collector.feed(segment[stats_from:], at_end=at_end)
        done = collector.activity()
        tile_cycles.append(done.tile_active_cycles)
        tile_bits.append(done.tile_active_bits)
        matches.append({rid: ends for rid, ends in done.matches.items() if ends})
        exits.append(collector.state.states)
    return LaneDelta(
        cycles=len(segment) - stats_from,
        tile_cycles=tile_cycles,
        tile_bits=tile_bits,
        matches=matches,
        exit_states=exits,
        exit_packed=plan.fused.pack(exits),
    )


@contextlib.contextmanager
def _counting_restarts():
    """Count the walker's :meth:`StepTable.restart` calls: those on
    tables that hold states, outside any :meth:`StepTable.close` (which
    restarts the table it is about to fill, and one it could not)."""
    from repro.core.table import StepTable

    calls, closing = [], []
    restart, close = StepTable.restart, StepTable.close

    def counted(table):
        if len(table) and not closing:
            calls.append(len(table))
        restart(table)

    def closed(table):
        closing.append(table)
        try:
            return close(table)
        finally:
            closing.pop()

    with mock.patch.object(StepTable, "restart", counted):
        with mock.patch.object(StepTable, "close", closed):
            yield calls


@needs_native
class TestOneCrossing:
    """One library per binding, one crossing per span: counted on a cold
    cache, so every library a scan needs is built inside the test."""

    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        """``(cc builds, library calls by name)`` from here on."""
        monkeypatch.setenv("RAP_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(native, "_LIB_MEMO", {})
        builds, calls = [], []
        compile_shared = native._compile_shared
        monkeypatch.setattr(
            native,
            "_compile_shared",
            lambda *args: builds.append(args[2]) or compile_shared(*args),
        )
        def fn(self, name, _fn=native._Library.fn):
            call = _fn(self, name)
            return lambda *args: calls.append(name) or call(*args)

        monkeypatch.setattr(native._Library, "fn", fn)
        return builds, calls

    def test_the_mix_builds_once_and_crosses_once_per_span(self, counted):
        """``FusedRun.collect`` of the Fig. 1 mix — lanes, unit forest and
        NBVA units — makes one ``cc`` build and one call; one durable
        segment of it one more call."""
        from repro.simulators.fused import FusedRun
        from repro.simulators.rap import bind

        builds, calls = counted
        mix = cells.pinned("snort_mix16")
        ruleset = compile_ruleset(mix.patterns)
        with use_backend("native"):
            binding = bind(ruleset, DEFAULT_CONFIG)
            run = FusedRun(ruleset, binding.mapping, DEFAULT_CONFIG, binding=binding)
            got = run.collect(mix.data)
            assert (len(builds), calls) == (1, ["rap_scan_span"])
            native_ = binding.plan.fused._native_scanner()
            assert len(native_.dfas) == 2 and len(native_._nbva) == 7
            scan = DurableScan(ruleset, binding.mapping, DEFAULT_CONFIG)
            scan.feed(mix.data[:1000], at_end=False)
            assert (len(builds), calls) == (1, ["rap_scan_span"] * 2)
        assert got == RAPSimulator(DEFAULT_CONFIG).collect_activities(
            ruleset, mix.data, binding.mapping, backend="python"
        )

    def test_explain_names_the_one_library_and_its_tiers(
        self, monkeypatch, capsys, tmp_path
    ):
        """``--explain`` prints one line per binding: its library's key
        and the tiers it holds — lane groups, the unit forest with its
        step (state vectors, or scalar and why, with its folded cursor
        count), NBVA slots — and no separate forest line."""
        from repro.cli import main
        from repro.simulators.rap import bind

        monkeypatch.delenv("RAP_MODE", raising=False)
        rules, stream = tmp_path / "rules.txt", tmp_path / "in.bin"
        stream.write_bytes(b"x")

        def explained(patterns, backend="native", mode="auto"):
            rules.write_text("\n".join(patterns) + "\n")
            argv = ["scan", "--patterns", str(rules), str(stream), "--explain"]
            assert main([*argv, "--backend", backend, "--mode", mode]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert not any(line.startswith("unit forest") for line in lines)
            return [line for line in lines if line.startswith("native library ")]

        mix = cells.pinned("snort_mix16").patterns
        with use_backend("native"):
            native_ = bind(compile_ruleset(mix), DEFAULT_CONFIG).plan.fused
            native_ = native_._native_scanner()
            key = source_key(native_._source)[:16]
        vectors = native_.forest_lanes == 16  # the host's cc targets AVX-512

        def step(units: int, folded: int = 0) -> str:
            count = -(-units // 16)
            if vectors:
                many = "s" * (count > 1)
                return f"state vectors, {units} units in {count} vector{many}"
            fold = f", {folded} cursors folded" if folded else ""
            return f"scalar (no AVX-512 target){fold}"

        (line,) = explained(mix)
        assert line == (
            f"native library {key}: lanes dfa (33 states / 2 groups of 2 bins); "
            f"unit forest 6 of 6 tables (7420 of 8388608 entries), {step(6, 6)}; "
            "NBVA slots 7 of 7"
        )
        (line,) = explained(cells.pinned("keywords64").patterns)
        assert line.endswith(": lanes dfa (378 states / 1 group of 4 bins)")
        (line,) = explained(["ab{10,20}c", "needle"], mode="nfa")
        assert line.endswith(
            f": unit forest 2 of 2 tables (240 of 8388608 entries), {step(2)}"
        )
        # a unit wider than a lane: every span of the binding steps scalar
        (line,) = explained(["ab{40}c", "needle"], mode="nfa")
        assert line.endswith("entries), scalar (unit 0 has 42 positions > 32)")
        (line,) = explained(cells.pinned("snort_nfa64").patterns)
        assert line.endswith(f"entries), {step(64)}")
        assert not explained(mix, backend="fused")

    @pytest.mark.parametrize(
        "shape, lane_cap",
        [
            ("keywords64", None),
            ("snort_nfa64", None),
            ("nbva_only", None),
            ("snort_mix16", 8),
            ("snort_mix16", None),
        ],
        ids=["lanes", "units", "nbva", "walked-lanes-and-units", "mix"],
    )
    def test_every_shape_builds_once_and_crosses_once(
        self, counted, monkeypatch, shape, lane_cap
    ):
        """Whatever tiers a binding's library holds — lanes alone, units
        alone, NBVA units alone, units beside lanes that closed past
        ``lane_cap`` (walked), the mix — it is one ``cc`` build, and
        Python enters it through ``rap_scan_span`` alone: one call per
        bulk collect, per durable segment and per split task (a chunk of
        walked lanes with no windowed unit has nothing to cross for)."""
        from benchmarks.ledger.workloads import RULESETS
        from repro.engine import split
        from repro.simulators.fused import FusedRun
        from repro.simulators.rap import bind

        builds, calls = counted
        if lane_cap is not None:  # read when the tables are built: below
            monkeypatch.setattr(codegen, "LANE_DFA_MAX_STATES", lane_cap)
        patterns = NBVA_ONLY if shape == "nbva_only" else RULESETS[shape]()
        ruleset = compile_ruleset(patterns)
        data = generate_input(
            "network", 3000, seed=9, patterns=patterns[:8], plant_every=25
        )
        tasks, run_task, one = [], split._split_task, threading.Lock()

        def task(*args):
            with one:  # a task at a time: ``calls`` is one list
                del calls[:]
                out = run_task(*args)
                tasks.append((args[-1][0], list(calls)))
            return out

        monkeypatch.setattr(split, "_split_task", task)
        with use_backend("native"):
            binding = bind(ruleset, DEFAULT_CONFIG)
            native_ = binding.plan.fused._native_scanner()
            assert (native_.lanes_why is not None) == (lane_cap is not None)
            run = FusedRun(ruleset, binding.mapping, DEFAULT_CONFIG, binding=binding)
            got = run.collect(data)
            assert calls == ["rap_scan_span"]
            scan = DurableScan(ruleset, binding.mapping, DEFAULT_CONFIG)
            for segment in data[:1000], data[1000:]:
                del calls[:]
                scan.feed(segment, at_end=False)
                assert calls == ["rap_scan_span"]
            chunked = split.split_collect(
                binding, data, input_jobs=2, min_chunk_bytes=64
            )
        # NBVA units alone are one stall group (one array): one task, so
        # nothing splits
        alone = shape == "nbva_only"
        assert len(builds) == 1 and bool(tasks) != alone
        for kind, crossed in tasks:
            idle = lane_cap is not None and kind == "chunk"
            assert crossed == ([] if idle else ["rap_scan_span"]), kind
        want = RAPSimulator(DEFAULT_CONFIG).collect_activities(
            ruleset, data, binding.mapping, backend="python"
        )
        assert got == want and chunked == (None if alone else want)


@needs_native
class TestNativeLaneDfa:
    """The per-bin DFA lane kernel ≡ the ``python`` oracle, state and
    all — and so is the table walker an over-cap bin leaves the ruleset
    to, restarting its table whenever it outgrows the cap."""

    @settings(max_examples=4, deadline=None)  # one cc run per example
    @given(patterns=lnfa_rulesets(), data=inputs(alphabet="abcxAB", max_size=36))
    def test_random_lnfa_rulesets_at_every_seam(self, patterns, data):
        """Cells of the conformance matrix: every seam, every backend,
        and one-entry hit buffers."""
        assume(_lane_worthy(patterns, data))
        case = Case(patterns, data)
        cells.durable(case, "auto", backends=HOST)
        cells.sweep(case, "auto", "hit buffer 1")

    @settings(max_examples=3, deadline=None)
    @given(patterns=lnfa_rulesets(), data=inputs(alphabet="abcxAB", max_size=36))
    def test_over_cap_bin_leaves_the_ruleset_to_the_walker(self, patterns, data):
        assume(_lane_worthy(patterns, data))
        # whichever bin the mapper gave the long literal
        cells.sweep(Case(patterns, data), "auto", "lane cap 8")

    def test_anchors_classes_and_dense_hits(self):
        """Deterministic: every decoration at once, a hit on nearly
        every byte through a one-entry hit buffer, the end-anchored
        witness on the last byte."""
        patterns = [
            "abcabcabc" * 8, "^ab", "(?i)b.a", "[ab]", "a..[^c]", "c$", "^abc$",
        ]
        case = Case(patterns, b"abcabcABCabcabcabcxabBAabcabcab.c")
        cells.sweep(case, "auto", "hit buffer 1")
        with _counting_restarts() as restarts:
            cells.sweep(case, "auto", "lane cap 8")
        assert restarts  # the 72-state literal alone outgrows 8 mid-stream

    def test_twenty_wildcards_exceed_the_real_cap(self, tmp_path, monkeypatch):
        """``a`` then twenty ``.``: every subset of the last twenty
        positions is reachable, so the closure passes 32 768 states and
        the ruleset is walked — by measurement — with no lane ``.so``
        built, and however hostile the stream the table stays within one
        row's worth of the cap."""
        from repro.core.table import StepTable

        monkeypatch.setenv("RAP_CACHE_DIR", str(tmp_path))
        patterns = ["a" + "." * 20, "needle"]
        data = b"a.aa" * 9 + b"needle" + b"a" * 30
        cap = codegen.LANE_DFA_MAX_STATES
        case = Case(patterns, data)
        cells.durable(case, "auto", backends=HOST)
        with cells.on("native"):
            tier = cells.bound(case, "auto", "native").plan.scanner.lane_tier
        assert tier == f"interpreted (bin 0 closure > {cap})"
        assert not list(tmp_path.rglob("*.so"))  # and these rules have no units

        ruleset = compile_ruleset(patterns)
        sizes = []
        row = StepTable.row

        def measured(dfa, sid):
            sizes.append(len(dfa))
            return row(dfa, sid)

        stream = bytes(random.Random(7).choices(b"ab", k=60_000))
        serial = EngineConfig(backend="fused", input_jobs=1, use_cache=False)
        with _counting_restarts() as restarts:  # one process: one table
            with mock.patch.object(StepTable, "row", measured):
                got = BatchEngine(serial).scan(ruleset, stream)
        with use_backend("python"):
            assert got == RAPSimulator(DEFAULT_CONFIG).run(ruleset, stream)
        assert restarts and max(sizes) <= cap + 2  # a row of this bin: ≤ 2 new states

    def test_entry_word_outside_the_closure_is_interpreted(self, caplog):
        from repro.simulators.fused import FusedPlan

        ruleset = compile_ruleset(["abcdef", "bcdxyz"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        with use_backend("native"):
            plan = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
        scanner = plan.scanner
        assert scanner.lane_tier.startswith("dfa (")
        (dfa,) = scanner.lane_dfas()
        # one bin is its own group: the kernel steps the walker's table
        assert dfa is scanner._native_scanner().dfas[0] and len(dfa) == dfa.closed
        source = scanner._native_scanner()._source
        # "abc" and "bcdx" matched so far: no input leaves both true.
        entry = plan.fused.pack([1 << 2 | 1 << 6 + 3])
        assert plan.fused.extract(entry, 0) not in dfa.ids
        span = dict(entry=entry, fresh=False, at_end=True, base=100)
        walked = []
        walk = type(dfa).walk

        def counted(table, cls, *args, **kwargs):
            walked.append(len(cls))
            return walk(table, cls, *args, **kwargs)

        with caplog.at_level(logging.DEBUG, logger="repro.core.native"):
            with mock.patch.object(type(dfa), "walk", counted):
                got = scanner.scan(b"defyz..abcdef", **span)
            # the lanes forget an entry in ``warm`` bytes: only those are
            # walked, the kernel takes the rest
            assert walked == [scanner.warm] and scanner.warm == 6
            # the walker interned the word past the closure: still not
            # a state of the C tables
            assert dfa.ids[plan.fused.extract(entry, 0)] >= dfa.closed
            assert not scanner._native_scanner()._enter(
                scanner.stream(entry, fresh=False)
            )
        logged = [r for r in caplog.records if "outside its" in r.message]
        assert len(logged) == 1 and "bin 0" in logged[0].message
        assert "first 6 bytes" in logged[0].message
        assert got == _oracle_delta(plan, b"defyz..abcdef", **span)
        assert got.matches[0] == {0: [102, 112]}
        # a span no longer than the window is walked whole, warm-up included
        for stats_from in (0, 2, 6):
            short = dict(span, at_end=False, stats_from=stats_from)
            assert scanner.scan(b"defyz.", **short) == _oracle_delta(
                plan, b"defyz.", **short
            )
            longer = dict(span, stats_from=stats_from + 3)
            assert scanner.scan(b"defyz..abcdef", **longer) == _oracle_delta(
                plan, b"defyz..abcdef", **longer
            )
        # ... and its exit word is back inside: the kernel takes over.
        assert scanner._native_scanner()._enter(
            scanner.stream(got.exit_packed, fresh=False)
        )
        # States met lazily only ever append: the closure's ids, and so
        # the source a fresh process would emit, are untouched.
        masks = [layout.tile_masks for layout in plan.layouts]
        assert codegen.binding_source(plan.fused, masks).source == source
        with use_backend("fused"):  # ... nor do portable scans move them
            walked = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
            walked.scanner.scan(b"defyz..abcdef", **span)
        assert walked.scanner.lane_tier == "interpreted (fused backend)"
        assert codegen.binding_source(walked.fused, masks).source == source

    def test_grouping_is_decided_by_the_closure(self):
        """Literal keywords merge (one table, smaller than the four it
        replaces); class-heavy bins keep their own, untouched."""
        from benchmarks.ledger.workloads import keyword_patterns
        from repro.simulators.rap import bind
        from repro.workloads.datasets import generate_mode_patterns
        from repro.workloads.profiles import PROFILES

        def kernel_of(patterns):
            ruleset = compile_ruleset(patterns)
            assert all(r.mode is CompiledMode.LNFA for r in ruleset)
            with use_backend("fused"):
                plan = bind(ruleset, DEFAULT_CONFIG).plan
            masks = [layout.tile_masks for layout in plan.layouts]
            return plan, masks, codegen.lane_scan_source(plan.fused, masks)

        plan, masks, kernel = kernel_of(keyword_patterns())
        assert kernel.tier == "dfa (378 states / 1 group of 4 bins)"
        assert kernel.first == [0]
        assert sum(plan.fused.lane_dfa(j, m).closed for j, m in enumerate(masks)) == 403
        (joint,) = kernel.closure  # its payload: the four bins' tiles, in order
        assert len(joint.masks) == sum(map(len, masks))

        snort = generate_mode_patterns(PROFILES["Snort"], CompiledMode.LNFA, 64, seed=0)
        plan, masks, kernel = kernel_of(list(snort))
        assert kernel.tier == "dfa (3272 states / 5 groups of 5 bins)"
        assert kernel.first == [0, 1, 2, 3, 4]
        assert [table.closed for table in kernel.closure] == [899, 1079, 935, 115, 244]
        for j, table in enumerate(kernel.closure):  # the walker's own tables
            assert table is plan.fused.lane_dfa(j, masks[j])

    def test_native_scan_never_translates_the_input(self):
        """The kernels map bytes to classes themselves: on ``native`` no
        class stream of a ``keywords64`` scan is ever built."""
        from benchmarks.ledger.workloads import keyword_patterns
        from repro.core.fused import FusedRuleset
        from repro.workloads.inputs import generate_input

        patterns = keyword_patterns()
        ruleset = compile_ruleset(patterns)
        data = generate_input(
            "network", 1 << 14, seed=3, patterns=patterns, plant_every=500
        )
        translate, seen = FusedRuleset.translate, []

        def recorded(fused, segment):
            seen.append(translate(fused, segment))
            return seen[-1]

        with mock.patch.object(FusedRuleset, "translate", recorded):
            for backend in ("native", "fused"):
                del seen[:]
                config = EngineConfig(backend=backend, use_cache=False)
                result = BatchEngine(config).scan(ruleset, data)
                if backend == "native":  # a native bulk scan makes none
                    assert seen == []
                else:
                    assert seen and seen[0].data is data
                    assert not all(tin._cls is None for tin in seen)
        assert result == _run(ruleset, data, "python")

    @settings(max_examples=3, deadline=None)  # one cc run per example
    @given(
        words=st.lists(
            st.text("abc", min_size=3, max_size=6), min_size=4, max_size=7, unique=True
        ),
        classes=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_lockstep_blocks_at_every_seam(self, words, classes, seed):
        """Streams longer than a lockstep block — literal-only rulesets,
        whose bins merge, and class-bearing ones — through cells of the
        conformance matrix: a seam every few bytes, snapshotted and
        restored on every backend, then bulk under ``input_jobs`` 1 and
        2; the lockstep path ran, and not on every span."""
        if classes:  # every second character a class
            words = [
                "".join("[^a]" if i % 2 else c for i, c in enumerate(w)) for w in words
            ]
        ruleset = compile_ruleset(words)
        assume(not ruleset.rejected)
        assume(all(r.mode is CompiledMode.LNFA for r in ruleset))
        rng = random.Random(seed)
        stream = bytearray(rng.choices(b"abc", k=codegen.LANE_SUBSPANS * 128 + 90))
        for at in range(7, len(stream) - 8, 61):  # witnesses, some across seams
            literal = rng.choice(words).replace("[^a]", "b").encode()
            stream[at : at + len(literal)] = literal
        case = Case(words, bytes(stream), bin_size=2)
        with cells.on("native"):
            lanes = cells.bound(case, "auto", "native").plan.scanner
        assert lanes.bin_count > 1
        # literals: prefixes shared across bins only shrink a trie
        assert classes or " / 1 group of " in lanes.lane_tier
        native = lanes._native_scanner()
        blocks, fn = [], native._span_fn

        def probed(*args):
            rc = fn(*args)
            visits = native._ws.visits  # the buffer args[10] points at
            later = len(visits) // codegen.LANE_SUBSPANS
            blocks.append(any(visits[later:]))
            return rc

        native._span_fn = probed
        cells.durable(case, "auto", range(1, len(stream), 7), backends=HOST)
        for backend in HOST:
            for input_jobs in cells.INPUT_JOBS:
                cells.bulk(case, "auto", backend, input_jobs, min_chunk=64)
        # only the later sub-spans of a block count into the later
        # histograms: the lockstep path ran, and not on every span
        assert set(blocks) == {False, True}

    def test_keywords64_input_jobs_and_sigkill_resume(self, tmp_path):
        keywords = cells.pinned("keywords64")
        cells.sigkill_resume(
            keywords, tmp_path, "native", [("native", 2)], input_jobs=2
        )

    def test_fresh_processes_emit_the_same_lane_source(self):
        """The closure is numbered breadth-first over ordered
        containers only: hash randomisation cannot reorder it, so two
        processes agree on the ``.so`` cache key."""
        program = (
            "from benchmarks.ledger.workloads import keyword_patterns\n"
            "from repro.compiler import compile_ruleset\n"
            "from repro.core import codegen, use_backend\n"
            "from repro.core.native import source_key\n"
            "from repro.hardware.config import DEFAULT_CONFIG\n"
            "from repro.simulators.rap import bind\n"
            "ruleset = compile_ruleset(keyword_patterns() + ['^ab.d$'])\n"
            "with use_backend('fused'):\n"
            "    plan = bind(ruleset, DEFAULT_CONFIG).plan\n"
            "masks = [layout.tile_masks for layout in plan.layouts]\n"
            "kernel = codegen.lane_scan_source(plan.fused, masks)\n"
            "print(kernel.tier, source_key(kernel.source))\n"
        )
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, cwd=repo, check=True,
                env=dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("dfa (")


def nfa_rulesets():
    """2-5 regexes a forced-NFA compile keeps as GATHER units — classes,
    alternations, stars, ``^`` / ``$`` — led by a literal wider than one
    machine word (the bit-parallel C emitter this table replaced could
    not take it; a table has no width)."""
    atom = st.sampled_from(
        ["a", "b", "c", "[ab]", "[^a]", ".", "(a|bc)", "(ab|c)", "a*", "b+",
         "(a|b)*", "c?"]
    )
    body = st.lists(atom, min_size=2, max_size=5).map("".join)
    decorated = st.tuples(st.booleans(), st.booleans(), body).map(
        lambda t: "^" * t[0] + t[2] + "$" * t[1]
    )
    wide = st.integers(65, 80).map(
        lambda n: "".join("abc"[i * i % 3] for i in range(n))
    )
    return st.tuples(wide, st.lists(decorated, min_size=1, max_size=4)).map(
        lambda t: [t[0], *t[1]]
    )


def _nfa_programs(patterns):
    """The GATHER programs of a forced-NFA compile, or ``None`` when the
    compiler rejects a pattern (an empty-matching body, say)."""
    from repro.automata.nfa import NFASimulator

    ruleset = compile_ruleset(patterns, CompilerConfig(forced_mode=CompiledMode.NFA))
    if ruleset.rejected or any(r.mode is not CompiledMode.NFA for r in ruleset):
        return None
    return [
        NFASimulator(r.automaton).program(
            anchored_start=r.anchored_start, anchored_end=r.anchored_end
        )
        for r in ruleset
    ]


def _assert_units_identical(
    programs, stream, *, backend, slack=4096, states_cap=None, seed=0
):
    """GATHER programs and one stream through every contract of
    :meth:`FusedRuleset.scan_span`, cursor by cursor against
    ``PythonKernel``: all units in one call, one seam at every offset
    chained through the exit words, warm-up windows, and random cursor
    lists — any units, one unit several times at different entry words.
    ``slack`` sizes the event buffer: ``m + slack`` entries for ``m``
    cursors (0: the kernel returns after every byte that reports)."""
    from repro.core.fused import FusedRuleset
    from repro.core.pykernel import PythonKernel

    oracle = PythonKernel()
    rng = random.Random(seed)
    numbers = range(len(programs))

    def want(number, entry, segment, *, stats_from=0, at_end=True):
        # scan_segment reads freshness off the offset; any other offset
        # is "mid-stream", and only shifts the reported positions
        shift = 0 if entry is None else 1
        state = KernelState(offset=shift, states=entry or 0)
        _, _, state = oracle.scan_segment(
            programs[number], segment[:stats_from], state, at_end=False
        )
        events, stats, state = oracle.scan_segment(
            programs[number], segment[stats_from:], state, at_end=at_end
        )
        return [(i - shift, hits) for i, hits in events], stats, state.states

    with contextlib.ExitStack() as patches:
        if states_cap is not None:
            patches.enter_context(
                mock.patch.object(codegen, "UNIT_DFA_MAX_STATES", states_cap)
            )
        patches.enter_context(use_backend(backend))
        fused = FusedRuleset(gather_programs=programs)
        tiers = [fused.unit_tier(number) for number in numbers]
        if states_cap is None:
            assert all(tier.startswith("table (") for tier in tiers), tiers
            assert fused.native_active == (backend == "native")
            assert "rap_units_span" in codegen.unit_scan_source(fused)
        else:  # the wide literal alone closes over > 64 states
            assert tiers[0] == f"interpreted (closure > {states_cap})"

        def check(cursors, segment, **span):
            if fused.native_active:
                fused._native_scanner()._cap = len(cursors) + slack
            got = fused.scan_span(fused.translate(segment), cursors, **span)[1]
            assert got == [
                want(number, entry, segment, **span) for number, entry in cursors
            ], (cursors, segment, span)
            return got

        fresh = [(number, None) for number in numbers]
        check(fresh, stream)
        reached = [{0} for _ in numbers]  # active sets met at some seam
        for cut in range(1, len(stream)):
            first = check(fresh, stream[:cut], at_end=False)
            exits = [word for _, _, word in first]
            for words, word in zip(reached, exits):
                words.add(word)
            check(list(zip(numbers, exits)), stream[cut:])

        # Warm-up windows: the prefix drives the states, owns nothing.
        for warm_start in (0, 1, len(stream) // 2):
            entry = None if warm_start == 0 else 0
            for start in range(warm_start, len(stream), 3):
                check(
                    [(number, entry) for number in numbers],
                    stream[warm_start:],
                    stats_from=start - warm_start,
                )

        # Any cursor list is one call: a subset of the units, a unit
        # twice, fresh beside mid-stream.
        for _ in range(12):
            cursors = [
                (number, rng.choice([None, *sorted(reached[number])]))
                for number in rng.choices(numbers, k=rng.randint(1, 2 * len(numbers)))
            ]
            cut = rng.randrange(len(stream))
            check(cursors, stream[cut:], at_end=rng.random() < 0.5)
    return fused


@pytest.mark.parametrize(
    "backend",
    [
        "fused",
        pytest.param("native", marks=needs_native),
    ],
)
class TestUnitForest:
    """Every GATHER unit is one table, stepped as cursors over a forest
    — by the generated ``rap_units_span`` or the portable walker — ≡
    ``PythonKernel``, event words, counters and exit sets; and so is a
    unit whose closure blows the cap, walked on a table that restarts."""

    @settings(max_examples=4, deadline=None)  # one cc run per native example
    @given(
        patterns=nfa_rulesets(),
        data=inputs(alphabet="abcx", max_size=24),
        knob=st.sampled_from(["hit buffer 1", "event slack 1"]),
    )
    def test_random_nfa_rulesets_at_every_seam(self, backend, patterns, data, knob):
        """Cells of the conformance matrix, every unit forced to NFA: a
        seam at every offset restored on every backend, and on native an
        event buffer of one entry per cursor, or one more."""
        assume(_nfa_programs(patterns) is not None)
        # the wide literal itself in the stream: subsets past bit 64
        half = len(data) // 2
        stream = data[:half] + patterns[0].encode() + data[half:] + b"a"
        config = CompilerConfig(forced_mode=CompiledMode.NFA)
        case = Case(patterns, stream, compiler=config)
        cells.durable(case, "auto", backends=("python", backend))
        if backend == "native":
            cells.sweep(case, "auto", knob)

    @settings(max_examples=5, deadline=None)
    @given(patterns=nfa_rulesets(), data=inputs(alphabet="abcx", max_size=24))
    def test_over_cap_units_keep_the_mask_stack(self, backend, patterns, data):
        programs = _nfa_programs(patterns)
        assume(programs is not None)
        stream = patterns[0].encode() + data + b"b"
        _assert_units_identical(
            programs, stream, backend=backend, slack=0, states_cap=8
        )

    def test_anchors_alternations_and_dense_events(self, backend):
        """Deterministic: every decoration at once, an event on nearly
        every byte through an ``m``-entry buffer, end-anchored witnesses
        on the last byte."""
        patterns = [
            "abcabcabc" * 8, "^ab", "[ab]", "(a|b)*c", "^(ab|c)+$", "b.a", "c$",
            "a(b|c)*a",
        ]
        stream = b"abcabcABCabcabcabcxabBAabcabcab.cabc"
        programs = _nfa_programs(patterns)
        for slack in (0, 1):
            _assert_units_identical(programs, stream, backend=backend, slack=slack)
        fused = _assert_units_identical(
            programs, stream, backend=backend, states_cap=8
        )
        assert {fused.unit_tier(n).split(" (")[0] for n in range(len(patterns))} == {
            "table", "interpreted"
        }

    def test_the_real_blow_up_stays_interpreted(self, backend, capsys, tmp_path):
        """``(a|b)*a(a|b){11}c`` as an NFA: 4 098 subsets, two past the
        cap — found out quickly, said by ``--explain``, scanned exactly."""
        import time

        from repro.cli import main

        pattern = "(a|b)*a(a|b){11}c"
        (program,) = _nfa_programs([pattern])
        fused = _assert_units_identical(
            [program], b"abbaabababbbcabababbbbaabbac", backend=backend,
            states_cap=codegen.UNIT_DFA_MAX_STATES,
        )
        assert fused.unit_tier(0) == "interpreted (closure > 4096)"
        with mock.patch.object(codegen, "UNIT_DFA_MAX_STATES", 4098):
            with use_backend(backend):
                from repro.core.fused import FusedRuleset

                closed = FusedRuleset(gather_programs=[program])
        assert closed.unit_tier(0) == "table (4098 states)"
        start = time.perf_counter()
        with use_backend(backend):
            FusedRuleset(gather_programs=[program])
        assert time.perf_counter() - start < 0.5  # ~10 ms at reference speed

        engine = BatchEngine(
            EngineConfig(backend=backend, mode="nfa", use_cache=False)
        )
        easy = "ab(c|d)*e"
        assert [entry.tier for entry in engine.explain([pattern, easy])] == [
            "interpreted (closure > 4096)", "table (6 states)",
        ]
        rules = tmp_path / "rules.txt"
        rules.write_text(f"{pattern}\n{easy}\n")
        stream = tmp_path / "in.bin"
        stream.write_bytes(b"x")
        assert main(
            ["scan", "--patterns", str(rules), str(stream), "--explain",
             "--mode", "nfa", "--backend", backend]
        ) == 0
        out = capsys.readouterr().out
        assert "unit tier: interpreted (closure > 4096)" in out
        assert "unit tier: table (6 states)" in out
        data = bytes(random.Random(5).choices(b"ab", k=4000)) + b"c"
        ruleset = compile_ruleset(
            [pattern, easy], CompilerConfig(forced_mode=CompiledMode.NFA)
        )
        assert _run(ruleset, data, backend) == _run(ruleset, data, "python")
        with mock.patch.object(codegen, "UNIT_DFA_MAX_STATES", 8):
            assert [e.tier for e in engine.explain(["abcabcabc", easy])] == [
                "interpreted (closure > 8)", "table (6 states)",
            ]

    def test_hostile_stream_cannot_grow_an_unclosed_table(self, backend):
        """The blow-up again, under a stream that visits every one of
        its 4 098 subsets: the walker interns them as they come,
        restarts at the cap, and holds at most ``closed + cap`` states
        plus the row it is filling — results equal ``PythonKernel``'s
        span by span."""
        from repro.core.fused import FusedRuleset
        from repro.core.pykernel import PythonKernel
        from repro.core.table import StepTable

        (program,) = _nfa_programs(["(a|b)*a(a|b){11}c"])
        with use_backend(backend):
            fused = FusedRuleset(gather_programs=[program])
        table = fused._units[0].table
        cap = codegen.UNIT_DFA_MAX_STATES
        assert (table.closed, table.cap, len(table)) == (0, cap, 1)
        rng = random.Random(11)
        stream = b"".join(
            bytes(rng.choices(b"ab", k=rng.randrange(12, 400))) + b"c"
            for _ in range(400)
        )
        sizes = []
        row = StepTable.row

        def measured(table, sid):
            sizes.append(len(table))
            return row(table, sid)

        state, entry = KernelState(), None
        with _counting_restarts() as restarts:
            with mock.patch.object(StepTable, "row", measured):
                for at in range(0, len(stream), 20_000):
                    segment = stream[at : at + 20_000]
                    at_end = at + 20_000 >= len(stream)
                    ((events, stats, entry),) = fused.scan_span(
                        fused.translate(segment), [(0, entry)], at_end=at_end
                    )[1]
                    want, want_stats, state = PythonKernel().scan_segment(
                        program, segment, state, at_end=at_end
                    )
                    assert [(at + i, hits) for i, hits in events] == want
                    assert (stats, entry) == (want_stats, state.states)
        assert restarts and not table.closed
        # a row of this unit interns at most one state per distinct label
        assert max(sizes) <= cap + 1 and len(table) <= cap + 1 + 3

    def test_units_the_forest_has_no_room_for_are_walked(
        self, backend, caplog, capsys, tmp_path
    ):
        """Sixteen 2 050-state closures: all place in a forest of 2^23
        ``NEXT`` words, so the capacity is patched down to fifteen of
        them — the sixteenth walks its table in Python beside the
        compiled fifteen, and so does a unit one of whose states holds
        more than 255 live positions.  Said once, out loud; named by
        ``--explain``; results equal."""
        from repro.core.fused import FusedRuleset
        from repro.core.pykernel import PythonKernel

        crowd = [f"(a|b)*a(a|b){{10}}{chr(last)}" for last in range(ord("c"), ord("s"))]
        tails = "cdefghijklmnopqrst"  # 18 x 18 branches, all live after an ``a``
        fan = "|".join(f"a[b{x}][b{y}]" for x in tails for y in tails)
        patterns = crowd + [fan]
        programs = _nfa_programs(patterns)
        witness = b"a" + b"b" * 10
        noise = bytes(random.Random(3).choices(b"ab", k=300))
        stream = noise + witness + b"q" + witness + b"r" + b"abc"
        cursors = [(n, None) for n in range(17)]
        with use_backend(backend):
            fused = FusedRuleset(gather_programs=programs)
            roomy = FusedRuleset(gather_programs=programs[:16])
        assert {fused.unit_tier(n) for n in range(16)} == {"table (2050 states)"}
        assert max(live for (live,) in fused._units[16].table.bits) == 18 * 18
        room = 15 * 2050 * fused.classes.k
        with mock.patch.object(codegen, "FOREST_ENTRIES", room):
            with caplog.at_level(logging.WARNING, logger="repro.core.native"):
                got = fused.scan_span(fused.translate(stream), cursors)[1]
                fused.scan_span(fused.translate(stream), cursors)
            said = [(r.levelno, r.args) for r in caplog.records]
            engine = BatchEngine(
                EngineConfig(backend=backend, mode="nfa", use_cache=False)
            )
            report = engine.forest_report(patterns)
            (tmp_path / "rules.txt").write_text("\n".join(patterns) + "\n")
            (tmp_path / "in.bin").write_bytes(stream)
            from repro.cli import main

            assert main(
                ["scan", "--patterns", str(tmp_path / "rules.txt"),
                 str(tmp_path / "in.bin"), "--explain", "--mode", "nfa",
                 "--backend", backend]
            ) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[2 : 2 + len(report)] == report  # under the two header lines
        if backend == "native":
            native = fused._native_scanner()
            assert native.bases == [
                *(2050 * n for n in range(15)), "forest full", "live > 255"
            ]
            assert roomy._native_scanner().bases == [2050 * n for n in range(16)]
            assert said == [(logging.WARNING, (2,))]  # once per ruleset
            key = source_key(native._source)[:16]
            vectors = native.forest_lanes == 16  # the host's cc targets AVX-512
            step = (
                "state vectors, 15 units in 1 vector"
                if vectors
                else "scalar (no AVX-512 target)"
            )
            assert report == [
                f"native library {key}: unit forest 15 of 17 tables "
                f"({room} of {room} entries), {step}",
                "  unit 15: forest full",
                "  unit 16: live > 255",
            ]
        else:
            assert report == [] and said == []
        assert [(events, stats) for events, stats, _ in got] == [
            PythonKernel().scan_segment(program, stream)[:2] for program in programs
        ]
        assert all(events for events, _, _ in got[-3:])  # ...q, ...r and abc fired
        placed = roomy.scan_span(roomy.translate(stream), cursors[:16])[1]
        assert [span[:2] for span in got[:16]] == [span[:2] for span in placed]

    def test_entry_word_outside_the_closure_steps_the_mask_stack(
        self, backend, caplog
    ):
        from repro.core.pykernel import PythonKernel

        programs = _nfa_programs(["abcdef", "b(c|d)*e"])
        with use_backend(backend):
            from repro.core.fused import FusedRuleset

            fused = FusedRuleset(gather_programs=programs)
        # "abc" and "abcde" matched so far: no input leaves both true.
        foreign = 1 << 2 | 1 << 4
        table = fused._units[0].table
        assert table.closed_id(foreign) is None and len(table) == table.closed
        tin = fused.translate(b"fab.abcdef")
        with caplog.at_level(logging.DEBUG, logger="repro.core.fused"):
            got = fused.scan_span(tin, [(0, foreign), (1, 0), (0, foreign)])[1]
            fused.scan_span(tin, [(0, foreign)])
        logged = [r for r in caplog.records if "outside its" in r.message]
        assert len(logged) == 1 and "unit 0" in logged[0].message
        # interned past the closure: still not a state of the C tables
        assert table.ids[foreign] >= table.closed
        assert table.closed_id(foreign) is None
        want = [
            PythonKernel().scan_segment(
                programs[number], tin.data, KernelState(offset=1, states=entry)
            )
            for number, entry in [(0, foreign), (1, 0), (0, foreign)]
        ]
        assert got == [
            ([(i - 1, hits) for i, hits in events], stats, state.states)
            for events, stats, state in want
        ]
        assert [i for i, _ in got[0][0]] == [0, 9]  # abcde|f, then the whole word
        # ... and the exit set is back inside the closure.
        assert table.closed_id(got[0][2]) is not None

    def test_collectors_of_one_unit_restored_to_different_states(self, backend):
        """A hand-assembled snapshot whose two regexes share a unit but
        disagree on its state: two cursors of the one call, each exact."""
        from tests.engine.test_checkpoint import _plan_ruleset

        ruleset, data = _plan_ruleset("nfa")
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        cut = 7  # "abc.abb": regexes 0 and 1 (ab*c twice) are mid-match
        other = b"q..xyza"  # as long, and leaves their unit elsewhere

        with use_backend(backend):
            plan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)._plan
        assert plan.unit_index[0] == plan.unit_index[1]

        def resumed(which):
            with use_backend(which):
                docs = []
                for prefix in (data[:cut], other):
                    scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
                    scan.feed(prefix, at_end=False)
                    docs.append(scan.snapshot())
                doc, donor = docs
                states = [d["regex"][1][1]["scanner"]["states"] for d in docs]
                assert "0" not in states and states[0] != states[1]
                doc["regex"][1] = donor["regex"][1]
                scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
                scan.restore_detached(json.loads(json.dumps(doc)))
                scan.feed(data[cut:], at_end=True)
                return cells.canonical(scan.snapshot()), scan.finish()

        assert resumed(backend) == resumed("python")

    def test_more_cursors_than_one_call_steps(self, backend):
        """Past the kernel's private arrays a cursor list is as many
        calls as it takes: 2 060 cursors — three units at every state a
        scan of the stream meets, over and over — each equal to its own
        single-cursor scan."""
        from repro.core.fused import FusedRuleset

        programs = _nfa_programs(["a(b|c)*d", "^ab", "b.a$"])
        stream = b"abcbcdxabbadab.a"
        with use_backend(backend):
            fused = FusedRuleset(gather_programs=programs)
        tin = fused.translate(stream)
        entries = [(n, None) for n in range(3)]
        for cut in range(1, len(stream)):
            exits = fused.scan_span(
                fused.translate(stream[:cut]), entries[:3], at_end=False
            )[1]
            entries += [(n, word) for n, (_, _, word) in enumerate(exits)]
        cursors = (entries * 43)[:2060]
        assert len(cursors) > 2 * codegen.UNIT_SPAN_CURSORS
        alone = {cursor: fused.scan_span(tin, [cursor])[1][0] for cursor in entries}
        assert fused.scan_span(tin, cursors)[1] == [alone[c] for c in cursors]
        assert any(events for events, _, _ in alone.values())

    def test_snort_nfa64_input_jobs_and_sigkill_resume(self, backend, tmp_path):
        snort = cells.pinned("snort_nfa64")
        cells.bulk(snort, "auto", backend, 2, min_chunk=512)
        if backend == "native":
            cells.sigkill_resume(snort, tmp_path, "native", ["fused"], input_jobs=2)


def test_fresh_processes_emit_the_same_unit_source():
    """Closure ids are breadth-first over ordered containers only:
    hash randomisation cannot reorder a table, so two processes
    agree on the unit ``.so`` cache key."""
    program = (
        "from benchmarks.ledger.workloads import RULESETS\n"
        "from repro.compiler import compile_ruleset\n"
        "from repro.core import codegen, use_backend\n"
        "from repro.core.native import source_key\n"
        "from repro.hardware.config import DEFAULT_CONFIG\n"
        "from repro.simulators.rap import bind\n"
        "ruleset = compile_ruleset(RULESETS['snort_nfa64']() + ['^a(b|c)*d$'])\n"
        "with use_backend('fused'):\n"
        "    fused = bind(ruleset, DEFAULT_CONFIG).plan.fused\n"
        "print(fused.unit_tier(0), source_key(codegen.unit_scan_source(fused)))\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, cwd=repo, check=True,
            env=dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("table (")


# Every C function a binding's text can hold; ``rap_scan_span`` is the
# one Python calls, whichever of the others compiled.
KERNELS = {"rap_scan_span", "rap_lane_scan", "rap_units_span", "rap_nbva_span"}

# A ruleset of NBVA units alone (every pattern counted).
NBVA_ONLY = ["ab{10,20}c", "x[0-9]{5,40}y", "q.{3,30}z"]


@needs_native
@pytest.mark.parametrize(
    "name, kernels",
    [
        ("keywords64", {"rap_scan_span", "rap_lane_scan"}),
        ("snort_nfa64", {"rap_scan_span", "rap_units_span"}),
        ("snort_mix16", KERNELS),
        ("forced_dfa", {"rap_scan_span", "rap_units_span"}),
        ("nbva_only", {"rap_scan_span", "rap_nbva_span"}),
    ],
)
def test_generated_sources_compile_warning_free(
    name, kernels, tmp_path, monkeypatch
):
    """The one text each binding shape emits — the three ledger
    rulesets, a forced DFA set and NBVA units alone, each with its lanes
    walked when it has some — holds ``rap_scan_span`` and the kernels of
    the tiers that compiled, and passes ``cc -fsyntax-only -Wall -Wextra
    -Werror`` — and, where it holds the state-vector step, with
    ``-march=native`` too where the compiler takes it (the mix's, on a
    host with VPOPCNTDQ, as ``vpopcntd`` at ``-O3``)."""
    from benchmarks.ledger.workloads import RULESETS
    from repro.core.native import _find_compiler
    from repro.simulators.fused import FusedPlan

    if name == "forced_dfa":
        ruleset = compile_ruleset(
            ["ab*c", "foo[0-9]*bar"], CompilerConfig(forced_mode=CompiledMode.DFA)
        )
    else:
        patterns = NBVA_ONLY if name == "nbva_only" else RULESETS[name]()
        ruleset = compile_ruleset(patterns)
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    with use_backend("native"):
        plan = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
    masks = [layout.tile_masks for layout in plan.layouts]
    binding = codegen.binding_source(plan.fused, masks)
    sources = [binding.source]
    assert {k for k in KERNELS if f"int {k}(" in binding.source} == kernels
    if plan.scanner is not None:
        assert binding.lanes.tier.startswith("dfa (")
        # a bin's cap is read when its table is built: a new plan
        monkeypatch.setattr(codegen, "LANE_DFA_MAX_STATES", 8)
        with use_backend("native"):
            capped = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
        with pytest.raises(ValueError, match="bin 0 closure > 8"):
            codegen.lane_scan_source(capped.fused, masks)
        walked = codegen.binding_source(capped.fused, masks)
        assert walked.lanes is None and walked.lanes_why == "bin 0 closure > 8"
        assert "int rap_lane_scan(" not in walked.source
        assert bool(walked.source) == bool(codegen.unit_scan_source(capped.fused))
        sources.append(walked.source)
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
    # every GATHER unit of these shapes packs: the state-vector step
    vectors = name not in ("keywords64", "nbva_only")
    assert ("vectors_body" in binding.source) == vectors
    assert binding.scalar_why is None
    if vectors:
        march = [_find_compiler(), "-fsyntax-only", "-march=native"]
        march.append(str(tmp_path / "unit0.c"))  # the binding's one text
        if subprocess.run(march, capture_output=True).returncode == 0:
            proc = subprocess.run(
                march[:2] + ["-Wall", "-Wextra", "-Werror"] + march[2:],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr[:2000]
    flags = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as cpu:
            flags = cpu.read()
    if name == "snort_mix16" and "avx512_vpopcntdq" in flags.split():
        # the per-lane popcount loop compiles to one vpopcntd per vector
        asm = [_find_compiler(), "-O3", "-march=native", "-S", "-o", "-"]
        proc = subprocess.run(
            asm + [str(tmp_path / "unit0.c")], capture_output=True, text=True
        )
        assert proc.returncode == 0 and "vpopcntd" in proc.stdout, proc.stderr[:2000]


_SANITIZED_MAIN = r"""
#include <stdio.h>
#include <stdlib.h>
/* lane <raw stream> <n> <stats_from> <cap>: every buffer is an exact-size
   heap block, so an out-of-range table index or hit slot lands in a
   redzone.  One "batch" line per return: a lockstep block's hits come out
   of position order. */
int main(int argc, char **argv)
{
  long long n = atoll(argv[2]), stats_from = atoll(argv[3]), cap = atoll(argv[4]);
  long long nh = 0, resume = 0, h, j;
  uint8_t *data = malloc(n);
  uint32_t *state = calloc(NGROUPS, sizeof *state);
  long long *cycles = calloc(%(tiles)d, sizeof *cycles);
  long long *bits = calloc(%(tiles)d, sizeof *bits);
  long long *visits = calloc(K * NVISITS, sizeof *visits);
  long long *hit_pos = malloc(cap * sizeof *hit_pos);
  uint32_t *hit_states = malloc(cap * NGROUPS * sizeof *hit_states);
  FILE *f = fopen(argv[1], "rb");
  int rc;
  if (argc != 5 || !f || fread(data, 1, n, f) != (size_t)n) return 2;
  do {
    rc = rap_lane_scan(data, n, resume, state, 1, 1, stats_from, cycles, bits,
                       visits, hit_pos, hit_states, cap, &nh, &resume);
    printf("batch %%d %%lld\n", rc, resume);
    for (h = 0; h < nh; h++) {
      printf("hit %%lld", hit_pos[h]);
      for (j = 0; j < NGROUPS; j++) printf(" %%u", hit_states[h * NGROUPS + j]);
      printf("\n");
    }
  } while (rc);
  for (j = 0; j < %(tiles)d; j++) printf("tile %%lld %%lld\n", cycles[j], bits[j]);
  free(data); free(state); free(cycles); free(bits); free(visits);
  free(hit_pos); free(hit_states); fclose(f);
  return 0;
}
"""

_SANITIZED_L = 64  # sub-span bytes the sanitized lane kernel is rebuilt with


@needs_native
@pytest.mark.parametrize("name", ["keywords64", "snort_mix16", "anchored"])
def test_lane_kernel_sanitized(name, tmp_path):
    """The lane kernel of each ledger ruleset with LNFA bins (and of
    keywords beside a start-anchored and an end-anchored bin), in the
    one text its binding builds (the mix's beside its units), rebuilt
    with ``L`` = 64 and a generated ``main()`` under ASan + UBSan over
    *raw* bytes: clean exit,
    and counters and hits equal to the bin collectors' — with a
    witness across every sub-span seam (ending on a sub-span's last byte,
    its first, and in between), ``stats_from`` inside the first block, a
    three-entry buffer (serial continuations only), one that refills
    between blocks, and streams of ``K·L − 1``, ``K·L`` and ``K·L + 1``
    bytes ending on an end-anchored final.  (The kernel's failure mode is
    an out-of-range table index, which corrupts silently in an ordinary
    build.)"""
    from benchmarks.ledger.workloads import RULESETS, keyword_patterns
    from repro.core.native import _find_compiler
    from repro.simulators.activity import BinActivityCollector
    from repro.simulators.fused import FusedPlan
    from repro.workloads.inputs import generate_input

    if name == "anchored":
        patterns = keyword_patterns()[:6] + ["^GET /idx", "tail$", "^ab"]
    else:
        patterns = RULESETS[name]()
    ruleset = compile_ruleset(patterns)
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    with use_backend("fused"):
        plan = FusedPlan(ruleset, mapping, DEFAULT_CONFIG)
    assert plan.scanner is not None  # the ruleset packs LNFA bins
    fused = plan.fused
    masks = [layout.tile_masks for layout in plan.layouts]
    kernel = codegen.lane_scan_source(fused, masks)
    assert kernel.tier.startswith("dfa (")
    binding = codegen.binding_source(fused, masks)  # the text a scan builds
    assert ("int rap_units_span(" in binding.source) == (name == "snort_mix16")
    subspans, sub = codegen.LANE_SUBSPANS, _SANITIZED_L
    block = subspans * sub
    generated = f"#define L {kernel.block // subspans}\n"
    assert sub >= fused.warm and generated in binding.source
    source = tmp_path / "lane.c"
    source.write_text(
        binding.source.replace(generated, f"#define L {sub}\n")
        + _SANITIZED_MAIN % dict(tiles=sum(map(len, masks)))
    )
    binary = tmp_path / "lane"
    build = subprocess.run(
        [_find_compiler(), "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(binary), str(source)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip("no sanitizer runtime: " + build.stderr[:200])

    def run(data, *, stats_from=0, cap=8192):
        """The binary over ``data`` against the oracle; returns each
        return's ``(rc, resume, hit positions)``."""
        stream = tmp_path / "raw.bin"
        stream.write_bytes(data)
        proc = subprocess.run(
            [str(binary), str(stream), str(len(data)), str(stats_from), str(cap)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = [line.split() for line in proc.stdout.splitlines()]
        tiles = [(int(c), int(b)) for tag, c, b in (l for l in lines if l[0] == "tile")]
        batches, hits = [], []
        for tag, *values in lines:
            if tag == "batch":
                batches.append((int(values[0]), int(values[1]), []))
            elif tag == "hit":
                position, *ids = map(int, values)
                batches[-1][2].append(position)
                hits.append(
                    (
                        position,
                        sum(
                            kernel.closure[g][sid] << fused.bases[first]
                            for g, (first, sid) in enumerate(zip(kernel.first, ids))
                        ),
                    )
                )
        hits.sort()
        assert len({position for position, _ in hits}) == len(hits)
        tile0 = 0
        for j, (bin_obj, layout) in enumerate(zip(plan.bins, plan.layouts)):
            oracle = BinActivityCollector(bin_obj, DEFAULT_CONFIG)
            _warm_bin(oracle, data[:stats_from])
            oracle.feed(data[stats_from:])
            want = oracle.activity()
            got = tiles[tile0 : tile0 + len(layout.tile_masks)]
            tile0 += len(layout.tile_masks)
            # tile 0 is never gated: the oracle counts every cycle there
            assert [c for c, _ in got][1:] == want.tile_active_cycles[1:]
            assert [b for _, b in got] == want.tile_active_bits
            matches = {rid: [] for rid in want.matches}
            for position, packed in hits:
                word = fused.extract(packed, j)
                if position != len(data) - 1:
                    word &= ~layout.end_anchored_mask
                for bit, rid in sorted(layout.finals.items()):
                    if word >> bit & 1:
                        matches[rid].append(position)
            assert matches == want.matches
        return batches

    # A literal witness across every sub-span seam: ending on the last
    # byte before it, on the first after it, and everywhere in between.
    literals = [p.encode() for p in patterns if p.isalnum()]
    body = bytearray(
        generate_input("network", 1 << 16, seed=4, patterns=patterns, plant_every=300)
    )
    for seam in range(sub, len(body) - sub, sub):
        word = literals[seam // sub % len(literals)] if literals else b""
        end = seam - 1 + -(seam // sub) % (len(word) + 1)
        body[end + 1 - len(word) : end + 1] = word
    data = (b"GET /idx" + bytes(body))[: 1 << 16]

    batches = run(data)
    assert batches[-1][:2] == (0, len(data))
    if literals:
        assert len(sum((b[2] for b in batches), [])) > len(data) // sub // 2
        # hits of one return out of position order: lockstep blocks ran
        assert any(b[2] != sorted(b[2]) for b in batches)
    assert run(data, stats_from=block // 2 + 3)[-1][:2] == (0, len(data))
    serial = run(data[: 12 * block], cap=3)  # smaller than any block
    assert all(b[2] == sorted(b[2]) for b in serial)
    if literals:
        assert len(serial) > 12 and all(len(b[2]) == 3 for b in serial[:-1])
        refilled = run(data, cap=block + 2)  # room for a block when empty only
        # ... and blocks resume after a drain
        assert sum(b[2] != sorted(b[2]) for b in refilled) > 1
    for n in (block - 1, block, block + 1, 2 * block + 1):
        tail = data[: n - 4] + b"tail"
        run(tail)
        run(tail, stats_from=n - 1)


_SANITIZED_UNITS_MAIN = r"""
#include <stdio.h>
#include <stdlib.h>
/* units <raw stream> <n> <stats_from> <cap - m> <forest id>...: exact-size
   heap blocks again; the forest itself is static const, so an out-of-range
   row offset is a global-buffer-overflow. */
int main(int argc, char **argv)
{
  int m = argc - 5, rc, u;
  long long n = atoll(argv[2]), stats_from = atoll(argv[3]);
  long long cap = m + atoll(argv[4]), ne = 0, resume = 0, e;
  uint8_t *data = malloc(n);
  uint32_t *state = malloc(m * sizeof *state);
  long long *active = calloc(m, sizeof *active);
  long long *ev_pos = malloc(cap * sizeof *ev_pos);
  int32_t *ev_cursor = malloc(cap * sizeof *ev_cursor);
  uint32_t *ev_state = malloc(cap * sizeof *ev_state);
  FILE *f = fopen(argv[1], "rb");
  if (m < 1 || !f || fread(data, 1, n, f) != (size_t)n) return 2;
  for (u = 0; u < m; u++) state[u] = strtoul(argv[5 + u], 0, 10);
  do {
    rc = rap_units_span(data, n, resume, state, m, 1, stats_from, active, ev_pos,
                        ev_cursor, ev_state, cap, &ne, &resume);
    for (e = 0; e < ne; e++)
      printf("ev %lld %d %u\n", ev_pos[e], ev_cursor[e], ev_state[e]);
    printf("return %d %lld\n", rc, resume);
  } while (rc);
  for (u = 0; u < m; u++) printf("exit %u %lld\n", state[u], active[u]);
  free(data); free(state); free(active); free(ev_pos); free(ev_cursor);
  free(ev_state); fclose(f);
  return 0;
}
"""


@needs_native
@pytest.mark.parametrize(
    "name, vectors",
    [
        pytest.param("snort_nfa64", False, id="snort_nfa64"),
        pytest.param("snort_mix16", False, id="snort_mix16"),
        pytest.param("snort_nfa64", True, id="snort_nfa64-march=native"),
        pytest.param("snort_mix16", True, id="snort_mix16-march=native"),
    ],
)
def test_unit_kernel_sanitized(name, vectors, tmp_path):
    """The unit forest of each ledger ruleset with GATHER units, in the
    one text its binding builds, with a generated ``main()`` under ASan +
    UBSan and run over fresh cursors, each shape against ``PythonKernel``
    — events, hit words, active sums and exit sets:

    * 1, 3, 17 and 65 cursors (no vector multiple; past the unit count a
      unit rides twice: the generic path) and the unit count in unit
      order (the folded or state-vector step) through an ``m``-entry
      event buffer, so the kernel returns and re-enters after every
      reporting byte;
    * three cursors over two 65 536-byte accumulator blocks and a tail,
      ``cap = m``, the first event on the first block's last byte: the
      flush and the continuation return coincide;
    * seventeen over the same stream in one call, the warm-up window
      ending inside the second block.

    ``vectors``: built with ``-march=native``, so on an AVX-512 host a
    span of every unit in unit order takes the state-vector step —
    ``snort_nfa64``'s first 47 patterns, its last vector 15 lanes, and
    the mix's six; the last two shapes run every unit in unit order."""
    from benchmarks.ledger.workloads import RULESETS
    from repro.core.native import _find_compiler
    from repro.core.pykernel import PythonKernel
    from repro.simulators.fused import FusedPlan
    from repro.simulators.rap import bind
    from repro.workloads.inputs import generate_input

    nfa = name == "snort_nfa64"
    patterns = RULESETS[name]()[: 47 if vectors and nfa else None]
    ruleset = compile_ruleset(patterns)
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    with use_backend("fused"):
        fused = FusedPlan(ruleset, mapping, DEFAULT_CONFIG).fused
    bases, _ = codegen.unit_forest(fused)
    units = fused._units
    assert units and all(isinstance(base, int) for base in bases)
    binding = codegen.binding_source(fused, fused.tile_masks)
    # every unit packs: the state-vector step for all of them, and the
    # scalar kernel folded for the mix's six beside its lanes
    assert binding.scalar_why is None and "vectors_body" in binding.source
    assert binding.fold == (0 if nfa else len(units))
    assert len(units) == (len(patterns) if nfa else 6)
    if vectors:
        with use_backend("native"):
            lanes = bind(ruleset, DEFAULT_CONFIG).plan.fused._native_scanner()
        if lanes.forest_lanes == 1:
            pytest.skip("the library reports no state-vector step (no AVX-512)")
    source = tmp_path / "units.c"
    source.write_text(binding.source + _SANITIZED_UNITS_MAIN)
    binary = tmp_path / "units"
    build = subprocess.run(
        [_find_compiler(), "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", *["-march=native"] * vectors, "-o",
         str(binary), str(source)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip("no sanitizer runtime: " + build.stderr[:200])
    oracle = PythonKernel()

    @functools.cache
    def want(number, data, stats_from):
        program = units[number].program
        _, _, state = oracle.scan_segment(program, data[:stats_from], at_end=False)
        events, stats, state = oracle.scan_segment(
            program, data[stats_from:], state if stats_from else None
        )
        return events, stats.active_states, state.states

    def run(data, numbers, *, stats_from=0, slack=0):
        """The binary over ``data`` with one fresh cursor per entry of
        ``numbers``; returns the continuation ``(rc, resume)`` pairs."""
        stream = tmp_path / "raw.bin"
        stream.write_bytes(data)
        ids = [bases[j] + units[j].table.closed_id(None) for j in numbers]
        proc = subprocess.run(
            [str(binary), str(stream), str(len(data)), str(stats_from), str(slack),
             *map(str, ids)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = [line.split() for line in proc.stdout.splitlines()]
        events = [[] for _ in numbers]
        for _, position, cursor, sid in (l for l in lines if l[0] == "ev"):
            events[int(cursor)].append((int(position), int(sid)))
        exits = [(int(l[1]), int(l[2])) for l in lines if l[0] == "exit"]
        assert len(exits) == len(numbers)
        wanted = {j: want(j, data, stats_from) for j in set(numbers)}
        for j, found, (sid, active) in zip(numbers, events, exits):
            program, table = units[j].program, units[j].table
            mid = program.final & ~program.end_anchored_finals
            got = [
                (
                    position,
                    table[s - bases[j]]
                    & (program.final if position == len(data) - 1 else mid),
                )
                for position, s in found
            ]
            assert (got, active, table[sid - bases[j]]) == wanted[j], (j, numbers)
        return [(int(l[1]), int(l[2])) for l in lines if l[0] == "return"]

    dense = generate_input(
        "network", (1 << 16) + 4097, seed=4, patterns=patterns, plant_every=150
    )
    for m in (1, 3, 17, 65, len(units)):  # the generic path, then in unit order
        returns = run(dense[: 1 << 15], [j % len(units) for j in range(m)])
    assert len(returns) > 4  # continuations
    few, many = (len(units), len(units)) if vectors else (3, 17)

    # A quiet block whose last byte completes some unit's first match
    # (every unit quiet before it, when every unit rides).
    quiet = generate_input("network", 1 << 16, seed=4, plant_every=1 << 20)
    silent = [
        j
        for j in range(len(units) if vectors else min(8, len(units)))
        if not want(j, quiet, 0)[0]
    ]
    position, loud = min(
        (want(j, dense, 0)[0][0][0], j) for j in silent if want(j, dense, 0)[0]
    )
    assert position >= 63
    block = quiet[: (1 << 16) - 64] + dense[position - 63 : position + 1]
    long = block + dense
    assert [p for p, _ in want(loud, long, 0)[0]][0] == (1 << 16) - 1
    cursors = list(range(few)) if vectors else ([loud, silent[0], loud] * few)[:few]
    returns = run(long, cursors)
    assert returns[0] == (1, 1 << 16) and returns[-1] == (0, len(long))
    assert run(
        long, [j % len(units) for j in range(many)], stats_from=70_000, slack=4096
    ) == [(0, len(long))]


_SANITIZED_NBVA_MAIN = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
/* nbva <raw stream> <n> <cut>...: exact-size heap blocks once more — each
   span's raw bytes, the cursor table, the vector words (each cursor's,
   then its scratch), one bitmap block per stall group (each cursor its
   own group, the bitmaps left unwritten: the kernel zeroes what it
   reads) — and a ONE-entry event buffer (room for one byte's match), so
   a word offset, event slot or bitmap word out of range is a redzone hit
   and every match forces a continuation, some across a cursor boundary.
   Every unit is a cursor of one call per span; the spans chain through
   the exit frontiers. */
int main(int argc, char **argv)
{
  static const int words[] = { %(words)s };
  enum { UNITS = sizeof words / sizeof *words, SPANS = %(spans)d };
  long long n, cuts[SPANS + 1], at[3], *ev = malloc(sizeof *ev), size = 0;
  long long *stalls = malloc(UNITS * sizeof *stalls);
  uint64_t *bits = malloc(UNITS * NBVA_BLOCK_WORDS * sizeof *bits);
  uint64_t *cursors = calloc(UNITS * NBVA_COLUMNS, sizeof *cursors), *vecs, *row;
  uint8_t *stream;
  FILE *f;
  int u, span, w, rc;
  if (argc != SPANS + 2 || !(f = fopen(argv[1], "rb"))) return 2;
  n = atoll(argv[2]);
  cuts[0] = 0; cuts[SPANS] = n;
  for (span = 1; span < SPANS; span++) cuts[span] = atoll(argv[span + 2]);
  stream = malloc(n);
  if (fread(stream, 1, n, f) != (size_t)n) return 2;
  for (u = 0; u < UNITS; u++) {
    cursors[u * NBVA_COLUMNS + C_UNIT] = u;
    cursors[u * NBVA_COLUMNS + C_VOFF] = size;
    cursors[u * NBVA_COLUMNS + C_GROUP] = u;
    size += 2 * words[u];
  }
  vecs = calloc(size, sizeof *vecs);
  for (span = 0; span < SPANS; span++) {
    long long base = cuts[span], len = cuts[span + 1] - base;
    uint8_t *data = malloc(len);
    memcpy(data, stream + base, len);
    for (u = 0; u < UNITS; u++) {
      row = cursors + u * NBVA_COLUMNS;
      row[C_FRESH] = base == 0;
      for (w = C_STATS; w < NBVA_COLUMNS; w++) row[w] = 0;
    }
    at[0] = at[1] = at[2] = 0;
    do {
      rc = rap_nbva_span(data, len, UNITS, span == SPANS - 1, cursors, vecs, ev,
                         1, at, bits, stalls, UNITS);
      for (u = 0; u < UNITS; u++)
        if (cursors[u * NBVA_COLUMNS + C_NMATCH])
          printf("ev %%d %%d %%lld\n", u, span, ev[0]);
    } while (rc);
    for (u = 0; u < UNITS; u++) {
      row = cursors + u * NBVA_COLUMNS;
      printf("span %%d %%d", u, span);
      for (w = C_STATS; w < NBVA_COLUMNS; w++)
        printf(" %%llu", (unsigned long long)row[w]);
      printf(" | %%llu %%llu", (unsigned long long)row[C_ACT],
             (unsigned long long)row[C_LIVE]);
      for (w = 0; w < words[u]; w++)
        printf(" %%llu", (unsigned long long)vecs[row[C_VOFF] + w]);
      printf(" | %%lld\n", stalls[u]);
    }
    free(data);
  }
  free(stream); free(cursors); free(vecs); free(ev); free(bits); free(stalls);
  fclose(f);
  return 0;
}
"""


@needs_native
@pytest.mark.parametrize("name", ["snort_mix16"])
def test_nbva_kernel_sanitized(name, tmp_path, monkeypatch):
    """The NBVA kernel — stack vectors, a scratch swap, word-offset
    arithmetic, both idle skips, the stall bitmaps — of the ledger
    ruleset with NBVA units (plus one start-anchored unit), in the one
    text its binding builds beside the lanes and the unit forest, rebuilt
    with 128-byte blocks and a generated ``main()`` under ASan + UBSan:
    all units as the cursors of one call per span, each its own stall
    group, a one-entry event buffer so every match forces a continuation,
    four spans chained through the exit frontiers — one of them a single
    byte, the last a run of idle bytes the frontiers die out in — clean
    exit, and matches, all eleven counters (``matched_states`` from the
    span's bytes), stall counts (the oracle's BV cycles) and exit
    frontiers equal to ``NBVAScanner``'s."""
    from benchmarks.ledger.workloads import RULESETS
    from repro.core.native import _find_compiler
    from repro.simulators.fused import FusedPlan
    from repro.workloads.inputs import generate_input

    patterns = RULESETS[name]() + ["^ab{10,20}c"]
    ruleset = compile_ruleset(patterns)
    assert ruleset.regexes[-1].mode is CompiledMode.NBVA
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    monkeypatch.setattr(codegen, "NBVA_BLOCK", 128)
    with use_backend("fused"):
        fused = FusedPlan(ruleset, mapping, DEFAULT_CONFIG).fused
    indices = codegen.native_nbva_indices(fused)
    assert len(indices) == fused.nbva_count
    assert any(fused._nbva[j].anchored_start for j in indices)
    layouts = [codegen.nbva_vector_layout(fused._nbva[j].automaton) for j in indices]
    assert max(words for layout, _ in layouts for _, words in layout.values()) > 1
    traffic = b"a" + b"b" * 12 + b"c" + generate_input(
        "network", 1 << 13, seed=4, patterns=patterns, plant_every=150
    )
    data = traffic + b"\0" * 1024
    third = len(traffic) // 3
    cuts = [0, third, third + 1, len(traffic), len(data)]  # a 1-byte span
    source = tmp_path / "nbva.c"
    source.write_text(
        codegen.binding_source(fused, fused.tile_masks).source
        + _SANITIZED_NBVA_MAIN
        % dict(words=", ".join(str(total) for _, total in layouts), spans=4)
    )
    binary = tmp_path / "nbva"
    build = subprocess.run(
        [_find_compiler(), "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(binary), str(source)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip("no sanitizer runtime: " + build.stderr[:200])
    stream = tmp_path / "raw.bin"
    stream.write_bytes(data)
    run = subprocess.run(
        [str(binary), str(stream), str(len(data)), *map(str, cuts[1:-1])],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    lines = [line.split() for line in run.stdout.splitlines()]
    events = [tuple(map(int, l[1:])) for l in lines if l[0] == "ev"]
    spans = {
        (int(l[1]), int(l[2])): [
            [int(v) for v in part.split()] for part in " ".join(l[3:]).split("|")
        ]
        for l in lines if l[0] == "span"
    }
    assert len(spans) == 4 * len(indices)
    fired = edges = 0
    for slot, (j, (layout, _)) in enumerate(zip(indices, layouts)):
        scanner = fused._nbva[j].scanner()
        for span in range(4):
            base, end = cuts[span], cuts[span + 1]
            stats, cycles = NBVAStats(), []
            matches = scanner.feed(
                data[base:end], stats, at_end=span == 3, bv_cycles=cycles
            )
            found = [ev for u, sp, ev in events if (u, sp) == (slot, span)]
            assert [base + ev for ev in found] == matches
            counters, (active, live, *vecs), (stalls,) = spans[slot, span]
            assert stalls == len(cycles)
            # BV cycles on both sides of a block edge
            edges += any((p - base) % 128 == 127 and p + 1 in cycles for p in cycles)
            # matched_states is the span's bytes dotted with the unit's
            # per-byte popcounts: the caller's sum, not the kernel's
            unit = fused._nbva[j]
            pops = [unit.labels[c].bit_count() + unit.cmatch[c].bit_count()
                    for c in fused.classes.class_of]
            assert sum(pops[b] for b in data[base:end]) == stats.matched_states
            counters[2] = stats.matched_states
            assert counters == list(dataclasses.astuple(stats)[:11])
            assert scanner.state == NBVAState(
                end,
                active,
                tuple(
                    (pid, sum(w << 64 * i for i, w in enumerate(vecs[at : at + n])))
                    for pid, (at, n) in layout.items()
                    if live >> pid & 1
                ),
            )
            fired += len(found)
        assert scanner.state.active == 0 and not scanner.state.vectors  # died out
    assert fired > 3 * len(indices)  # continuations: one per match
    assert edges


_SANITIZED_SCAN_MAIN = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
/* scan <raw stream> <n> <cut>...: every tier of the binding through
   rap_scan_span — a one-entry lane event buffer, a one-entry NBVA one
   (one byte's match), an m-entry unit one — against the same build's
   per-tier kernels with buffers no span fills, span by span, each
   side's spans chained through its own exit states.  The NBVA cursors
   fall in two stall groups (cursor u in group u %% 2).  A tier the
   binding lacks is absent on both sides (its count 0, its buffers one
   dummy entry).  Exact-size heap blocks again. */
#ifdef NGROUPS
#define LANES 1
#else
#define LANES 0
#define NGROUPS 1
#define K 1
#define NVISITS 1
#endif
#ifndef NBVA_MAX_WORDS
enum { C_UNIT, C_FRESH, C_VOFF, C_ACT, C_LIVE, C_GROUP, C_NMATCH, C_STATS,
       NBVA_COLUMNS = C_STATS + 11 };
#define NBVA_BLOCK_WORDS 1
#endif
static const uint32_t IDS[] = { %(ids)s };
static const int WORDS[] = { %(words)s };
enum { M = %(m)d, U = %(u)d, SPANS = %(spans)d, TILES = %(tiles)d, BIG = 1 << 16,
       G = U < 2 ? U : 2 };
typedef struct { long long pos; uint32_t ids[NGROUPS]; } hit;

static int by_pos(const void *a, const void *b)
{
  return memcmp(a, b, sizeof(hit));  /* little-endian: positions are < 2^31 */
}

static int same(const void *a, const void *b, size_t size, const char *what, int span)
{
  if (!memcmp(a, b, size)) return 1;
  printf("mismatch %%s %%d\n", what, span);
  return 0;
}

int main(int argc, char **argv)
{
  long long n, cuts[SPANS + 1], size = 0, nh = 0, ne, resume, at[3];
  long long *stalls = calloc(G + 1, 8), *rstalls = calloc(G + 1, 8);
  uint64_t *bits = malloc((G + 1) * NBVA_BLOCK_WORDS * 8);
  uint64_t *rbits = malloc((G + 1) * NBVA_BLOCK_WORDS * 8);
  long long *ctl = calloc(S_EVENTS + 1, sizeof *ctl), *hist = calloc(256, sizeof *hist);
  uint32_t *ls = calloc(NGROUPS, 4), *rls = calloc(NGROUPS, 4);
  uint32_t *us = malloc(sizeof IDS), *rus = malloc(sizeof IDS);
  uint64_t *cur = calloc((U + 1) * NBVA_COLUMNS, 8);
  uint64_t *rcur = calloc((U + 1) * NBVA_COLUMNS, 8);
  uint64_t *vecs, *rvecs;
  uint8_t *stream;
  FILE *f;
  int span, u, rc, w;
  if (argc != SPANS + 2 || !(f = fopen(argv[1], "rb"))) return 2;
  n = atoll(argv[2]);
  cuts[0] = 0; cuts[SPANS] = n;
  for (span = 1; span < SPANS; span++) cuts[span] = atoll(argv[span + 2]);
  stream = malloc(n);
  if (fread(stream, 1, n, f) != (size_t)n) return 2;
  for (u = 0; u < U; u++) {
    cur[u * NBVA_COLUMNS + C_UNIT] = u;
    cur[u * NBVA_COLUMNS + C_VOFF] = size;
    cur[u * NBVA_COLUMNS + C_GROUP] = u %% 2;
    size += 2 * WORDS[u];
  }
  memcpy(rcur, cur, U * NBVA_COLUMNS * 8);
  vecs = calloc(size + 1, 8); rvecs = calloc(size + 1, 8);
  memcpy(us, IDS, sizeof IDS); memcpy(rus, IDS, sizeof IDS);
  for (span = 0; span < SPANS; span++) {
    long long base = cuts[span], len = cuts[span + 1] - base, i, k, nr = 0, nm = 0;
    long long rne = 0, mne = 0, rnx = 0, mnx = 0, stalled = 0;
    long long direct[256] = { 0 };
    int at_end = span == SPANS - 1, ok = 1;
    uint8_t *data = malloc(len);
    long long *rtc = calloc(TILES, 8), *rtb = calloc(TILES, 8), *tc = calloc(TILES, 8);
    long long *tb = calloc(TILES, 8), *rvis = calloc(K * NVISITS, 8);
    long long *vis = calloc(K * NVISITS, 8);
    long long *hp = malloc(BIG * 8), *rhp = malloc(BIG * 8);
    uint32_t *hs = malloc(BIG * NGROUPS * 4), *rhs = malloc(BIG * NGROUPS * 4);
    hit *rh = malloc(BIG * sizeof(hit)), *mh = malloc(BIG * sizeof(hit));
    long long *act = calloc(M + 1, 8), *ract = calloc(M + 1, 8);
    long long *ep = malloc(BIG * 8), *rep = malloc(BIG * 8);
    int32_t *ec = malloc(BIG * 4), *rec = malloc(BIG * 4);
    uint32_t *es = malloc(BIG * 4), *res = malloc(BIG * 4);
    long long *ev = malloc(8), *rev = malloc(BIG * 8), *rex = malloc(BIG * 8);
    long long *mex = malloc(BIG * 8);
    long long *mep = malloc(BIG * 8);
    int32_t *mec = malloc(BIG * 4);
    uint32_t *mes = malloc(BIG * 4);
    memcpy(data, stream + base, len);
    /* the histogram counts owned bytes for the units' sake alone */
    for (i = 0; (M || U) && i < len; i++) direct[data[i]]++;
    for (u = 0; u < U; u++)
      for (w = C_FRESH; w < NBVA_COLUMNS; w++)
        if (w == C_FRESH || w >= C_NMATCH)
          cur[u * NBVA_COLUMNS + w] = rcur[u * NBVA_COLUMNS + w] =
              w == C_FRESH && !base;
    /* the reference: each tier alone, one call each */
#if LANES
    resume = 0;
    if (rap_lane_scan(data, len, 0, rls, !base, at_end, 0, rtc, rtb, rvis, rhp, rhs,
                      BIG, &nh, &resume)) return 3;
#endif
    for (k = 0; k < nh; k++) {
      rh[k].pos = rhp[k];
      memcpy(rh[k].ids, rhs + k * NGROUPS, sizeof rh[k].ids);
    }
    nr = nh;
#ifdef MAXM
    if (rap_units_span(data, len, 0, rus, M, at_end, 0, ract, rep, rec, res, BIG,
                       &rne, &resume)) return 3;
#endif
    at[0] = at[1] = at[2] = 0;
    /* (a block with matches returns, however big the buffer) */
#ifdef NBVA_MAX_WORDS
    do {
      rc = rap_nbva_span(data, len, U, at_end, rcur, rvecs, rev, BIG, at, rbits,
                         rstalls, G);
      for (u = 0, k = 0; u < U; u++)
        for (w = 0; w < (int)rcur[u * NBVA_COLUMNS + C_NMATCH]; w++)
          rex[rnx++] = rev[k++] * 1024 + u;
    } while (rc);
#endif
    /* the one crossing, re-entered after every full buffer */
    memset(ctl, 0, (S_EVENTS + 1) * sizeof *ctl);
    memset(hist, 0, 256 * sizeof *hist);
    ctl[S_LANES] = LANES ? !base : -1; ctl[S_UNITS] = M; ctl[S_NBVA] = U;
    ctl[S_LANE_CAP] = 1; ctl[S_UNIT_CAP] = M; ctl[S_NBVA_CAP] = 1; ctl[S_GROUPS] = G;
    do {
      rc = rap_scan_span(data, len, at_end, 0, cur, vecs, ctl, ls, tc, tb, vis, hp,
                         hs, us, act, ep, ec, es, ev, hist, bits, stalls);
      for (k = 0; k < ctl[S_HITS]; k++, nm++) {
        mh[nm].pos = hp[k];
        memcpy(mh[nm].ids, hs + k * NGROUPS, sizeof mh[nm].ids);
      }
      for (k = 0; k < ctl[S_EVENTS]; k++, mne++) {
        mep[mne] = ep[k]; mec[mne] = ec[k]; mes[mne] = es[k];
      }
      for (u = 0, k = 0; u < U; u++)
        for (w = 0; w < (int)cur[u * NBVA_COLUMNS + C_NMATCH]; w++)
          mex[mnx++] = ev[k++] * 1024 + u;
      printf("return %%d %%lld\n", rc, ctl[S_TIER]);
    } while (rc);
    qsort(rh, nr, sizeof(hit), by_pos);
    qsort(mh, nm, sizeof(hit), by_pos);
    ok &= nr == nm && same(rh, mh, nr * sizeof(hit), "lane hits", span);
    ok &= same(rtc, tc, TILES * 8, "tile cycles", span);
    ok &= same(rtb, tb, TILES * 8, "tile bits", span);
    ok &= same(rls, ls, NGROUPS * 4, "lane exit", span);
    ok &= rne == mne && same(rep, mep, rne * 8, "unit positions", span);
    ok &= same(rec, mec, rne * 4, "unit cursors", span);
    ok &= same(res, mes, rne * 4, "unit states", span);
    ok &= same(ract, act, M * 8, "active sums", span);
    ok &= same(rus, us, M * 4, "unit exits", span);
    ok &= rnx == mnx && same(rex, mex, rnx * 8, "nbva matches", span);
    ok &= !U || same(rstalls, stalls, G * 8, "stall counts", span);
    for (k = 0; U && k < G; k++) stalled += stalls[k];
    for (u = 0; u < U; u++)
      cur[u * NBVA_COLUMNS + C_NMATCH] = rcur[u * NBVA_COLUMNS + C_NMATCH];
    ok &= same(rcur, cur, U * NBVA_COLUMNS * 8, "nbva rows", span);
    for (u = 0; u < U; u++)  /* a cursor's vectors; its scratch half aside */
      ok &= same(rvecs + rcur[u * NBVA_COLUMNS + C_VOFF],
                 vecs + cur[u * NBVA_COLUMNS + C_VOFF], WORDS[u] * 8,
                 "nbva vectors", span);
    ok &= same(direct, hist, sizeof direct, "histogram", span);
    printf("span %%d %%s %%lld %%lld %%lld\n", span, ok ? "ok" : "bad", nr, rne,
           stalled + rnx);
    free(data); free(rtc); free(rtb); free(tc); free(tb); free(rvis); free(vis);
    free(hp); free(rhp); free(hs); free(rhs); free(rh); free(mh); free(act); free(ract);
    free(ep); free(rep); free(ec); free(rec); free(es); free(res); free(ev); free(rev);
    free(rex); free(mex); free(mep); free(mec); free(mes);
  }
  free(stream); free(ctl); free(hist); free(ls); free(rls); free(us); free(rus);
  free(cur); free(rcur); free(vecs); free(rvecs); free(stalls); free(rstalls);
  free(bits); free(rbits); fclose(f);
  return 0;
}
"""


@needs_native
def test_scan_span_sanitized(tmp_path, monkeypatch):
    """``rap_scan_span`` of every binding shape — lanes alone, the unit
    forest alone, NBVA units alone, units beside walked lanes, and the
    Fig. 1 mix (lanes, the folded unit forest, NBVA units) — under ASan +
    UBSan against the same build's per-tier kernels: a one-entry lane
    and NBVA event buffer (an ``m``-entry unit one) refilled across
    every tier boundary and, with 256-byte NBVA blocks for the NBVA units
    alone and one mix, inside blocks of spans many blocks long; stall
    counts of two groups; four spans chained through the exit states —
    one of them a single byte, the last all idle — and the histogram of
    each span's bytes (counted only beside units)."""
    shapes = [
        ("keywords64", None, None), ("snort_nfa64", None, None),
        ("nbva_only", None, 256), ("snort_mix16", 8, None),
        ("snort_mix16", None, 256),
    ]
    for index, (name, lane_cap, block) in enumerate(shapes):
        folder = tmp_path / str(index)
        folder.mkdir()
        _sanitized_scan_shape(folder, monkeypatch, name, lane_cap, block)


@needs_native
def test_scan_span_sanitized_gathered(tmp_path, monkeypatch):
    """The unit forest alone again (``snort_nfa64``), built with
    ``-march=native``: on an AVX-512 host its ``rap_scan_span`` and
    ``rap_units_span`` step the 64 cursors, in unit order, with the
    state-vector step."""
    from repro.simulators.rap import bind

    ruleset = compile_ruleset(cells.pinned("snort_nfa64").patterns)
    with use_backend("native"):
        native_ = bind(ruleset, DEFAULT_CONFIG).plan.fused._native_scanner()
    if native_.forest_lanes == 1:
        pytest.skip("the library reports no state-vector step (no AVX-512)")
    _sanitized_scan_shape(tmp_path, monkeypatch, "snort_nfa64", march=True)


def _sanitized_scan_shape(
    tmp_path, monkeypatch, name, lane_cap=None, block=None, *, march=False
):
    """One shape of :func:`test_scan_span_sanitized`."""
    from benchmarks.ledger.workloads import RULESETS
    from repro.core.native import _find_compiler
    from repro.simulators.fused import FusedPlan
    from repro.workloads.inputs import generate_input

    patterns = NBVA_ONLY if name == "nbva_only" else RULESETS[name]()
    ruleset = compile_ruleset(patterns)
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    with monkeypatch.context() as patch, use_backend("fused"):
        if lane_cap is not None:  # read when the tables are built
            patch.setattr(codegen, "LANE_DFA_MAX_STATES", lane_cap)
        if block is not None:
            patch.setattr(codegen, "NBVA_BLOCK", block)
        fused = FusedPlan(ruleset, mapping, DEFAULT_CONFIG).fused
        binding = codegen.binding_source(fused, fused.tile_masks)
    lanes = binding.lanes is not None
    if name == "snort_mix16" and lanes:
        assert binding.fold == len(fused._units) == 6
    bases, _ = codegen.unit_forest(fused)
    assert all(isinstance(base, int) for base in bases), name
    ids = [
        base + unit.table.closed_id(None) for base, unit in zip(bases, fused._units)
    ]
    indices = codegen.native_nbva_indices(fused)
    words = [
        codegen.nbva_vector_layout(fused._nbva[j].automaton)[1] for j in indices
    ]
    traffic = generate_input(
        "network", 1 << 13, seed=4, patterns=patterns, plant_every=150
    )
    data = traffic + b"\0" * 1024
    third = len(traffic) // 3
    cuts = [third, third + 1, len(traffic)]  # a 1-byte span, an idle last one
    source = tmp_path / "scan.c"
    source.write_text(
        binding.source
        + _SANITIZED_SCAN_MAIN
        % dict(
            ids=", ".join(map(str, ids + [0])), m=len(ids),
            words=", ".join(map(str, words + [0])), u=len(words), spans=4,
            tiles=sum(map(len, fused.tile_masks)) if lanes else 1,
        )
    )
    binary = tmp_path / "scan"
    build = subprocess.run(
        [_find_compiler(), "-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", *["-march=native"] * march, "-o",
         str(binary), str(source)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip("no sanitizer runtime: " + build.stderr[:200])
    stream = tmp_path / "raw.bin"
    stream.write_bytes(data)
    run = subprocess.run(
        [str(binary), str(stream), str(len(data)), *map(str, cuts)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, (name, run.stderr[-2000:])
    lines = [line.split() for line in run.stdout.splitlines()]
    bad = [line for line in lines if line[0] == "mismatch"]
    assert not bad, (name, run.stdout[-2000:])
    spans = [line[1:] for line in lines if line[0] == "span"]
    assert [(span, verdict) for span, verdict, *_ in spans] == [
        (str(k), "ok") for k in range(4)
    ], name
    held = lanes, bool(ids), bool(words)
    counts = [sum(int(line[k]) for line in spans) for k in (2, 3, 4)]
    assert [count > 3 for count in counts] == list(held), (name, counts)
    returns = [line[1:] for line in lines if line[0] == "return"]
    # a finished span leaves ctl at the next one's start (tier 0)
    assert {tier for rc, tier in returns if rc == "0"} == {"0"}, name
    tiers = [int(tier) for rc, tier in returns if rc == "1"]
    # full buffers in every tier it holds, and a lane return followed
    # by a later tier's: the drained buffer refilled across the
    # boundary
    assert {t for t, tier in enumerate(held) if tier} <= set(tiers), name
    if lanes and held != (True, False, False):
        assert any(a == 0 and b > 0 for a, b in zip(tiers, tiers[1:])), name


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

    def test_fingerprint_is_the_same_on_every_backend(self, monkeypatch):
        """Nothing persisted names a backend: the oracle, the portable
        tier, attached native kernels and a native request that fell
        back all write checkpoints any of the others resumes."""
        fingerprints = []
        for backend in ("python", "fused", "native"):
            with use_backend(backend):
                fingerprints.append(self._fingerprint())
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        with use_backend("native"):
            fingerprints.append(self._fingerprint())
        assert len(set(fingerprints)) == 1

    @pytest.mark.parametrize("name", ["keywords64", "mixed"])
    def test_checkpoint_resumes_on_any_backend(self, name, tmp_path):
        """A scan SIGKILLed on one backend resumes on another and prints
        what the uninterrupted scan prints: matches and the ``# RAP``
        metrics (more pairs: ``tests/conformance``)."""
        if name == "keywords64":
            case = cells.pinned("keywords64")
            cells.sigkill_resume(case, tmp_path, "fused", ["native", "python"])
            return
        # the NFA profile, an anchored unit, an LNFA bin, an NBVA unit
        patterns = [
            *cells.pinned("snort_nfa64").patterns, "^ab(c|d)*e$", "needle", "ab{10,20}c"
        ]
        data = generate_input(
            "network", 4000, seed=9, patterns=patterns, plant_every=300
        )
        case = Case(patterns, data)
        cells.sigkill_resume(case, tmp_path, "native", ["fused", "python"])

    def test_native_fingerprint_is_stable(self):
        with use_backend("native"):
            first = self._fingerprint()
            second = self._fingerprint()
        assert first == second
