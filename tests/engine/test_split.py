"""Input-parallel scanning is bit-identical to serial, at every level.

The assertions compare whole ``RunActivity`` / ``SimulationResult``
objects — matches, cycle counts, per-tile wake-ups, the energy ledger —
between the serial fused path and the split path, across both split
rules (warm-up windows: lane bins and acyclic NFA/DFA units; whole-stream
tasks: cyclic units and NBVA counters) and across the seams the windows
must survive: chunks shorter than the longest pattern, patterns
straddling a seam, a seam inside a cold run, and degenerate plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import available_backends, use_backend
from repro.engine import BatchEngine, BatchTask, EngineConfig, INPUT_JOBS_ENV
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.engine.partition import plan_chunks
from repro.engine.split import split_collect, unit_windows
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator, bind
from repro.workloads.inputs import generate_input

from tests.conformance import cells
from tests.conformance.cells import Case

# Lanes + acyclic and cyclic DFA + acyclic and cyclic NFA + NBVA
# counters: one ruleset that exercises both split rules on every kind of
# unit at once.  The dense dot patterns stay NFA under the cost model;
# the low-activity optional/star patterns take the DFA tier.
PATTERNS = [
    "abcdef",
    "hello",
    "ab?c?d",
    "a(bc)*d",
    "k{20,400}m",
    "(?:a.|.b){2}x",
    "a(?:b.*|c)d",
]


@pytest.fixture(scope="module")
def ruleset():
    return compile_ruleset(PATTERNS)


@pytest.fixture(scope="module")
def text():
    """``PATTERNS`` over 16 000 bytes of text: a conformance-matrix case."""
    return Case(PATTERNS, generate_input("text", 16000, seed=3, patterns=PATTERNS))


@pytest.fixture(scope="module")
def mapped(ruleset):
    sim = RAPSimulator(DEFAULT_CONFIG)
    return sim, sim.build_mapping(ruleset, bin_size=None)


# A cyclic unit wider than a machine word, forced to NFA mode.
WIDE = "a.*" + "bcdefghij" * 8
BACKENDS = [b for b in ("fused", "native") if b in available_backends()]


@pytest.fixture(scope="module")
def cases(ruleset, mapped):
    """name -> (patterns, ruleset, mapping): the plan shapes the split
    engine must keep exact."""
    sim, mapping = mapped
    found = {"mixed": (PATTERNS, ruleset, mapping)}
    for name, patterns, mode in [
        # no lanes, no windowed unit: whole-stream tasks only, no chunks
        ("windowless", ["a(bc)*d", "a(?:b.*|c)d", "k{20,400}m"], None),
        # one wide cyclic unit beside windowed ones
        ("wide", [WIDE, "hello", "ab?c?d"], CompiledMode.NFA),
        # a lone windowless unit: nothing to run beside it
        ("lone", ["a(?:b.*|c)d"], None),
    ]:
        compiled = compile_ruleset(
            patterns, CompilerConfig().with_mode_override(mode)
        )
        found[name] = patterns, compiled, sim.build_mapping(compiled, bin_size=None)
    return found


def _split(ruleset, mapping, data, *, input_jobs, min_chunk_bytes=64):
    return split_collect(
        bind(ruleset, DEFAULT_CONFIG, mapping=mapping),
        data,
        input_jobs=input_jobs,
        min_chunk_bytes=min_chunk_bytes,
    )


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every thread pool a split scan starts."""
    from repro.engine import split as split_mod

    sizes = []

    class Spy(split_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(split_mod, "ThreadPoolExecutor", Spy)
    return sizes


class TestSplitCollect:
    def test_classifies_every_mechanism(self, ruleset, mapped):
        _, mapping = mapped
        with use_backend("fused"):
            plan = bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan
            windows, warm = unit_windows(plan)
        assert plan.bins  # lane-packed LNFA units
        by_pattern = dict(zip((c.pattern for c in plan.units), windows))
        assert by_pattern == {
            "(?:a.|.b){2}x": 5,  # acyclic NFA: five positions deep
            "a(?:b.*|c)d": None,  # cyclic NFA
            "ab?c?d": 4,  # acyclic DFA
            "a(bc)*d": None,  # cyclic DFA
        }
        assert [c.pattern for c in plan.nbva_units] == ["k{20,400}m"]
        assert warm >= max(len(p) for p in ["abcdef", "hello"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_process_one_bind(self, backend, pools, monkeypatch):
        """A split scan forks nothing and binds once: its tasks are
        threads over the scan's own binding, however many scans."""
        from concurrent import futures

        from repro.engine import batch, pool, supervisor
        from repro.simulators import rap

        def forked(*args, **kwargs):
            raise AssertionError("a split scan started a child process")

        for module in pool, batch:
            monkeypatch.setattr(module, "run_supervised", forked)
        for module in supervisor, futures:
            monkeypatch.setattr(module, "ProcessPoolExecutor", forked)
        bindings, real = [], rap.Binding.__init__
        spy = lambda *args: bindings.append(1) or real(*args)  # noqa: E731
        monkeypatch.setattr(rap.Binding, "__init__", spy)
        ruleset = compile_ruleset(PATTERNS)  # a new object: unbound
        data = generate_input("text", 20000, seed=9, patterns=PATTERNS)
        config = EngineConfig(backend=backend, input_jobs=4, use_cache=False)
        split = [BatchEngine(config).scan(ruleset, data) for _ in range(2)]
        assert len(bindings) == 1 and len(pools) == 2  # two split scans
        with use_backend("python"):
            assert split == [RAPSimulator(DEFAULT_CONFIG).run(ruleset, data)] * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_concurrent_scans_on_threads_sized_by_the_host(
        self, cases, pools, backend
    ):
        """Two threads split two rulesets at once, their tasks switching
        every microsecond, each equal to its serial scan (no state couples
        them); ``input_jobs`` plans 64 chunks, the host's CPUs bound the
        threads."""
        import os
        import sys
        from concurrent.futures import ThreadPoolExecutor

        jobs = [cases["mixed"][1:], cases["wide"][1:]]
        data = generate_input("text", 300_000, seed=6, patterns=PATTERNS + [WIDE])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_backend(backend), ThreadPoolExecutor(2) as threads:
                split = [
                    threads.submit(_split, *job, data, input_jobs=64, min_chunk_bytes=1)
                    for job in jobs
                ]
                got = [future.result(timeout=300) for future in split]
        finally:
            sys.setswitchinterval(interval)
        with use_backend(backend):
            sim = RAPSimulator()
            assert got == [sim.collect_activities(r, data, m) for r, m in jobs]
        assert len(pools) == 2 and max(pools) <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("input_jobs", [2, 3, 4, 7])
    def test_bit_identical_to_serial_fused(self, text, input_jobs):
        cells.bulk(text, "auto", "fused", input_jobs, min_chunk=64)

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(["mixed", "windowless", "wide", "lone"]),
        backend=st.sampled_from(BACKENDS),
        length=st.integers(200, 3000),
        input_jobs=st.integers(2, 6),
        min_chunk=st.sampled_from([1, 17, 256]),
        seed=st.integers(0, 5),
    )
    def test_arbitrary_split_points_compose_exactly(
        self, cases, case, backend, length, input_jobs, min_chunk, seed
    ):
        # min_chunk=1 drives seams to arbitrary byte positions, so the
        # drawn (length, input_jobs, min_chunk) triple explores the
        # whole plan space the composition law must hold over; the drawn
        # case, every shape of task list (``input_jobs`` above and below
        # the number of windowless units included).
        patterns, ruleset, mapping = cases[case]
        sim = RAPSimulator(DEFAULT_CONFIG)
        data = generate_input(
            "text", length, seed=seed, patterns=patterns, plant_every=97
        )
        with use_backend(backend):
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(
                ruleset,
                mapping,
                data,
                input_jobs=input_jobs,
                min_chunk_bytes=min_chunk,
            )
            _, warm = unit_windows(bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan)
        if case == "lone" or len(plan_chunks(length, input_jobs, warm, min_chunk)) <= 1:
            assert got is None  # nothing to run side by side: serial scan
            return
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins
        assert got.stalls == serial.stalls

    @pytest.mark.parametrize("backend", available_backends())
    def test_only_lnfa_match_lists_need_sorting(self, ruleset, text, backend):
        """Every non-LNFA regex's match list reaches pricing strictly
        increasing, bulk and split (the ``python`` backend's serial
        engine scan: its result), so pricing sorts and dedupes the LNFA
        ones alone and copies the rest: no result aliases the activity's
        lists."""
        plain = [r.regex_id for r in ruleset if r.mode is not CompiledMode.LNFA]
        sim = RAPSimulator(DEFAULT_CONFIG)
        with use_backend(backend):
            mapping = bind(ruleset, DEFAULT_CONFIG).mapping
            runs = [sim.collect_activities(ruleset, text.data, mapping)]
            if backend == "python":
                config = EngineConfig(backend="python", use_cache=False)
                scanned = BatchEngine(config).scan(ruleset, text.data)
            else:
                runs.append(_split(ruleset, mapping, text.data, input_jobs=2))
        for activity in runs:
            result = sim.run_from_activity(ruleset, activity, mapping)
            for rid in plain:
                ends = activity.regex[rid].matches
                assert all(a < b for a, b in zip(ends, ends[1:])), (backend, rid)
                assert result.matches[rid] == ends
                assert result.matches[rid] is not ends
        if backend == "python":
            assert scanned.matches == result.matches
        assert any(len(result.matches[rid]) > 1 for rid in plain)

    @pytest.mark.parametrize("case", ["mixed", "windowless"])
    @pytest.mark.parametrize("input_jobs", [2, 3])
    def test_windowless_units_are_stepped_once_from_the_start(
        self, cases, case, input_jobs, pools, monkeypatch
    ):
        """The shape of a split scan, not its speed: one pool round, and
        every byte of every unit's stream stepped by exactly one task."""
        from repro.core.fused import FusedRuleset

        unit_calls: list[tuple] = []
        nbva_calls: list[int] = []
        real_span = FusedRuleset.scan_span

        def counted_span(self, tin, units=(), nbva=(), *, stats_from=0, **span):
            if units:
                unit_calls.append((list(units), len(tin.data), stats_from))
            nbva_calls.extend(len(tin.data) for _ in nbva)  # per cursor
            return real_span(self, tin, units, nbva, stats_from=stats_from, **span)

        monkeypatch.setattr(FusedRuleset, "scan_span", counted_span)
        patterns, ruleset, mapping = cases[case]
        data = generate_input("text", 6000, seed=3, patterns=patterns)
        n = len(data)
        with use_backend("fused"):
            plan = bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan
            windows, _ = unit_windows(plan)
            assert _split(ruleset, mapping, data, input_jobs=input_jobs) is not None

        assert len(pools) == 1
        windowless = {number for number, w in enumerate(windows) if w is None}
        whole = [
            call
            for call in unit_calls
            if windowless.intersection(number for number, _ in call[0])
        ]
        # each windowless cursor in exactly one call, from the stream
        # start (entry None) over the whole stream, its task's share of
        # them all at once
        assert sorted(number for call in whole for number, _ in call[0]) == sorted(
            windowless
        )
        assert len(whole) == min(input_jobs, len(windowless))
        for cursors, length, stats_from in whole:
            assert all(entry is None for _, entry in cursors)
            assert (length, stats_from) == (n, 0)
        # ownership is exact: no byte of any unit's stream stepped twice
        # (beyond warm-up) or not at all
        stepped = sum(
            len(cursors) * (length - stats_from)
            for cursors, length, stats_from in unit_calls
        )
        units = len(windows) + len(plan.nbva_units)
        assert nbva_calls == [n] * len(plan.nbva_units)
        assert stepped + sum(nbva_calls) == units * n


class TestSeams:
    def _assert_identical(self, patterns, data, *, input_jobs, min_chunk):
        ruleset = compile_ruleset(patterns)
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset, bin_size=None)
        with use_backend("fused"):
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(
                ruleset,
                mapping,
                data,
                input_jobs=input_jobs,
                min_chunk_bytes=min_chunk,
            )
        assert got is not None
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins

    def test_chunk_shorter_than_longest_pattern(self):
        # Owned spans of ~4 bytes against a 12-byte pattern: warm_start
        # clamps to 0 and chunks replay from the true stream start.
        pattern = "abcdefghijkl"
        data = (b"xx" + pattern.encode() + b"yy") * 3
        self._assert_identical(
            [pattern, "hello"], data, input_jobs=8, min_chunk=1
        )

    def test_units_without_a_table_still_stitch(self, monkeypatch):
        """A closure past the table cap leaves a unit unclosed: it is
        walked, and windowed or whole-stream like any other — how a unit
        splits never reads its table."""
        from repro.core import codegen

        monkeypatch.setattr(codegen, "UNIT_DFA_MAX_STATES", 3)
        ruleset = compile_ruleset(PATTERNS)  # a new object: binds under the cap
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset, bin_size=None)
        data = generate_input("text", 16000, seed=3, patterns=PATTERNS)
        with use_backend("fused"):
            plan = bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan
            assert unit_windows(plan)[0] == [4, None, 5, None]  # ruleset order
            assert {plan.fused.unit_tier(number) for number in range(4)} == {
                "interpreted (closure > 3)"
            }
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(ruleset, mapping, data, input_jobs=3)
            priced = sim.run_from_activity(ruleset, got, mapping)
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins
        with use_backend("python"):
            assert priced == sim.run(ruleset, data)

    def test_pattern_straddles_a_seam(self):
        patterns = ["needle", "a(bc)*d"]
        ruleset = compile_ruleset(patterns)
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset, bin_size=None)
        with use_backend("fused"):
            _, warm = unit_windows(bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan)
        n = 4096
        chunks = plan_chunks(n, 2, warm, min_owned=64)
        seam = chunks[1].start
        base = bytearray(b"." * n)
        base[seam - 3 : seam + 3] = b"needle"  # straddles the seam
        base[seam - 1 : seam + 5] = b"abcbcd"  # cyclic match across it
        self._assert_identical(
            patterns, bytes(base), input_jobs=2, min_chunk=64
        )

    def test_seam_inside_prefilter_cold_skip(self):
        # A long run of bytes no pattern can start in: the literal
        # prefilter skips it, and the seam lands mid-skip.
        patterns = ["needle", "hay"]
        cold = b"\x00" * 5000
        data = b"needle" + cold + b"hay" + cold + b"needle"
        self._assert_identical(patterns, data, input_jobs=2, min_chunk=64)

    def test_more_jobs_than_bytes_falls_back(self, ruleset, mapped):
        sim, mapping = mapped
        data = b"abcdefgh"
        with use_backend("fused"):
            assert _split(ruleset, mapping, data, input_jobs=64) is None
            # the engine-level scan still answers, identically
            serial = BatchEngine(EngineConfig(jobs=1)).scan(ruleset, data)
            split = BatchEngine(
                EngineConfig(jobs=1, input_jobs=64)
            ).scan(ruleset, data)
        assert split == serial


class TestEngineWiring:
    def test_env_var_enables_input_parallelism(self, ruleset, monkeypatch):
        data = generate_input("text", 12000, seed=1, patterns=PATTERNS)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused")
        ).scan(ruleset, data)
        monkeypatch.setenv(INPUT_JOBS_ENV, "3")
        split = BatchEngine(
            EngineConfig(jobs=1, backend="fused", min_chunk_bytes=512)
        ).scan(ruleset, data)
        assert split == serial

    def test_env_var_rejects_garbage(self, ruleset, monkeypatch):
        monkeypatch.setenv(INPUT_JOBS_ENV, "lots")
        with pytest.raises(ValueError, match=INPUT_JOBS_ENV):
            BatchEngine(EngineConfig(jobs=1)).scan(ruleset, b"abc")

    def test_config_overrides_env(self, ruleset, monkeypatch):
        monkeypatch.setenv(INPUT_JOBS_ENV, "lots")  # never consulted
        engine = BatchEngine(EngineConfig(jobs=1, input_jobs=2))
        assert engine._input_jobs() == 2

    def test_non_fused_backend_scans_serially(self, ruleset):
        data = generate_input("text", 6000, seed=2, patterns=PATTERNS)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="python")
        ).scan(ruleset, data)
        split = BatchEngine(
            EngineConfig(jobs=1, input_jobs=4, backend="python")
        ).scan(ruleset, data)
        assert split == serial

    def test_run_batch_input_parallel(self, ruleset):
        data = generate_input("text", 10000, seed=4, patterns=PATTERNS)
        tasks = [
            BatchTask(data=data, ruleset=ruleset),
            BatchTask(data=data[:3000], ruleset=ruleset),
        ]
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused")
        ).run_batch(tasks)
        split = BatchEngine(
            EngineConfig(
                jobs=1, input_jobs=2, backend="fused", min_chunk_bytes=256
            )
        ).run_batch(tasks)
        assert split == serial


class TestDurableSeams:
    def test_checkpoint_at_a_seam_resumes_identically(self, text):
        cells.durable(text, "auto", [len(text.data) // 2], backends=("python", "fused"))

    def test_durable_scan_engine_path(self, ruleset, tmp_path):
        data = generate_input("text", 24000, seed=8, patterns=PATTERNS)
        plain = BatchEngine(
            EngineConfig(jobs=1, backend="fused")
        ).scan(ruleset, data)
        outcome = BatchEngine(
            EngineConfig(
                jobs=1,
                input_jobs=2,
                backend="fused",
                min_chunk_bytes=512,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_bytes=4096,
            )
        ).durable_scan(ruleset, data)
        assert outcome.result == plain

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_resumes_under_any_input_jobs(
        self, ruleset, mapped, backend, tmp_path, monkeypatch
    ):
        """``--input-jobs`` sizes bulk scans only, so nothing about it is
        in a fingerprint: a scan SIGKILLed under 2 resumes under 1 and
        under 4, equal to the uninterrupted run."""
        _, mapping = mapped
        with use_backend(backend):
            monkeypatch.delenv(INPUT_JOBS_ENV, raising=False)
            serial = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            monkeypatch.setenv(INPUT_JOBS_ENV, "4")
            split = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            assert split.fingerprint == serial.fingerprint

        data = generate_input("text", 24000, seed=5, patterns=PATTERNS)
        cells.sigkill_resume(
            Case(PATTERNS, data), tmp_path, backend, [(backend, 1), (backend, 4)],
            input_jobs=2,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_durable_feed_never_forks(self, backend, tmp_path, monkeypatch):
        """``RAP_INPUT_JOBS`` reaches neither a durable scan nor a served
        session: every segment is fed whole, in this process."""
        from benchmarks.ledger.workloads import keyword_patterns
        from repro.engine import batch, pool
        from repro.serve.registry import TenantRegistry
        from repro.serve.session import ScanSession
        from tests.serve.util import entry_for

        patterns = keyword_patterns()
        data = generate_input(
            "network", 1 << 20, seed=9, patterns=patterns, plant_every=4000
        )
        segment = 1 << 16
        with use_backend(backend):
            registry = TenantRegistry()
            entry = entry_for(registry, patterns)
            monkeypatch.delenv(INPUT_JOBS_ENV, raising=False)
            plain = BatchEngine(EngineConfig(jobs=1, use_cache=False)).scan(
                entry.ruleset, data
            )

            monkeypatch.setenv(INPUT_JOBS_ENV, "4")

            def forked(*args, **kwargs):
                raise AssertionError("a durable feed reached the worker pool")

            for module in (pool, batch):
                monkeypatch.setattr(module, "run_supervised", forked)
            scan = DurableScan(entry.ruleset, entry.mapping, registry.hw)
            scan.feed(data, at_end=True)
            got = RAPSimulator(registry.hw).run_from_activity(
                entry.ruleset, scan.finish(), entry.mapping
            )
            assert got == plain

            monkeypatch.setenv(INPUT_JOBS_ENV, "lots")  # never consulted
            store = CheckpointStore(tmp_path, session="t/s")
            session = ScanSession("t", "s", entry, store, registry.hw)
            for at in range(0, len(data), segment):
                session.feed(data[at : at + segment])
            session.end()
            assert session.total_matches() == sum(
                len(ends) for ends in plain.matches.values()
            )
            assert session.total_energy_uj() == plain.energy_uj
