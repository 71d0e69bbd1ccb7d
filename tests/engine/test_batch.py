"""Batch-engine tests: parallel output must be bit-identical to sequential.

The expensive multi-process paths run a couple of times on fixed
workloads.
"""

import pickle

import pytest

from repro.compiler import CompilerConfig, compile_ruleset
from repro.core import available_backends, use_backend
from repro.core import registry as registry_mod
from repro.engine import (
    BatchEngine,
    BatchReport,
    BatchTask,
    EngineConfig,
    effective_jobs,
    plan_chunks,
)
from repro.engine import batch as batch_mod
from repro.engine import supervisor as supervisor_mod
from repro.errors import CapacityError, CompileError
from repro.simulators import RAPSimulator

# All bounded-memory (acyclic, unanchored, no counters): chunkable.
WINDOWABLE = ["abcd", "ab?cd", "a[bc]d", "bcx"]
# Counters and unbounded repetition: no warm-up window exists.
UNBOUNDED = ["za{20}", "ab*c"]


def compiled(patterns):
    return compile_ruleset(patterns, CompilerConfig())


def _no_pool(monkeypatch) -> None:
    """Fail the test if anything starts a supervised process pool."""

    def forked(*args, **kwargs):
        raise AssertionError("a scan must not fork")

    monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", forked)


class TestPartitionPlanning:
    def test_chunks_tile_the_stream(self):
        chunks = plan_chunks(1000, 4, overlap=7)
        assert chunks[0].start == 0
        assert chunks[-1].end == 1000
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.start == prev.end
            assert cur.warm_start == cur.start - 7
        assert chunks[0].warm_start == 0

    def test_min_owned_limits_pieces(self):
        assert len(plan_chunks(100, 8, overlap=1, min_owned=40)) <= 2
        assert plan_chunks(0, 4, overlap=1) == []

    def test_effective_jobs(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(1) == 1
        assert effective_jobs(0) >= 1
        assert effective_jobs(None) >= 1


class TestParallelScan:
    @pytest.mark.parametrize("backend", ["fused", "native"])
    def test_planned_backends_scan_with_the_plan_not_the_fork(
        self, backend, monkeypatch
    ):
        # jobs sizes run_batch only: a scan on a planned backend steps
        # its plan in this process, never a supervised process pool.
        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        _no_pool(monkeypatch)
        ruleset = compiled(WINDOWABLE + UNBOUNDED)
        data = (b"za" * 40 + b"abcd" + b"abbc" + b"x" * 20) * 40
        with use_backend("python"):
            reference = RAPSimulator().run(ruleset, data)
        engine = BatchEngine(
            EngineConfig(
                jobs=2, backend=backend, use_cache=False, min_chunk_bytes=256
            )
        )
        assert engine.scan(ruleset, data) == reference

    def test_a_python_scan_is_serial(self, monkeypatch):
        # The oracle never forks either: jobs and input_jobs size nothing.
        _no_pool(monkeypatch)
        ruleset = compiled(WINDOWABLE + UNBOUNDED)
        data = (b"za" * 40 + b"abcd" + b"abbc" + b"x" * 20) * 8
        engine = BatchEngine(
            EngineConfig(jobs=2, input_jobs=2, backend="python", use_cache=False)
        )
        with use_backend("python"):
            reference = RAPSimulator().run(ruleset, data)
        assert engine.scan(ruleset, data) == reference

    def test_jobs_one_is_the_reference_path(self):
        ruleset = compiled(WINDOWABLE)
        data = b"xabcdx" * 50
        engine = BatchEngine(EngineConfig(jobs=1, use_cache=False))
        assert engine.scan(ruleset, data) == RAPSimulator().run(ruleset, data)

    def test_empty_input(self):
        engine = BatchEngine(EngineConfig(jobs=2, use_cache=False))
        result = engine.scan(compiled(["abcd"]), b"")
        assert result.match_count == 0


PLANNED = ["fused", "native"]


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` to log each call; the log's length is the count."""
    calls: list = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestBinding:
    """compile -> bind -> scan: mapping, fused plan and generated C are
    derived once per (ruleset object, hw, bin_size, resolved backend)."""

    # LNFA bins + a cyclic NFA unit + an NBVA unit: every plan tier.
    PATTERNS = WINDOWABLE + UNBOUNDED
    DATA = (b"za" * 40 + b"abcd" + b"abbc" + b"x" * 20) * 8

    @pytest.fixture(autouse=True)
    def serial(self, monkeypatch):
        monkeypatch.delenv("RAP_INPUT_JOBS", raising=False)

    @pytest.fixture
    def counters(self, monkeypatch):
        from repro.core import codegen
        from repro.core.fused import FusedRuleset
        from repro.simulators import rap

        return {
            "map": _count_calls(monkeypatch, rap, "map_ruleset"),
            "fuse": _count_calls(monkeypatch, FusedRuleset, "__init__"),
            "unit_c": _count_calls(monkeypatch, codegen, "unit_scan_source"),
            "lane_c": _count_calls(monkeypatch, codegen, "lane_scan_source"),
        }

    def _reference(self, ruleset, **kwargs):
        with use_backend("python"):
            return RAPSimulator().run(ruleset, self.DATA, **kwargs)

    @pytest.mark.parametrize("backend", ["python", *PLANNED])
    def test_durable_scans_hash_the_ruleset_once(self, backend, monkeypatch):
        """The scan fingerprint serializes and hashes the whole ruleset:
        once per binding, not per durable scan, session or reload."""
        from repro.engine.checkpoint import DurableScan
        from repro.io.serialize import scan_fingerprint
        from repro.simulators import rap

        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        ruleset = compiled(self.PATTERNS)
        engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
        hashed = _count_calls(monkeypatch, rap, "scan_fingerprint")
        for _ in range(3):
            engine.durable_scan(ruleset, self.DATA)
        with use_backend(backend):
            mapping = rap.bind(ruleset, engine.hw).mapping
            scan = DurableScan(ruleset, mapping, engine.hw)
        assert len(hashed) == 1
        assert scan.fingerprint == scan_fingerprint(ruleset, engine.hw, None)
        # what the fingerprint covers still moves it
        with use_backend(backend):
            other = DurableScan(ruleset, mapping, engine.hw, bin_size=3)
        assert other.fingerprint != scan.fingerprint and len(hashed) == 2

    @pytest.mark.parametrize("backend", PLANNED)
    def test_scans_and_durable_scan_bind_once(self, backend, counters):
        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        ruleset = compiled(self.PATTERNS)
        reference = self._reference(ruleset)
        for calls in counters.values():
            calls.clear()
        engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
        assert engine.scan(ruleset, self.DATA) == reference
        assert engine.scan(ruleset, self.DATA) == reference
        assert engine.durable_scan(ruleset, self.DATA).result == reference
        generated = 1 if backend == "native" else 0
        assert {name: len(calls) for name, calls in counters.items()} == {
            "map": 1, "fuse": 1, "unit_c": generated, "lane_c": generated,
        }
        # An equal ruleset that is another object starts unbound.
        assert engine.scan(compiled(self.PATTERNS), self.DATA) == reference
        assert len(counters["fuse"]) == 2

    @pytest.mark.parametrize("backend", PLANNED)
    def test_a_scan_binds_once(self, backend, monkeypatch):
        """``BatchEngine.scan`` looks its binding up once and hands it
        down: neither collection nor pricing binds again."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        from repro.engine import checkpoint
        from repro.simulators import fused, rap

        ruleset = compiled(self.PATTERNS)
        reference = self._reference(ruleset)
        engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
        assert engine.scan(ruleset, self.DATA) == reference  # binds
        calls = []
        inner = rap.bind
        for module in (batch_mod, rap, fused, checkpoint):
            monkeypatch.setattr(
                module, "bind", lambda *a, **k: calls.append(a) or inner(*a, **k)
            )
        for _ in range(3):
            assert engine.scan(ruleset, self.DATA) == reference
        assert len(calls) == 3

    @pytest.mark.parametrize("backend", PLANNED)
    def test_a_warm_scan_derives_nothing(self, backend, monkeypatch):
        """After the first scan of a ruleset, a scan builds no price
        table (``ChargeProgram``), no NBVA cursor template, and reads the
        environment only inside its one backend resolution."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        import os

        from repro.core.native import NativeScanner
        from repro.simulators.rap import ChargeProgram

        ruleset = compiled(self.PATTERNS)
        config = EngineConfig(backend=backend, use_cache=False, input_jobs=1)
        engine = BatchEngine(config)
        first = engine.scan(ruleset, self.DATA)  # binds and builds uncounted
        programs = _count_calls(monkeypatch, ChargeProgram, "__init__")
        templates = _count_calls(monkeypatch, NativeScanner, "_build_rows")
        resolving, reads = [], []
        resolve = registry_mod.resolve_backend_with_reason

        def counted_resolve(*args):
            resolving.append(args)
            try:
                return resolve(*args)
            finally:
                resolving.append(None)

        getitem = type(os.environ).__getitem__

        def counted_getitem(environ, key):
            if not resolving or resolving[-1] is None:
                reads.append(key)
            return getitem(environ, key)

        monkeypatch.setattr(
            registry_mod, "resolve_backend_with_reason", counted_resolve
        )
        monkeypatch.setattr(type(os.environ), "__getitem__", counted_getitem)
        again = engine.scan(ruleset, self.DATA)
        monkeypatch.undo()
        assert repr(again) == repr(first)
        assert programs == [] and templates == []
        assert len(resolving) == 2 and reads == []

    def test_per_op_derivations_are_gone(self):
        """Pricing replays a plan derived per binding; a translated
        segment derives no counts of its own."""
        from repro.core.fused import TranslatedSegment
        from repro.simulators.rap import Binding

        assert not hasattr(TranslatedSegment, "counts_from")
        assert not hasattr(Binding, "tile_shares")

    @pytest.mark.parametrize("backend", PLANNED)
    def test_a_bound_scan_resolves_and_measures_once(self, backend, monkeypatch):
        """Per op: one backend resolution, handed down to every layer.
        Per binding: one pass over the bins' geometry, however many
        activities are priced."""
        if backend not in available_backends():
            pytest.skip(f"{backend} backend not available")
        from repro.core import registry
        from repro.mapping.binning import Bin

        ruleset = compiled(self.PATTERNS)
        reference = self._reference(ruleset)
        measured = []
        columns = Bin.footprint_columns.fget
        monkeypatch.setattr(
            Bin,
            "footprint_columns",
            property(lambda self: (measured.append(self), columns(self))[1]),
        )
        engine = BatchEngine(EngineConfig(backend=backend, use_cache=False))
        assert engine.scan(ruleset, self.DATA) == reference  # binds
        bins = len(measured)
        assert bins
        resolved = _count_calls(monkeypatch, registry, "resolve_backend_with_reason")
        for _ in range(3):
            assert engine.scan(ruleset, self.DATA) == reference
        assert len(resolved) == 3 and len(measured) == bins

    @pytest.mark.parametrize(
        "change", ["bin_size", "hw", "use_backend", "native_disable"]
    )
    def test_a_different_key_rebinds(self, change, counters, monkeypatch):
        import dataclasses

        from repro.core.native import NATIVE_DISABLE_ENV
        from repro.hardware.config import DEFAULT_CONFIG

        top = "native" if "native" in available_backends() else "fused"
        if top == "fused" and change in ("use_backend", "native_disable"):
            pytest.skip("needs the native backend to flip away from")
        config = EngineConfig(backend=top, use_cache=False)
        engine = changed = BatchEngine(config)
        hw, kwargs = DEFAULT_CONFIG, {}
        if change == "bin_size":
            kwargs = {"bin_size": 2}
        elif change == "hw":
            hw = dataclasses.replace(DEFAULT_CONFIG, tiles_per_array=8)
            changed = BatchEngine(config, hw=hw)
        elif change == "use_backend":
            changed = BatchEngine(EngineConfig(backend="fused", use_cache=False))
        ruleset = compiled(self.PATTERNS)
        reference = self._reference(ruleset)
        with use_backend("python"):
            expected = RAPSimulator(hw).run(ruleset, self.DATA, **kwargs)
        for calls in counters.values():
            calls.clear()

        assert engine.scan(ruleset, self.DATA) == reference
        if change == "native_disable":  # read live by the capability probe
            monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert changed.scan(ruleset, self.DATA, **kwargs) == expected
        monkeypatch.delenv(NATIVE_DISABLE_ENV, raising=False)
        assert engine.scan(ruleset, self.DATA) == reference  # still bound
        assert len(counters["map"]) == len(counters["fuse"]) == 2
        flipped_to_fused = change in ("use_backend", "native_disable")
        native_binds = 0 if top == "fused" else 1 if flipped_to_fused else 2
        assert len(counters["unit_c"]) == native_binds

    def test_a_binding_plans_on_its_own_backend(self):
        """A binding's plan attaches generated C by the backend it is
        keyed under, not by the scope that first asks for the plan:
        ``backend="native"`` outside any scope is compiled, and
        ``backend="fused"`` inside a native scope walks its tables."""
        if "native" not in available_backends():
            pytest.skip("native backend not available")
        from repro.simulators.rap import bind

        ruleset = compiled(self.PATTERNS)
        native = bind(ruleset, RAPSimulator().hw, backend="native").plan.fused
        assert native.native_active, native.native_why
        with use_backend("native"):
            walked = bind(ruleset, RAPSimulator().hw, backend="fused").plan.fused
            assert not walked.native_active and walked.native_why == "fused backend"
        engine = BatchEngine(EngineConfig(backend="native", use_cache=False))
        assert engine.scan(ruleset, self.DATA) == self._reference(ruleset)
        assert bind(ruleset, RAPSimulator().hw, backend="native").plan.fused is native

    def test_bindings_per_ruleset_are_bounded(self):
        from repro.hardware.config import DEFAULT_CONFIG
        from repro.simulators.rap import MAX_BINDINGS, bind

        ruleset = compiled(WINDOWABLE)
        sim = RAPSimulator()
        first = bind(ruleset, DEFAULT_CONFIG)
        assert bind(ruleset, DEFAULT_CONFIG) is first
        for bin_size in range(1, 2 * MAX_BINDINGS):
            bind(ruleset, DEFAULT_CONFIG, bin_size)
            bind(ruleset, DEFAULT_CONFIG, mapping=sim.build_mapping(ruleset))
            assert len(vars(ruleset)["_bindings"]) <= MAX_BINDINGS
        assert bind(ruleset, DEFAULT_CONFIG) is not first  # evicted, rebuilt
        assert bind(ruleset, DEFAULT_CONFIG).mapping == first.mapping

    def test_a_callers_mapping_is_adopted_not_remapped(self, counters):
        from repro.hardware.config import DEFAULT_CONFIG
        from repro.simulators.rap import bind

        ruleset = compiled(self.PATTERNS)
        sim = RAPSimulator()
        mapping = sim.build_mapping(ruleset)
        counters["map"].clear()
        with use_backend("fused"):
            adopted = bind(ruleset, DEFAULT_CONFIG, mapping=mapping)
            assert adopted.mapping is mapping and not counters["map"]
            assert bind(ruleset, DEFAULT_CONFIG, mapping=mapping) is adopted
            assert sim.collect_activities(ruleset, self.DATA, mapping)
            assert len(counters["fuse"]) == 1 and adopted.plan is not None
            # bind()'s own mapping is found again when handed back.
            own = bind(ruleset, DEFAULT_CONFIG)
            assert own is not adopted
            assert bind(ruleset, DEFAULT_CONFIG, mapping=own.mapping) is own

    def test_a_pickled_ruleset_travels_unbound(self):
        from repro.hardware.config import DEFAULT_CONFIG
        from repro.simulators.rap import bind

        ruleset = compiled(WINDOWABLE)
        bind(ruleset, DEFAULT_CONFIG)
        clone = pickle.loads(pickle.dumps(ruleset))
        assert clone == ruleset and "_bindings" not in vars(clone)


class TestRunBatch:
    def test_batch_matches_sequential_runs(self):
        ruleset = compiled(WINDOWABLE + UNBOUNDED)
        streams = [b"abcd" * 30, b"za" * 60, b"abbbc" * 25]
        tasks = [BatchTask(data=s, ruleset=ruleset) for s in streams]
        engine = BatchEngine(EngineConfig(jobs=2, use_cache=False))
        results = engine.run_batch(tasks)
        sim = RAPSimulator()
        expected = [sim.run(ruleset, s) for s in streams]
        assert results == expected  # same values, same (task) order

    def test_task_validation(self):
        import pytest

        with pytest.raises(ValueError):
            BatchTask(data=b"x")
        with pytest.raises(ValueError):
            BatchTask(
                data=b"x", patterns=("a",), ruleset=compiled(["a"])
            )

    def test_merge_results_folds_left(self):
        ruleset = compiled(["abcd"])
        sim = RAPSimulator()
        shards = [sim.run(ruleset, b"abcd" * n) for n in (1, 2, 3)]
        engine = BatchEngine(EngineConfig(use_cache=False))
        merged = engine.merge_results(shards)
        assert merged == (shards[0] + shards[1]) + shards[2]

    def test_compile_through_cache(self, tmp_path):
        engine = BatchEngine(
            EngineConfig(jobs=1, use_cache=True, cache_dir=str(tmp_path))
        )
        first = engine.compile(["abcd", "a[bc]d"])
        second = engine.compile(["abcd", "a[bc]d"])
        assert engine.cache.hits == 1
        assert [r.pattern for r in second] == [r.pattern for r in first]

    def test_tasks_compile_lazily(self):
        task = BatchTask(data=b"abcd", patterns=("abcd",))
        engine = BatchEngine(EngineConfig(jobs=1, use_cache=False))
        (result,) = engine.run_batch([task])
        assert result.matches[0] == [3]

    def test_merge_results_rejects_empty(self):
        engine = BatchEngine(EngineConfig(use_cache=False))
        with pytest.raises(ValueError):
            engine.merge_results([])


# An unparseable pattern and a well-formed one the NFA backend cannot
# place (needs ~2400 STEs against a 2048-state one-array budget).
BROKEN_PATTERN = "a("
OVERSIZED_PATTERN = "abc" + "(x|y)" * 1200


class TestOnErrorPolicies:
    def engine(self, **overrides):
        defaults = dict(jobs=1, use_cache=False, fault_plan="")
        defaults.update(overrides)
        return BatchEngine(EngineConfig(**defaults))

    def mixed_tasks(self):
        return [
            BatchTask(data=b"xGATTACAx", patterns=(BROKEN_PATTERN,)),
            BatchTask(
                data=b"xGATTACAx",
                patterns=("GATTACA", OVERSIZED_PATTERN),
            ),
        ]

    def test_fail_raises_structured_compile_error(self):
        with pytest.raises(CompileError) as info:
            self.engine().run_batch(self.mixed_tasks())
        assert info.value.pattern == BROKEN_PATTERN
        assert info.value.pattern_index == 0
        assert info.value.phase == "compile"

    def test_fail_preserves_capacity_class(self):
        with pytest.raises(CapacityError):
            self.engine().compile([OVERSIZED_PATTERN])

    def test_quarantine_names_both_offenders(self):
        # The acceptance scenario: one uncompilable pattern and one
        # over-capacity pattern; the batch completes, returns the
        # healthy results, and the report names both offenders.
        report = self.engine().run_batch(
            self.mixed_tasks(), on_error="quarantine"
        )
        assert isinstance(report, BatchReport)
        assert not report.ok
        assert set(report.quarantine.patterns()) == {
            BROKEN_PATTERN,
            OVERSIZED_PATTERN,
        }
        by_pattern = {e.pattern: e for e in report.quarantine}
        assert by_pattern[BROKEN_PATTERN].error_type == "CompileError"
        assert by_pattern[OVERSIZED_PATTERN].error_type == "CapacityError"
        assert all(e.phase == "compile" for e in report.quarantine)
        # Task 0 had no healthy pattern at all: fully quarantined.
        assert report.results[0] is None
        # Task 1's healthy pattern still ran and matched.
        (healthy,) = report.healthy()
        assert report.results[1] is healthy
        assert healthy.matches[0] == [7]

    def test_skip_returns_holes(self):
        results = self.engine().run_batch(self.mixed_tasks(), on_error="skip")
        assert results[0] is None
        assert results[1] is not None

    def test_all_clean_quarantine_report_is_empty(self):
        report = self.engine().run_batch(
            [BatchTask(data=b"abcd", patterns=("abcd",))],
            on_error="quarantine",
        )
        assert report.ok
        assert report.healthy() == list(report.results)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(on_error="retry")
        with pytest.raises(ValueError):
            self.engine().run_batch([], on_error="explode")


class TestFaultInjectedExecution:
    """The acceptance property: crashes and deadline overruns during
    execution must never change results — only timing."""

    def test_batch_identical_under_crash_and_hang(self):
        ruleset = compiled(WINDOWABLE)
        streams = [b"abcd" * 30, b"xbcxabcd" * 20, b"acdx" * 25]
        tasks = [BatchTask(data=s, ruleset=ruleset) for s in streams]
        engine = BatchEngine(
            EngineConfig(
                jobs=2,
                use_cache=False,
                timeout=20.0,
                retries=3,
                backoff=0.001,
                fault_plan="crash@0:0;hang@1:0*0.05",
            )
        )
        sim = RAPSimulator()
        assert engine.run_batch(tasks) == [
            sim.run(ruleset, s) for s in streams
        ]
