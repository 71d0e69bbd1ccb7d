"""Input-parallel scanning is bit-identical to serial, at every level.

The assertions compare whole ``RunActivity`` / ``SimulationResult``
objects — matches, cycle counts, per-tile wake-ups, the energy ledger —
between the serial fused path and the SFA-stitched split path, across
every unit mechanism (lane bins, bounded NFA, cyclic frontier NFA,
serial-fallback NBVA) and across the seams the stitching must survive:
chunks shorter than the longest pattern, patterns straddling a seam, a
seam inside a literal-prefilter cold skip, and degenerate plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.compiler import compile_ruleset
from repro.core import available_backends, resolve_backend, use_backend
from repro.engine import BatchEngine, BatchTask, EngineConfig, INPUT_JOBS_ENV
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.engine.split import (
    BOUNDED,
    FRONTIER,
    SERIAL,
    STATEMAP,
    SplitCompilation,
    split_collect,
)
from repro.errors import CheckpointError
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator
from repro.workloads.inputs import generate_input

pytestmark = pytest.mark.skipif(
    "fused" not in available_backends(),
    reason="fused backend not available",
)

# Lanes + bounded/statemap DFA + bounded NFA + cyclic (frontier) NFA +
# NBVA counters: one ruleset that exercises every split mechanism at
# once.  The dense dot patterns stay NFA under the cost model; the
# low-activity optional/star patterns take the DFA tier.
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
def mapped(ruleset):
    sim = RAPSimulator(DEFAULT_CONFIG)
    return sim, sim.build_mapping(ruleset, bin_size=None)


def _split(ruleset, mapping, data, *, input_jobs, min_chunk_bytes=64, jobs=1):
    return split_collect(
        ruleset,
        mapping,
        DEFAULT_CONFIG,
        data,
        bin_size=None,
        backend=resolve_backend(),
        input_jobs=input_jobs,
        jobs=jobs,
        min_chunk_bytes=min_chunk_bytes,
    )


class TestSplitCollect:
    def test_classifies_every_mechanism(self, ruleset, mapped):
        _, mapping = mapped
        with use_backend("fused"):
            comp = SplitCompilation(ruleset, mapping, DEFAULT_CONFIG)
        assert comp.bins  # lane-packed LNFA units
        assert BOUNDED in comp.unit_kind  # (?:a.|.b){2}x is acyclic NFA
        assert FRONTIER in comp.unit_kind  # a(?:b.*|c)d is cyclic NFA
        assert BOUNDED in comp.dfa_kind  # ab?c?d is an acyclic DFA
        assert STATEMAP in comp.dfa_kind  # a(bc)*d is a cyclic DFA
        assert comp.nbva_units  # k{20,400}m carries counters
        assert comp.warm >= max(len(p) for p in ["abcdef", "hello"])

    def test_in_process_workers_leave_no_parent_state(
        self, ruleset, mapped, monkeypatch
    ):
        # jobs=1 seeds the worker globals in this very process: neither
        # the stream nor the backend pin may outlive the scan.
        from repro.core import registry
        from repro.engine import split as split_mod

        monkeypatch.setattr(registry, "_default", None)
        _, mapping = mapped
        data = generate_input("text", 4000, seed=3, patterns=PATTERNS)
        got = split_collect(
            ruleset,
            mapping,
            DEFAULT_CONFIG,
            data,
            bin_size=None,
            backend="fused",
            input_jobs=2,
            jobs=1,
            min_chunk_bytes=64,
        )
        assert got is not None
        assert split_mod._SPLIT_STATE == {}
        assert registry._default is None

    @pytest.mark.parametrize("input_jobs", [2, 3, 4, 7])
    def test_bit_identical_to_serial_fused(self, ruleset, mapped, input_jobs):
        sim, mapping = mapped
        data = generate_input("text", 16000, seed=3, patterns=PATTERNS)
        with use_backend("fused"):
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(ruleset, mapping, data, input_jobs=input_jobs)
        assert got is not None
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins
        assert got.input_symbols == serial.input_symbols
        assert sim.run_from_activity(
            ruleset, got, mapping
        ) == sim.run_from_activity(ruleset, serial, mapping)

    @settings(max_examples=10, deadline=None)
    @given(
        length=st.integers(200, 3000),
        input_jobs=st.integers(2, 6),
        min_chunk=st.sampled_from([1, 17, 256]),
        seed=st.integers(0, 5),
    )
    def test_arbitrary_split_points_compose_exactly(
        self, ruleset, mapped, length, input_jobs, min_chunk, seed
    ):
        # min_chunk=1 drives seams to arbitrary byte positions, so the
        # drawn (length, input_jobs, min_chunk) triple explores the
        # whole plan space the composition law must hold over.
        sim, mapping = mapped
        data = generate_input(
            "text", length, seed=seed, patterns=PATTERNS, plant_every=97
        )
        with use_backend("fused"):
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(
                ruleset,
                mapping,
                data,
                input_jobs=input_jobs,
                min_chunk_bytes=min_chunk,
            )
        if got is None:  # plan degenerated to one chunk: fallback is fine
            return
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins


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
        """A closure past the table cap leaves a unit its mask stack. A
        cyclic NFA-mode one splits as before (frontier maps never read
        the table); a cyclic DFA-mode one has no ``StateMap`` and runs
        as one serial task — bit-identical either way."""
        from repro.core import codegen

        monkeypatch.setattr(codegen, "UNIT_DFA_MAX_STATES", 3)
        ruleset = compile_ruleset(PATTERNS)  # a new object: binds under the cap
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset, bin_size=None)
        data = generate_input("text", 16000, seed=3, patterns=PATTERNS)
        with use_backend("fused"):
            comp = SplitCompilation(ruleset, mapping, DEFAULT_CONFIG)
            assert FRONTIER in comp.unit_kind
            assert comp.dfa_kind == [BOUNDED, SERIAL]  # ab?c?d, a(bc)*d
            assert comp.fused.unit_tier(0) == "interpreted (closure > 3)"
            serial = sim.collect_activities(ruleset, data, mapping)
            got = _split(ruleset, mapping, data, input_jobs=3)
            priced = sim.run_from_activity(ruleset, got, mapping)
        assert got.regex == serial.regex
        assert got.lnfa_bins == serial.lnfa_bins
        with use_backend("python"):
            assert priced == sim.run(ruleset, data)

    def test_pattern_straddles_a_seam(self):
        from repro.engine.partition import plan_chunks

        patterns = ["needle", "a(bc)*d"]
        ruleset = compile_ruleset(patterns)
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset, bin_size=None)
        with use_backend("fused"):
            comp = SplitCompilation(ruleset, mapping, DEFAULT_CONFIG)
        n = 4096
        chunks = plan_chunks(n, 2, comp.warm, min_owned=64)
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
    def test_scan_is_bit_identical(self, ruleset):
        data = generate_input("text", 20000, seed=9, patterns=PATTERNS)
        serial = BatchEngine(
            EngineConfig(jobs=1, backend="fused")
        ).scan(ruleset, data)
        for input_jobs in (2, 4):
            split = BatchEngine(
                EngineConfig(
                    jobs=1,
                    input_jobs=input_jobs,
                    backend="fused",
                    min_chunk_bytes=512,
                )
            ).scan(ruleset, data)
            assert split == serial

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
    def test_checkpoint_at_a_seam_resumes_identically(self, ruleset, tmp_path):
        data = generate_input("text", 24000, seed=6, patterns=PATTERNS)
        with use_backend("fused"):
            sim = RAPSimulator(DEFAULT_CONFIG)
            mapping = sim.build_mapping(ruleset, bin_size=None)
            plain = BatchEngine(EngineConfig(jobs=1)).scan(ruleset, data)

            scan = DurableScan(
                ruleset,
                mapping,
                DEFAULT_CONFIG,
                input_jobs=2,
                min_chunk_bytes=512,
            )
            store = CheckpointStore(tmp_path)
            # Feed to exactly half the stream: with input_jobs=2 the
            # feeder's seam falls inside this segment, so the snapshot
            # is taken at a state the stitching produced.
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
        assert got == plain

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

    def test_fingerprint_binds_split_layout(
        self, ruleset, mapped, tmp_path, monkeypatch
    ):
        _, mapping = mapped
        # This test is about *explicit* configurations; DurableScan also
        # honors RAP_INPUT_JOBS when no value is given (so CI's env-wide
        # split runs keep writer and resumer consistent), which would
        # otherwise turn the no-argument scans below into split ones.
        monkeypatch.delenv(INPUT_JOBS_ENV, raising=False)
        with use_backend("fused"):
            serial = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            default = DurableScan(ruleset, mapping, DEFAULT_CONFIG, input_jobs=1)
            split = DurableScan(
                ruleset, mapping, DEFAULT_CONFIG, input_jobs=2
            )
            # input_jobs=1 is the serial layout: fingerprints (and thus
            # old checkpoints) stay valid.  A split layout is a
            # different fingerprint, so resuming across parallelism
            # levels is an explicit rebind.
            assert default.fingerprint == serial.fingerprint
            assert split.fingerprint != serial.fingerprint

            data = generate_input("text", 8000, seed=5, patterns=PATTERNS)
            split.feed(data[:4000], at_end=False)
            store = CheckpointStore(tmp_path)
            store.write(split.snapshot(), split.offset)
            with pytest.raises(CheckpointError):
                serial.restore(store.load_latest(), data)
