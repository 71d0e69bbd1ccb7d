"""Differential suite: the fused backend is bit-identical to the others.

Every assertion here compares whole result objects — matches, cycle
counts, per-tile wake-ups, the energy ledger — not summaries, so any
divergence between the fused lockstep pass and the per-unit python
path fails loudly.  Segmented durable scans round-trip their
checkpoints through JSON mid-stream, mirroring a SIGKILL-resume.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompiledMode, compile_ruleset
from repro.core import use_backend
from repro.engine.checkpoint import DurableScan
from repro.hardware.config import DEFAULT_CONFIG, TileMode
from repro.simulators.activity import BinActivityCollector
from repro.simulators.fused import FusedBinFeeder
from repro.simulators.rap import RAPSimulator

from tests.conformance import cells
from tests.conformance.cells import HOST, Case

# Mixed-mode pool: literals and alternations land in LNFA bins, counted
# repetitions in NBVA, the rest in NFA — subsets exercise every engine.
PATTERN_POOL = [
    "abc",
    "a.c",
    "end$",
    "^start",
    "hello|world",
    "ab{10,20}c",
    "xy*z",
    "[0-9]{3}x",
    "w[xy]+z",
    "cat",
]

TOKENS = [
    b"abc",
    b"axc",
    b"hello",
    b"world",
    b"start",
    b"end",
    b"xyyyz",
    b"xz",
    b"123x",
    b"wxyxz",
    b"cat",
    b"a" + b"b" * 12 + b"c",
    b"qqqq",
    b" ",
]


def pattern_sets():
    return st.lists(
        st.sampled_from(PATTERN_POOL), min_size=1, max_size=6, unique=True
    )


def token_streams(max_tokens: int = 24):
    return st.lists(
        st.sampled_from(TOKENS), min_size=0, max_size=max_tokens
    ).map(b"".join)


def cut_points(count: int = 3):
    return st.lists(st.integers(0, 400), min_size=0, max_size=count)


def seams_of(data: bytes, cuts: list[int]) -> list[int]:
    """The drawn cut points as interior offsets of ``data``."""
    return sorted({cut % (len(data) + 1) for cut in cuts} - {0, len(data)})


class TestBackendDifferential:
    """Cells of the conformance matrix (``tests/conformance``) over this
    module's pattern pool."""

    @settings(max_examples=4, deadline=None)
    @given(pattern_sets(), token_streams())
    def test_run_bit_identical_across_backends(self, patterns, data):
        cells.bulk(Case(patterns, data), "auto", "fused", 1)

    @settings(max_examples=4, deadline=None)
    @given(pattern_sets(), token_streams())
    def test_fused_activity_collection_identical(self, patterns, data):
        cells.bulk(Case(patterns, data), "auto", "fused", 2)

    def test_small_bins_shard_the_lane_machine(self):
        # A tiny bin_size forces many narrow bins; the packed lane
        # machine must still agree with the python oracle.
        patterns = ["abc", "cat", "hello|world", "a.c"]
        ruleset = compile_ruleset(patterns)
        data = b"".join(random.Random(11).choices(TOKENS, k=60))
        sim = RAPSimulator(DEFAULT_CONFIG)
        with use_backend("python"):
            reference = sim.run(ruleset, data, bin_size=2)
        with use_backend("fused"):
            assert sim.run(ruleset, data, bin_size=2) == reference

    def test_threads_share_one_lane_table(self, monkeypatch):
        """Every scan of a bound plan walks the same lazily filled
        tables; with the cap forced down they restart constantly, and
        four threads over two streams still each get the serial answer."""
        import sys
        import threading

        from repro.core import codegen

        monkeypatch.setattr(codegen, "LANE_DFA_MAX_STATES", 4)
        ruleset = compile_ruleset(["abcabc", "cat", "hello|world", "a.c"])
        streams = [
            b"".join(random.Random(seed).choices(TOKENS, k=400)) for seed in (1, 2)
        ]
        sim = RAPSimulator(DEFAULT_CONFIG)
        with use_backend("python"):
            want = [sim.run(ruleset, data) for data in streams]
        got = {}

        def scan(k):
            got[k] = sim.run(ruleset, streams[k % 2])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_backend("fused"):  # process-wide: set once, not per thread
                threads = [
                    threading.Thread(target=scan, args=(k,)) for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[k] for k in range(4)] == [want[k % 2] for k in range(4)]


class TestFeederDifferential:
    def _collectors(self, mapping):
        return [
            BinActivityCollector(bin_obj, DEFAULT_CONFIG)
            for array in mapping.arrays
            if array.mode is TileMode.LNFA
            for bin_obj in array.bins
        ]

    @settings(max_examples=6, deadline=None)
    @given(token_streams(), cut_points())
    def test_feeder_equals_per_collector_feed(self, data, cuts):
        """The lane machine feeding every bin's collector at once ≡ each
        collector fed alone, at every cut."""
        case = Case(["abc", "cat", "hello|world", "end$", "^start"], data)
        assert any(r.mode is CompiledMode.LNFA for r in case.ruleset())
        cells.durable(case, "auto", seams_of(data, cuts), backends=("python", "fused"))

    def test_feeder_rejects_skewed_offsets(self):
        ruleset = compile_ruleset(["abc", "cat"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(
            ruleset, bin_size=1
        )
        collectors = self._collectors(mapping)
        assert len(collectors) >= 2
        collectors[0].feed(b"ab", at_end=False)
        with pytest.raises(ValueError, match="offset"):
            FusedBinFeeder(collectors).feed(b"cd", at_end=False)


class TestDurableFused:
    @settings(max_examples=4, deadline=None)
    @given(token_streams(max_tokens=40), cut_points())
    def test_segmented_resume_roundtrip(self, data, cuts):
        """Resumed at each cut from a JSON round trip, on every backend."""
        case = Case(PATTERN_POOL, data)
        cells.durable(case, "auto", seams_of(data, cuts), backends=HOST)

    def test_shedding_falls_back_to_per_bin_path(self):
        ruleset = compile_ruleset(PATTERN_POOL)
        data = b"".join(random.Random(7).choices(TOKENS, k=80))
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        cut = len(data) // 2

        def degraded(backend):
            with use_backend(backend):
                scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
                scan.feed(data[:cut], at_end=False)
                shed = scan.shed(0.5, "test pressure")
                scan.feed(data[cut:], at_end=True)
                return shed, scan.finish()

        shed_py, result_py = degraded("python")
        shed_fused, result_fused = degraded("fused")
        assert shed_fused == shed_py
        assert result_fused == result_py
