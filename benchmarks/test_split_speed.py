"""Input-parallel scan speed: warm-up windows must beat serial fused.

The split engine's pitch is that one long stream fans out across
cores with *zero* accuracy cost: every chunk scans from its warm-up
window, and the stitched activity is bit-identical to the serial fused
pass.  This gate pins both halves of that pitch on the regime the
input-parallel issue names — a synthetic 64-keyword ruleset over tens
of megabytes of mostly-cold traffic:

* exactness is asserted unconditionally (`SimulationResult` equality
  between serial fused and ``input_jobs=4``), and
* on hosts with >= 4 cores the split scan must be at least 2.5x faster.

Units with no window (cyclic automata, counters) are scanned whole, in
as many tasks as ``input_jobs``: `test_windowless_units_split_near_serial`
pins that a ruleset of nothing else never pays much for being split.

``RAP_SPLIT_BENCH_MB`` sizes the stream (the scheduled CI leg sets it
to 50; the default keeps local runs in seconds).  The stream tiles one
generated block because the pure-Python input generator would dominate
a 50 MB setup otherwise; tiling changes nothing about the scan itself.
"""

import os
import random
import time

import pytest

from repro.compiler import CompiledMode, compile_ruleset
from repro.core import available_backends
from repro.engine import BatchEngine, EngineConfig
from repro.workloads.datasets import generate_mode_patterns
from repro.workloads.inputs import generate_input
from repro.workloads.profiles import PROFILES

requires_fused = pytest.mark.skipif(
    "fused" not in available_backends(), reason="fused backend not available"
)


def _keywords(count: int = 64, seed: int = 5) -> list[str]:
    """Distinct literal keywords (forced LNFA mode) of length 5-8."""
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(5, 8)
        words.add(
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))
        )
    return sorted(words)


PATTERNS = _keywords()

STREAM_MB = max(1, int(os.environ.get("RAP_SPLIT_BENCH_MB", "8")))
_BLOCK = generate_input(
    "network", 1 << 20, seed=13, patterns=PATTERNS, plant_every=50_000
)
STREAM = (_BLOCK * STREAM_MB)[: STREAM_MB << 20]

INPUT_JOBS = 4
SPEEDUP_FLOOR = 2.5
# The floor is defined on the long-input regime (the scheduled CI leg
# runs at 50 MB); short default streams record timings and assert
# exactness but don't gate speedup — pool spawn overhead dominates.
FLOOR_MIN_MB = 50


@pytest.fixture(scope="module")
def workload():
    ruleset = compile_ruleset(PATTERNS)
    assert all(r.mode is CompiledMode.LNFA for r in ruleset)
    serial = BatchEngine(EngineConfig(jobs=1, backend="fused"))
    split = BatchEngine(
        EngineConfig(jobs=1, input_jobs=INPUT_JOBS, backend="fused")
    )
    return ruleset, serial, split


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@requires_fused
def test_split_scan_speed(benchmark, workload):
    ruleset, _, split = workload
    result = benchmark.pedantic(
        split.scan, args=(ruleset, STREAM), rounds=1, iterations=1
    )
    assert result.matches


@requires_fused
def test_split_matches_serial_and_beats_it(benchmark, workload):
    """The regression-gated floor from the input-parallel issue."""
    ruleset, serial, split = workload

    serial_result = serial.scan(ruleset, STREAM)
    split_result = split.scan(ruleset, STREAM)
    # Exactness gates unconditionally — a fast wrong answer is a bug.
    assert split_result == serial_result

    benchmark.pedantic(
        split.scan, args=(ruleset, STREAM), rounds=1, iterations=1
    )
    if (os.cpu_count() or 1) < INPUT_JOBS:
        pytest.skip(
            f"speedup floor needs >= {INPUT_JOBS} cores "
            f"(host has {os.cpu_count()}); exactness was still asserted"
        )
    if STREAM_MB < FLOOR_MIN_MB:
        pytest.skip(
            f"speedup floor gates at RAP_SPLIT_BENCH_MB >= {FLOOR_MIN_MB} "
            f"(ran at {STREAM_MB}); exactness was still asserted"
        )
    serial_time = min(_timed(serial.scan, ruleset, STREAM) for _ in range(2))
    split_time = min(_timed(split.scan, ruleset, STREAM) for _ in range(2))
    assert split_time * SPEEDUP_FLOOR <= serial_time, (
        f"input-parallel scan {split_time:.3f}s is not {SPEEDUP_FLOOR}x "
        f"faster than serial fused {serial_time:.3f}s on a "
        f"{len(STREAM)}-byte stream with input_jobs={INPUT_JOBS}"
    )


@requires_fused
def test_windowless_units_split_near_serial(benchmark):
    """64 cyclic NFA-mode units: nothing to chunk, two whole-stream
    tasks of 32 cursors.  No speed-up is claimed (two workers each pay
    the stream's translation and a pool start); the floor says splitting
    stays near serial — the per-chunk state maps this replaced took
    46 s against 0.1 s here."""
    patterns = list(
        generate_mode_patterns(PROFILES["Snort"], CompiledMode.NFA, 64, seed=0)
    )
    data = generate_input(
        "network", 1 << 20, seed=3, patterns=patterns, plant_every=600
    )
    backend = "native" if "native" in available_backends() else "fused"
    ruleset = compile_ruleset(patterns)
    serial = BatchEngine(EngineConfig(jobs=1, backend=backend, use_cache=False))
    split = BatchEngine(
        EngineConfig(jobs=1, input_jobs=2, backend=backend, use_cache=False)
    )
    serial_result = serial.scan(ruleset, data)  # binds, builds and loads
    split_result = benchmark.pedantic(
        split.scan, args=(ruleset, data), rounds=1, iterations=1
    )
    assert split_result == serial_result
    serial_time = min(_timed(serial.scan, ruleset, data) for _ in range(2))
    split_time = min(_timed(split.scan, ruleset, data) for _ in range(2))
    assert split_time <= 3 * serial_time + 1.0, (
        f"input_jobs=2 took {split_time:.3f}s against {serial_time:.3f}s "
        f"serial on {backend}: whole-stream unit tasks should cost about "
        "one serial scan"
    )
