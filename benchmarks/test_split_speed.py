"""Input-parallel scan speed: threads over one binding against native serial.

The split engine's pitch is that one long stream fans out across
cores with *zero* accuracy cost: every chunk scans from its warm-up
window on a thread of the scan's own process, and the stitched
activity is bit-identical to the serial pass.  This gate pins both
halves on the ledger's 64-keyword ruleset over a fixed 32 MiB of
mostly-cold traffic, on ``native`` (the generated C releases the GIL
for a crossing; the table walker does not, so ``fused`` is not timed):

* exactness is asserted unconditionally (`SimulationResult` equality
  between serial and ``input_jobs=2``), and
* on hosts with >= 4 usable cores the split scan must be at least
  1.3x faster than serial.

Units with no window (cyclic automata, counters) are scanned whole, in
as many tasks as ``input_jobs``: `test_windowless_units_split_near_serial`
pins that a ruleset of nothing else never pays much for being split.
The stream tiles one generated block because the pure-Python input
generator would dominate the setup otherwise; tiling changes nothing
about the scan itself.
"""

import os
import time

import pytest

from benchmarks.ledger.workloads import keyword_patterns
from repro.compiler import CompiledMode, compile_ruleset
from repro.core import available_backends
from repro.engine import BatchEngine, EngineConfig
from repro.workloads.datasets import generate_mode_patterns
from repro.workloads.inputs import generate_input
from repro.workloads.profiles import PROFILES

requires_native = pytest.mark.skipif(
    "native" not in available_backends(), reason="native backend not available"
)
requires_fused = pytest.mark.skipif(
    "fused" not in available_backends(), reason="fused backend not available"
)

PATTERNS = keyword_patterns()
STREAM_MB = 32
_BLOCK = generate_input(
    "network", 1 << 20, seed=13, patterns=PATTERNS, plant_every=50_000
)
STREAM = _BLOCK * STREAM_MB

INPUT_JOBS = 2
SPEEDUP_FLOOR = 1.3
FLOOR_MIN_CORES = 4


@pytest.fixture(scope="module")
def workload():
    ruleset = compile_ruleset(PATTERNS)
    assert all(r.mode is CompiledMode.LNFA for r in ruleset)
    serial = BatchEngine(EngineConfig(backend="native", use_cache=False))
    split = BatchEngine(
        EngineConfig(backend="native", input_jobs=INPUT_JOBS, use_cache=False)
    )
    return ruleset, serial, split


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@requires_native
def test_split_matches_serial_and_beats_it(benchmark, workload):
    """Exact always; 1.3x faster where four cores can show it."""
    ruleset, serial, split = workload

    serial_result = serial.scan(ruleset, STREAM)  # binds, builds and loads
    split_result = benchmark.pedantic(
        split.scan, args=(ruleset, STREAM), rounds=1, iterations=1
    )
    # Exactness gates unconditionally — a fast wrong answer is a bug.
    assert split_result == serial_result
    assert split_result.matches

    cores = len(os.sched_getaffinity(0))
    if cores < FLOOR_MIN_CORES:
        pytest.skip(
            f"speedup floor needs >= {FLOOR_MIN_CORES} cores "
            f"(host has {cores}); exactness was still asserted"
        )
    serial_time = min(_timed(serial.scan, ruleset, STREAM) for _ in range(3))
    split_time = min(_timed(split.scan, ruleset, STREAM) for _ in range(3))
    assert split_time * SPEEDUP_FLOOR <= serial_time, (
        f"input-parallel scan {split_time:.3f}s is not {SPEEDUP_FLOOR}x "
        f"faster than serial native {serial_time:.3f}s on a "
        f"{len(STREAM)}-byte stream with input_jobs={INPUT_JOBS}"
    )


@requires_fused
def test_windowless_units_split_near_serial(benchmark):
    """64 cyclic NFA-mode units: nothing to chunk, two whole-stream
    tasks of 32 cursors over one translation.  No speed-up is claimed;
    the floor says splitting stays near serial — there is no pool to
    start, and the per-chunk state maps this replaced took 46 s against
    0.1 s here."""
    patterns = list(
        generate_mode_patterns(PROFILES["Snort"], CompiledMode.NFA, 64, seed=0)
    )
    data = generate_input(
        "network", 1 << 20, seed=3, patterns=patterns, plant_every=600
    )
    backend = "native" if "native" in available_backends() else "fused"
    ruleset = compile_ruleset(patterns)
    serial = BatchEngine(EngineConfig(backend=backend, use_cache=False))
    split = BatchEngine(
        EngineConfig(backend=backend, input_jobs=2, use_cache=False)
    )
    serial_result = serial.scan(ruleset, data)  # binds, builds and loads
    split_result = benchmark.pedantic(
        split.scan, args=(ruleset, data), rounds=1, iterations=1
    )
    assert split_result == serial_result
    serial_time = min(_timed(serial.scan, ruleset, data) for _ in range(3))
    split_time = min(_timed(split.scan, ruleset, data) for _ in range(3))
    assert split_time <= 1.5 * serial_time + 0.05, (
        f"input_jobs=2 took {split_time:.3f}s against {serial_time:.3f}s "
        f"serial on {backend}: whole-stream unit tasks should cost about "
        "one serial scan"
    )
