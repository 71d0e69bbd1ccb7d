"""Fused-backend speed: one ruleset-wide pass must beat per-unit python.

The fused backend's pitch is that a multi-pattern ruleset reads the
input *once* — shared alphabet classes, all LNFA bins lane-packed into
one machine, cold stretches skipped via the union literal prefilter —
instead of once per bin.  This gate pins that pitch on the regime the
paper cares about: a synthetic 64-keyword ruleset over >= 1 MB of
mostly-cold network traffic, where the fused scan must be at least 2x
faster than stepping the same bins one at a time on the ``python``
backend (measured 3.6x on 256 KiB of this ruleset; the stream here is
256 KiB too, because the pure-Python side of the comparison is slow).
"""

import random
import time

import pytest

from repro.compiler import CompiledMode, compile_ruleset
from repro.core import available_backends, use_backend
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator
from repro.workloads.inputs import generate_input

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

# >= 1 MB of traffic, a witness planted every ~50 KB: mostly cold.
STREAM = generate_input(
    "network", 1_200_000, seed=13, patterns=PATTERNS, plant_every=50_000
)
# The floor's comparison prefix: pure Python steps every bin per byte.
FLOOR_STREAM = STREAM[: 256 << 10]


@pytest.fixture(scope="module")
def workload():
    ruleset = compile_ruleset(PATTERNS)
    assert len(ruleset.regexes) == len(PATTERNS)
    assert all(r.mode is CompiledMode.LNFA for r in ruleset)
    sim = RAPSimulator(DEFAULT_CONFIG)
    return sim, ruleset, sim.build_mapping(ruleset)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@requires_fused
def test_fused_ruleset_scan_speed(benchmark, workload):
    sim, ruleset, mapping = workload
    with use_backend("fused"):
        activity = benchmark(sim.collect_activities, ruleset, STREAM, mapping)
    assert activity.input_symbols == len(STREAM)


@requires_fused
def test_fused_beats_python(benchmark, workload):
    """The regression-gated 2x floor from the fused-backend issue."""
    sim, ruleset, mapping = workload

    def python_scan():
        with use_backend("python"):
            return sim.collect_activities(ruleset, FLOOR_STREAM, mapping)

    def fused_scan():
        with use_backend("fused"):
            return sim.collect_activities(ruleset, FLOOR_STREAM, mapping)

    assert fused_scan() == python_scan()  # exactness before speed
    python_time = min(_timed(python_scan) for _ in range(3))
    fused_time = min(_timed(fused_scan) for _ in range(3))
    benchmark.pedantic(fused_scan, rounds=1, iterations=1)
    assert fused_time * 2 <= python_time, (
        f"fused scan {fused_time:.4f}s is not 2x faster than per-unit "
        f"python {python_time:.4f}s on a {len(FLOOR_STREAM)}-byte stream "
        f"with {len(PATTERNS)} patterns"
    )
