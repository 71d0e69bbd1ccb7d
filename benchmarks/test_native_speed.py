"""Native-backend speed: runtime-compiled C must beat the fused tier.

The native backend exists purely for throughput: the codegen bakes one
ruleset's lane masks, label rows, and DFA tables into specialized C,
trading a one-time ``cc`` invocation (cached as a shared object in the
compile cache) for a scan loop with no interpreter in it.  This gate
pins the payoff on the same regime as the fused gate — a 64-keyword
ruleset over >= 1 MB of mostly-cold network traffic — where the native
scan must be at least 5x faster than the fused lockstep pass, after
asserting the two are exactly equal (speed never buys divergence).
"""

import random
import time

import pytest

from repro.compiler import CompiledMode, compile_ruleset
from repro.core import available_backends, use_backend
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator
from repro.workloads.inputs import generate_input

requires_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend not available (no C toolchain?)",
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


@requires_native
def test_native_ruleset_scan_speed(benchmark, workload):
    sim, ruleset, mapping = workload
    with use_backend("native"):
        # Warm outside the timed region: the first scan may invoke cc.
        sim.collect_activities(ruleset, STREAM, mapping)
        activity = benchmark(sim.collect_activities, ruleset, STREAM, mapping)
    assert activity.input_symbols == len(STREAM)


@requires_native
def test_native_beats_fused(benchmark, workload):
    """The regression-gated 5x floor from the native-backend issue."""
    sim, ruleset, mapping = workload

    def fused_scan():
        with use_backend("fused"):
            return sim.collect_activities(ruleset, STREAM, mapping)

    def native_scan():
        with use_backend("native"):
            return sim.collect_activities(ruleset, STREAM, mapping)

    native_scan()  # warm: build (or load) the cached shared object
    assert native_scan() == fused_scan()  # exactness before speed
    fused_time = min(_timed(fused_scan) for _ in range(3))
    native_time = min(_timed(native_scan) for _ in range(3))
    benchmark.pedantic(native_scan, rounds=1, iterations=1)
    assert native_time * 5 <= fused_time, (
        f"native scan {native_time:.4f}s is not 5x faster than fused "
        f"{fused_time:.4f}s on a {len(STREAM)}-byte stream with "
        f"{len(PATTERNS)} patterns"
    )
