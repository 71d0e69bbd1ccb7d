"""DFA-mode speed: the portable unit walker's gate.

The cost model's pitch for the DFA tier was that one ``translated[i] ->
next_state`` lookup per byte replaces the NFA's per-live-state gather
union.  Every GATHER unit is one step table now, NFA-mode and DFA-mode
alike, and without a compiler every one of them is stepped by the same
stdlib walker — so the regime where the lookup mattered (a 64-keyword
low-activity ruleset whose patterns overlap heavily: long keywords over
a tiny sub-alphabet, several live NFA states per byte) is that walker's
speed gate, compared against the committed baseline by
``check_regression.py``.  The forced mode keeps the workload honest
(auto mode would route plain keywords to LNFA).
"""

import random

import pytest

from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
from repro.core import available_backends, use_backend
from repro.hardware.config import DEFAULT_CONFIG
from repro.simulators.rap import RAPSimulator

requires_fused = pytest.mark.skipif(
    "fused" not in available_backends(), reason="fused backend not available"
)


def _keywords(count: int = 64, seed: int = 7) -> list[str]:
    """Distinct keywords of length 10-16 over a two-letter alphabet.

    The tiny alphabet is the point: nearly every input byte extends some
    partial match, so the NFA's live-state loop runs several iterations
    per byte — the worst case the DFA's constant-time lookup flattens.
    Per-label density is still 1/256: a *low-activity* ruleset in the
    cost model's sense.
    """
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(10, 16)
        words.add("".join(rng.choice("ab") for _ in range(length)))
    return sorted(words)


PATTERNS = _keywords()

_rng = random.Random(20260809)
STREAM = bytes(_rng.choice(b"ab") for _ in range(400_000))


@pytest.fixture(scope="module")
def workload():
    dfa_rs = compile_ruleset(
        PATTERNS, CompilerConfig(forced_mode=CompiledMode.DFA)
    )
    assert not dfa_rs.rejected
    assert all(r.mode is CompiledMode.DFA for r in dfa_rs)
    sim = RAPSimulator(DEFAULT_CONFIG)
    return sim, dfa_rs, sim.build_mapping(dfa_rs)


@requires_fused
def test_dfa_ruleset_scan_speed(benchmark, workload):
    sim, dfa_rs, mapping = workload
    with use_backend("fused"):
        activity = benchmark(sim.collect_activities, dfa_rs, STREAM, mapping)
    assert activity.input_symbols == len(STREAM)
