"""DFA-mode speed: the NFA-mode scan inherited the table lookup.

The cost model's pitch for the DFA tier was that one ``translated[i] ->
next_state`` lookup per byte replaces the NFA's per-live-state gather
union.  Every GATHER unit is determinised at bind time now, NFA-mode and
DFA-mode alike, so on the regime where that mattered — a 64-keyword
low-activity ruleset whose patterns overlap heavily (long keywords over
a tiny sub-alphabet, several live NFA states per byte) — both forced
modes walk the same tables.  The gate pins that: a forced-NFA scan that
falls behind the forced-DFA one has dropped back to the mask stack.
Both sides run on the fused backend; forced modes keep the comparison
honest (auto mode would route plain keywords to LNFA).
"""

import dataclasses
import random
import time

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
    nfa_rs = compile_ruleset(
        PATTERNS, CompilerConfig(forced_mode=CompiledMode.NFA)
    )
    assert not dfa_rs.rejected and not nfa_rs.rejected
    assert all(r.mode is CompiledMode.DFA for r in dfa_rs)
    assert all(r.mode is CompiledMode.NFA for r in nfa_rs)
    sim = RAPSimulator(DEFAULT_CONFIG)
    return (
        sim,
        (dfa_rs, sim.build_mapping(dfa_rs)),
        (nfa_rs, sim.build_mapping(nfa_rs)),
    )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _modeless(activity):
    """Per-regex activities with the mode tag erased (it legitimately
    differs between the forced rulesets; everything else must not)."""
    return {
        rid: dataclasses.replace(act, mode=CompiledMode.NFA)
        for rid, act in activity.regex.items()
    }


@requires_fused
def test_dfa_ruleset_scan_speed(benchmark, workload):
    sim, (dfa_rs, mapping), _ = workload
    with use_backend("fused"):
        activity = benchmark(sim.collect_activities, dfa_rs, STREAM, mapping)
    assert activity.input_symbols == len(STREAM)


@requires_fused
def test_dfa_beats_forced_nfa(benchmark, workload):
    """Forced-NFA within 1.25x of forced-DFA: one table under both
    modes (the DFA-tier issue's 1.5x floor, inverted)."""
    sim, (dfa_rs, dfa_map), (nfa_rs, nfa_map) = workload

    def dfa_scan():
        with use_backend("fused"):
            return sim.collect_activities(dfa_rs, STREAM, dfa_map)

    def nfa_scan():
        with use_backend("fused"):
            return sim.collect_activities(nfa_rs, STREAM, nfa_map)

    # Exactness before speed: same matches, same integer counters.
    assert _modeless(dfa_scan()) == _modeless(nfa_scan())
    dfa_time = min(_timed(dfa_scan) for _ in range(3))
    nfa_time = min(_timed(nfa_scan) for _ in range(3))
    benchmark.pedantic(dfa_scan, rounds=1, iterations=1)
    assert nfa_time <= 1.25 * dfa_time, (
        f"forced-NFA scan {nfa_time:.4f}s fell behind the forced-DFA "
        f"{dfa_time:.4f}s on a {len(STREAM)}-byte stream with "
        f"{len(PATTERNS)} patterns: the NFA-mode scan lost the lookup"
    )
