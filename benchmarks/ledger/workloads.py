"""The five fixed workloads: rulesets, seeded inputs, and why each exists.

Rulesets never depend on ``--seed`` (they define *which layers* a
workload stresses); only the input block does.  Block sizes are chosen
so the pure-Python oracle can re-scan the whole block outside the timed
phase in a few seconds and so at least :data:`MIN_OPS` operations fit in
the ``run_seconds`` of ``BENCHMARK.json`` on a 2-core box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Every workload runs at least this many timed operations, so at least
# ten samples lie beyond the reported 90th percentile.
MIN_OPS = 110

SEGMENT_BYTES = 4096  # serve_stream segment; also the set-up prefix
CHECKPOINT_EVERY_BYTES = 65536


@dataclass(frozen=True)
class Workload:
    """One workload of the ledger.

    ``kind`` picks the entry point: ``bulk`` is ``BatchEngine.scan``,
    ``durable`` is ``BatchEngine.durable_scan`` with checkpoints on the
    checkout's filesystem, ``serve`` is a ``python -m repro serve``
    subprocess driven in a closed loop.
    """

    name: str
    kind: str
    ruleset: str  # key into RULESETS
    block_bytes: int
    plant_every: int
    setup_repeats: int
    min_ops: int = MIN_OPS


def keyword_patterns(count: int = 64, seed: int = 5) -> list[str]:
    """Distinct literal keywords of length 5-8: every one compiles to LNFA.

    The ruleset of the repo's historical speed gates
    (``benchmarks/test_native_speed.py``), regenerated here so the
    ledger does not import a legacy file.
    """
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(5, 8)
        words.add(
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))
        )
    return sorted(words)


def _snort_nfa_patterns() -> list[str]:
    from repro.compiler.program import CompiledMode
    from repro.workloads.datasets import generate_mode_patterns
    from repro.workloads.profiles import PROFILES

    return list(
        generate_mode_patterns(PROFILES["Snort"], CompiledMode.NFA, 64, seed=0)
    )


def _snort_mix_patterns() -> list[str]:
    from repro.workloads.datasets import generate_benchmark

    return list(generate_benchmark("Snort", 16).patterns)


RULESETS = {
    "keywords64": keyword_patterns,
    "snort_nfa64": _snort_nfa_patterns,
    "snort_mix16": _snort_mix_patterns,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk_lnfa_cold",
            kind="bulk",
            ruleset="keywords64",
            block_bytes=1 << 20,
            plant_every=50_000,
            setup_repeats=5,
        ),
        Workload(
            name="bulk_nfa_hot",
            kind="bulk",
            ruleset="snort_nfa64",
            block_bytes=128 << 10,
            plant_every=600,
            setup_repeats=3,  # 64 gather kernels: ~2 s of cc per cold build
        ),
        Workload(
            name="bulk_mix_paper",
            kind="bulk",
            ruleset="snort_mix16",
            block_bytes=6 << 10,
            # Denser than the 600 B elsewhere: with ~30 witnesses in the
            # block every pattern is planted, so the NBVA work per op
            # varies 2 % across seeds instead of 7 %.
            plant_every=200,
            setup_repeats=5,
        ),
        Workload(
            name="durable_ckpt",
            kind="durable",
            ruleset="keywords64",
            block_bytes=1 << 20,  # the block of bulk_lnfa_cold, byte for byte
            plant_every=50_000,
            setup_repeats=5,
        ),
        Workload(
            name="serve_stream",
            kind="serve",
            ruleset="keywords64",
            block_bytes=256 << 10,  # streamed cyclically, 4 KiB at a time
            plant_every=50_000,
            setup_repeats=3,
            min_ops=1000,  # segments in every (finite) session
        ),
    )
}


def build_inputs(workload: Workload, seed: int) -> tuple[list[str], bytes]:
    """The workload's pattern list and its seeded input block."""
    from repro.workloads.inputs import generate_input

    patterns = RULESETS[workload.ruleset]()
    block = generate_input(
        "network",
        workload.block_bytes,
        seed=seed,
        patterns=patterns,
        plant_every=workload.plant_every,
    )
    return patterns, block
