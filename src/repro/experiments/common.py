"""Shared experiment plumbing: workload preparation and table rendering.

The paper's methodology (Section 5.4): regexes are compiled to their
decided mode with per-benchmark DSE parameters; the NFA-mode columns come
from fully unfolding the same regexes; 100,000 input characters are
matched (scaled down here by default — pure-Python simulation is slower
than the authors' cluster runs, and every reported quantity is
ratio-dominated).
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.compiler import (
    CompiledMode,
    CompilerConfig,
    compile_pattern,
    compile_ruleset,
)
from repro.compiler.program import CompiledRuleset
from repro.workloads.datasets import GeneratedBenchmark, generate_benchmark
from repro.workloads.inputs import generate_input
from repro.workloads.profiles import PROFILES


def _env_scale(default: float = 1.0) -> float:
    """Global experiment scale from REPRO_BENCH_SCALE (e.g. 0.25 or 4)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload size and determinism knobs shared by all experiments."""

    benchmark_size: int = 24  # regexes per benchmark
    input_length: int = 6000  # characters matched (paper: 100,000)
    seed: int = 0
    unfold_threshold: int = 8
    # Execution knobs (the CLI's --jobs/--cache/--backend); they
    # parallelize the per-benchmark loops, memoize compilation, and pick
    # the step kernel for the hot loops, but never change any reported
    # number (kernels are bit-identical by contract).
    jobs: int = 1
    use_cache: bool = False
    backend: str | None = None  # None: RAP_BACKEND or python
    # Supervised-execution knobs (the CLI's --timeout/--retries): a
    # per-benchmark deadline in seconds (None: no deadline) and extra
    # attempts after crashes/overruns; retried benchmarks recompute the
    # same numbers, so these never change a reported quantity either.
    timeout: float | None = None
    retries: int = 2
    # Resource budgets (the CLI's --max-seconds/--max-rss-mb): enforced
    # between benchmarks by map_benchmarks; exceeding one raises
    # BudgetExceededError rather than letting a scaled-up run take the
    # host down.  None disables the corresponding guard.
    max_seconds: float | None = None
    max_rss_mb: float | None = None

    @classmethod
    def scaled(cls) -> "ExperimentConfig":
        """A config scaled by REPRO_BENCH_SCALE."""
        scale = _env_scale()
        return cls(
            benchmark_size=max(6, int(24 * scale)),
            input_length=max(1500, int(6000 * scale)),
        )


@dataclass
class Workload:
    """One benchmark's generated patterns and its input stream."""

    benchmark: GeneratedBenchmark
    data: bytes

    @property
    def name(self) -> str:
        """The workload's benchmark name."""
        return self.benchmark.name

    @property
    def chosen_depth(self) -> int:
        """The benchmark's DSE-chosen BV depth."""
        return self.benchmark.profile.chosen_bv_depth

    @property
    def chosen_bin_size(self) -> int:
        """The benchmark's DSE-chosen bin size."""
        return self.benchmark.profile.chosen_bin_size

    def patterns_for_mode(self, mode: CompiledMode) -> list[str]:
        """The patterns the generator targeted at a mode."""
        return [
            p
            for p, m in zip(
                self.benchmark.patterns, self.benchmark.intended_modes
            )
            if m == mode.value
        ]


def build_workload(name: str, config: ExperimentConfig) -> Workload:
    """Generate one benchmark and a matching input stream."""
    benchmark = generate_benchmark(
        name, size=config.benchmark_size, seed=config.seed
    )
    # NBVA (signature-style) patterns match real traffic far more rarely
    # than short content patterns; weight planting accordingly so the BV
    # activation rate stays in the regime the paper's analysis assumes.
    weights = [
        0.02 if mode == "NBVA" else 1.0
        for mode in benchmark.intended_modes
    ]
    data = generate_input(
        benchmark.profile.domain,
        config.input_length,
        seed=config.seed + 17,
        patterns=benchmark.patterns,
        plant_every=max(250, config.input_length // 10),
        weights=weights,
    )
    return Workload(benchmark=benchmark, data=data)


def build_mode_workload(
    name: str, mode: CompiledMode, config: ExperimentConfig
) -> Workload:
    """A single-mode benchmark subset with a matching input stream.

    Tables 2 and 3 evaluate "all regexes compiled to NBVA (resp. LNFA)"
    of each benchmark; the subset is sized independently of the mixed
    benchmark so every benchmark contributes a meaningful population.
    Signature-style NBVA subsets get sparse witness planting (real gap
    signatures fire rarely — the BV activation-rate regime of
    Section 5.3).
    """
    from repro.workloads.datasets import (
        GeneratedBenchmark,
        generate_mode_patterns,
    )
    from repro.workloads.profiles import PROFILES

    profile = PROFILES[name]
    count = max(12, config.benchmark_size // 2)
    patterns = generate_mode_patterns(profile, mode, count, seed=config.seed)
    benchmark = GeneratedBenchmark(
        name=name,
        profile=profile,
        patterns=patterns,
        intended_modes=tuple(mode.value for _ in patterns),
    )
    plant_every = (
        max(600, config.input_length // 4)
        if mode is CompiledMode.NBVA
        else max(250, config.input_length // 10)
    )
    data = generate_input(
        profile.domain,
        config.input_length,
        seed=config.seed + 17,
        patterns=patterns,
        plant_every=plant_every,
    )
    return Workload(benchmark=benchmark, data=data)


def _compile(
    patterns: Sequence[str],
    compiler: CompilerConfig,
    config: ExperimentConfig,
) -> CompiledRuleset:
    """Compile, through the keyed on-disk cache when the config asks."""
    if config.use_cache:
        from repro.engine.cache import CompileCache, cached_compile_ruleset

        return cached_compile_ruleset(patterns, compiler, CompileCache())
    return compile_ruleset(list(patterns), compiler)


def compile_decided(
    patterns: Sequence[str], config: ExperimentConfig, bv_depth: int
) -> CompiledRuleset:
    """Compile with the decision graph at the benchmark's chosen depth."""
    ruleset = _compile(
        patterns,
        CompilerConfig(
            unfold_threshold=config.unfold_threshold, bv_depth=bv_depth
        ),
        config,
    )
    if ruleset.rejected:
        raise RuntimeError(f"unexpected rejections: {ruleset.rejected}")
    return ruleset


def compile_forced(
    patterns: Sequence[str],
    mode: CompiledMode,
    config: ExperimentConfig,
    bv_depth: int = 16,
    hw=None,
) -> CompiledRuleset:
    """Compile every pattern to one forced mode."""
    kwargs = dict(
        unfold_threshold=config.unfold_threshold,
        bv_depth=bv_depth,
        forced_mode=mode,
    )
    if hw is not None:
        kwargs["hw"] = hw
    ruleset = _compile(patterns, CompilerConfig(**kwargs), config)
    if ruleset.rejected:
        raise RuntimeError(f"unexpected rejections: {ruleset.rejected}")
    return ruleset


def map_benchmarks(
    worker: Callable,
    names: Sequence[str],
    config: ExperimentConfig,
):
    """Run a per-benchmark worker over ``names``, in name order.

    With ``config.jobs > 1`` the benchmarks fan out across worker
    processes through the batch engine's pool; results always come back
    in input order, and the workers are ordinary sequential simulations,
    so the experiment's numbers are independent of the job count.

    ``worker`` must be a module-level function taking ``(name, config)``
    tuples (picklable by the pool).  ``config.backend`` is applied
    around every worker call, in-process and in pool workers alike.

    With a resource budget set (``config.max_seconds`` /
    ``config.max_rss_mb``) the benchmarks run one at a time with a
    budget heartbeat between them; blowing the budget raises
    :class:`~repro.errors.BudgetExceededError` before the next
    benchmark starts (the completed ones are simply lost — experiments
    are regenerable, unlike durable scans).
    """
    from repro.engine.pool import parallel_map

    items = [(worker, name, config) for name in names]
    if config.max_seconds is None and config.max_rss_mb is None:
        return parallel_map(
            _run_benchmark_worker,
            items,
            jobs=config.jobs,
            timeout=config.timeout,
            retries=config.retries,
        )
    from repro.engine.budget import BudgetMonitor, ResourceBudget
    from repro.errors import BudgetExceededError

    monitor = BudgetMonitor(
        ResourceBudget(
            max_seconds=config.max_seconds, max_rss_mb=config.max_rss_mb
        )
    )
    results = []
    for item in items:
        pressure = monitor.check()
        if pressure is not None:
            raise BudgetExceededError(
                str(pressure), phase="experiment", limit=pressure.limit
            )
        results.extend(
            parallel_map(
                _run_benchmark_worker,
                [item],
                jobs=config.jobs,
                timeout=config.timeout,
                retries=config.retries,
            )
        )
    return results


def _run_benchmark_worker(item):
    """Pool trampoline: scope the configured backend around one worker."""
    worker, name, config = item
    if config.backend is None:
        return worker((name, config))
    from repro.core import use_backend

    with use_backend(config.backend):
        return worker((name, config))


def compile_bvap_flavor(
    patterns_with_modes: Iterable[tuple[str, str]],
    config: ExperimentConfig,
    bv_depth: int = 16,
) -> CompiledRuleset:
    """BVAP's view of a workload: NBVA where countable, NFA otherwise
    (BVAP has no LNFA mode)."""
    compiled = []
    for pattern, intended in patterns_with_modes:
        mode = (
            CompiledMode.NBVA if intended == "NBVA" else CompiledMode.NFA
        )
        compiled.append(
            compile_pattern(
                pattern,
                len(compiled),
                CompilerConfig(
                    unfold_threshold=config.unfold_threshold,
                    bv_depth=bv_depth,
                    forced_mode=mode,
                ),
            )
        )
    return CompiledRuleset(regexes=tuple(compiled))


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """A plain monospace table (the harness prints the paper's rows)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows))
        if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def results_dir() -> Path:
    """The results directory (REPRO_RESULTS_DIR)."""
    path = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_json(name: str, payload) -> Path:
    """Write one experiment's payload as JSON."""
    path = results_dir() / f"{name}.json"
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    return path


def save_csv(name: str, headers: Sequence[str], rows: Sequence[Sequence]) -> Path:
    """Write one experiment's rows as CSV."""
    path = results_dir() / f"{name}.csv"
    with open(path, "w") as f:
        f.write(",".join(headers) + "\n")
        for row in rows:
            f.write(",".join(str(_fmt(c)) for c in row) + "\n")
    return path


ALL_BENCHMARK_NAMES = list(PROFILES)
