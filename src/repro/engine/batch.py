"""The batch execution engine: parallel scans with bit-identical output.

Two axes of parallelism, both with deterministic merges:

* **Across tasks** — :meth:`BatchEngine.run_batch` runs many (ruleset x
  input stream) pairs over worker processes; each task executes the
  same code path as a sequential run, so per-task results are identical
  by construction and come back in task order.
* **Within one scan** — :meth:`BatchEngine.scan` parallelizes a single
  (ruleset, stream) pair.  On the ``fused`` / ``native`` backends the
  fused plan scans the stream, split across ``input_jobs`` chunks
  (:mod:`repro.engine.split`).  On the ``python`` backend ``jobs``
  forks per-unit collectors: when every regex has bounded state memory
  (see :func:`~repro.engine.partition.required_overlap`) the stream is
  chunked with overlap-window stitching; otherwise work shards per
  regex / per LNFA bin over the whole stream.  Either way workers only
  *collect* integer activity; the parent merges it exactly and prices
  energy once, performing the very float operations a sequential run
  would — output is bit-identical (same match offsets, cycles, and
  picojoule totals).

Workers are seeded once per process with the pickled ruleset, hardware
config, and input stream (fork makes this cheap on Linux); per-unit task
descriptors are tiny tuples.
"""

from __future__ import annotations

import os
import pickle
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace

from repro.compiler import CompilerConfig, compile_ruleset, explain_patterns
from repro.compiler.costmodel import MODE_CHOICES, mode_override, resolve_mode
from repro.compiler.program import CompiledMode, CompiledRuleset
from repro.core import (
    resolve_backend,
    resolve_backend_with_reason,
    use_backend,
)
from repro.engine import faults
from repro.engine.budget import BudgetMonitor, ResourceBudget, validate_degrade
from repro.engine.cache import CompileCache, cached_compile_ruleset
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.engine.partition import Chunk, plan_chunks, required_overlap
from repro.engine.pool import effective_jobs, parallel_map
from repro.engine.supervisor import SupervisorConfig, run_supervised
from repro.errors import (
    BudgetExceededError,
    CompileError,
    QuarantineEntry,
    QuarantineReport,
    validate_on_error,
)
from repro.simulators.activity import (
    BinActivity,
    RegexActivity,
    collect_bin_activity,
    collect_regex_activity,
)
from repro.simulators.rap import RAPSimulator, RunActivity, bind
from repro.simulators.result import SimulationResult

# Environment fallback for the input-parallelism level of bulk scans
# (like RAP_BACKEND for backends).
INPUT_JOBS_ENV = "RAP_INPUT_JOBS"


def resolve_input_jobs(explicit: int | None = None) -> int:
    """``explicit`` if given, else ``RAP_INPUT_JOBS``, else 1 (floor 1)."""
    if explicit is None:
        raw = os.environ.get(INPUT_JOBS_ENV, "").strip()
        if raw:
            try:
                explicit = int(raw)
            except ValueError as err:
                raise ValueError(
                    f"{INPUT_JOBS_ENV} must be an integer, got {raw!r}"
                ) from err
        else:
            explicit = 1
    return max(1, explicit)


@dataclass(frozen=True)
class EngineConfig:
    """Batch-engine knobs (the CLI's ``--jobs`` / ``--cache`` flags)."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: str | None = None  # None: RAP_CACHE_DIR or ~/.cache/rap-repro
    # Step-kernel backend for the hot loops (see repro.core.registry);
    # None keeps the ambient default (RAP_BACKEND or python).  Workers
    # inherit the parent's resolved choice, and the compile-cache key
    # embeds it, so the backend never changes results — only speed.
    backend: str | None = None
    # Execution-mode policy for compiles routed through this engine (the
    # CLI's --mode): "auto" defers to RAP_MODE and then the cost model;
    # any other name is a *soft* preference — eligible regexes take it,
    # the rest keep their cost-model choice.  A CompilerConfig that
    # already carries forced_mode/mode_override wins over this knob.
    mode: str = "auto"
    # Smallest owned-bytes-per-chunk worth forking for; streams shorter
    # than two chunks run unchunked.
    min_chunk_bytes: int = 4096
    # Input-parallel scanning of bulk scans (the CLI's --input-jobs;
    # ``scan`` and ``run_batch`` only — a durable scan feeds each
    # segment whole): split one stream into this many warm-up-window
    # chunks, with the units that have no window scanned whole in as
    # many tasks (repro.engine.split) — bit-identical to serial by
    # construction.  Requires the fused backend; other backends fall
    # back to ruleset sharding.  None defers to RAP_INPUT_JOBS, <= 1
    # disables.  Composes with ``jobs``: the pool is sized
    # max(jobs, input_jobs).
    input_jobs: int | None = None
    # -- fault tolerance (the CLI's --timeout/--retries/--on-error) --------
    # Per-unit deadline in seconds; None disables deadlines.
    timeout: float | None = None
    # Extra attempts per unit (crashes, timeouts, transient errors)
    # before the in-process last resort.
    retries: int = 2
    # Base for the bounded exponential backoff between retry rounds.
    backoff: float = 0.05
    # What to do with patterns/tasks that fail beyond recovery:
    # "fail" raises the structured error, "skip" drops the offender,
    # "quarantine" drops it and reports it (see BatchEngine.run_batch).
    on_error: str = "fail"
    # Deterministic fault-injection plan (see repro.engine.faults);
    # None defers to RAP_FAULT_PLAN, "" disables injection outright.
    fault_plan: str | None = None
    # -- durability (the CLI's --checkpoint-dir/--resume family) ------------
    # Directory for atomic scan checkpoints; None disables checkpointing.
    checkpoint_dir: str | None = None
    # Durable-scan chunk size: a checkpoint becomes eligible every this
    # many consumed bytes (also the segment granularity of the scan).
    checkpoint_every_bytes: int = 1 << 20
    # Minimum seconds between checkpoint writes; None writes every chunk.
    checkpoint_every_seconds: float | None = None
    # Resume from the newest intact checkpoint in checkpoint_dir.
    resume: bool = False
    # -- resource budgets (the CLI's --max-seconds/--max-rss-mb) ------------
    max_seconds: float | None = None
    max_rss_mb: float | None = None
    # Budget-pressure policy: "fail" raises BudgetExceededError, "shed"
    # quarantines lowest-weight patterns and finishes partial (exit 4).
    degrade: str = "fail"

    def __post_init__(self) -> None:
        validate_on_error(self.on_error)
        validate_degrade(self.degrade)
        if self.mode not in MODE_CHOICES:
            raise ValueError(
                f"unknown mode {self.mode!r}; choose from {MODE_CHOICES}"
            )
        if self.checkpoint_every_bytes <= 0:
            raise ValueError("checkpoint_every_bytes must be positive")


@dataclass(frozen=True)
class BatchReport:
    """The outcome of a batch run under ``on_error="quarantine"``.

    ``results`` is aligned with the input task order; quarantined tasks
    hold ``None``.  ``quarantine`` names every excluded pattern/task
    with its phase and error.
    """

    results: tuple
    quarantine: QuarantineReport

    @property
    def ok(self) -> bool:
        """Whether every task completed healthy."""
        return not self.quarantine

    def healthy(self) -> list:
        """The non-quarantined results, in task order."""
        return [r for r in self.results if r is not None]


@dataclass(frozen=True)
class DurableScanOutcome:
    """The outcome of one durable (checkpointed, budgeted) scan.

    ``result`` is bit-identical to an uninterrupted sequential run when
    nothing was shed; with shedding it prices the partial activity of
    the frozen units, and ``quarantine`` names every shed pattern
    (phase ``"degrade"``).  ``resumed_from`` is the stream offset a
    restored checkpoint provided (``None`` for a fresh start).
    """

    result: SimulationResult
    quarantine: QuarantineReport
    resumed_from: int | None = None
    checkpoints_written: int = 0
    checkpoint_failures: int = 0
    checkpoint_bytes: int = 0  # put on disk, slot padding included
    checkpoint_sync_seconds: float = 0.0  # of the wall time, in fsync / fdatasync
    bytes_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Whether the scan finished complete, with nothing shed."""
        return not self.quarantine


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work: a ruleset (or patterns) and one stream."""

    data: bytes
    patterns: tuple[str, ...] | None = None
    ruleset: CompiledRuleset | None = None
    compiler: CompilerConfig = field(default_factory=CompilerConfig)
    bin_size: int | None = None

    def __post_init__(self) -> None:
        if (self.patterns is None) == (self.ruleset is None):
            raise ValueError("a task needs exactly one of patterns/ruleset")


class BatchEngine:
    """Shards batch and single-stream scans across worker processes."""

    def __init__(self, config: EngineConfig | None = None, hw=None):
        from repro.hardware.config import DEFAULT_CONFIG

        self.config = config or EngineConfig()
        self.hw = hw or DEFAULT_CONFIG
        self.sim = RAPSimulator(self.hw)
        self.cache = (
            CompileCache(self.config.cache_dir)
            if self.config.use_cache
            else None
        )

    def _backend_scope(self):
        """Scope the configured backend, or keep the ambient default."""
        if self.config.backend is None:
            return nullcontext()
        return use_backend(self.config.backend)

    def _input_jobs(self) -> int:
        """The resolved input-parallelism level (config, else env, else 1)."""
        return resolve_input_jobs(self.config.input_jobs)

    def _supervisor_config(self) -> SupervisorConfig:
        """The retry/deadline knobs as the supervisor sees them."""
        return SupervisorConfig(
            timeout=self.config.timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
        )

    # -- compilation -------------------------------------------------------

    def _effective_compiler(
        self, compiler: CompilerConfig | None
    ) -> CompilerConfig:
        """The compiler config with the engine's mode policy applied.

        ``EngineConfig.mode`` (then ``RAP_MODE``) becomes the config's
        soft ``mode_override`` unless the caller already pinned a mode
        explicitly; the injected override flows into the compile-cache
        key via ``dataclasses.asdict``, so forcing a mode can never be
        served a cached auto-selection (or vice versa).
        """
        compiler = compiler or CompilerConfig()
        if compiler.forced_mode is not None or compiler.mode_override is not None:
            return compiler
        preferred = mode_override(resolve_mode(self.config.mode))
        if preferred is None:
            return compiler
        return compiler.with_mode_override(preferred)

    def explain(
        self,
        patterns,
        compiler: CompilerConfig | None = None,
    ):
        """Per-pattern decision traces under this engine's mode policy.

        Returns the :class:`~repro.compiler.pipeline.ExplainEntry` list
        behind ``rap scan --explain``: extracted features, per-mode
        predicted byte costs, the chosen mode, and the reason — or the
        compile error for patterns the compiler would reject.  Runs
        under the engine's backend scope so the cost constants scored
        are the ones a real compile on this engine would use.  Every
        entry also says which tier will step it (``tier``): NBVA-mode
        ones the generated C, or ``NBVAScanner`` and why; NFA- and
        DFA-mode ones their unit's table and its size, or the walker
        when the closure blew the cap; LNFA ones the tier of the lane
        machine they share.  With ``input_jobs > 1`` on a backend that
        honours it, ``split`` says how the row rides the workers.
        """
        compiler = self._effective_compiler(compiler)
        resolved, fallback = self.backend_report()
        splits = resolved != "python" and self._input_jobs() > 1
        with self._backend_scope():
            entries = explain_patterns(list(patterns), compiler)
            lanes = None  # the one (tier, split) every LNFA row shares
            for index, entry in enumerate(entries):
                if entry.trace is None:
                    continue
                if entry.trace.mode is CompiledMode.LNFA:
                    if lanes is None:
                        lanes = self._lane_tier(
                            [e.pattern for e in entries if e.trace],
                            compiler, resolved, fallback, splits,
                        )
                    tier, split = lanes
                else:
                    tier, split = self._unit_tier(
                        entry.pattern, compiler, resolved, fallback, splits
                    )
                if tier:
                    entries[index] = replace(entry, tier=tier, split=split)
        return entries

    def _lane_tier(
        self, patterns, compiler: CompilerConfig, resolved: str,
        fallback: str | None, splits: bool,
    ) -> tuple[str | None, str | None]:
        """Which tier steps the lane machine of ``patterns`` on the
        ``resolved`` backend (:attr:`FusedLaneScanner.lane_tier`; on
        native this builds the lane kernel a scan would) and, when the
        scan ``splits``, the warm-up window its chunks share."""
        tier = f"interpreted ({fallback or resolved + ' backend'})"
        if resolved != "native" and not splits:
            return tier, None
        plan = bind(compile_ruleset(patterns, compiler), self.hw).plan
        if plan.scanner is None:
            return None, None
        if resolved == "native":
            tier = plan.scanner.lane_tier
        return tier, _split_note(plan, None) if splits else None

    def _unit_tier(
        self, pattern: str, compiler: CompilerConfig, resolved: str,
        fallback: str | None, splits: bool,
    ) -> tuple[str | None, str | None]:
        """Which tier steps a non-LNFA pattern's unit on the ``resolved``
        backend.  NBVA mode: ``"native"``, or ``"interpreted (<why>)"``.
        NFA and DFA mode, wherever a fused plan runs: ``"table (S
        states)"``, or ``"interpreted (closure > N)"`` — the size is the
        unit's own closure, the same under any ruleset's shared classes.
        Second, when the scan ``splits``: the unit's own warm-up window,
        or ``whole stream``."""
        interpreted = f"interpreted ({fallback or resolved + ' backend'})"
        if resolved == "python":
            return interpreted, None
        ruleset = compile_ruleset([pattern], compiler)
        mode = ruleset.regexes[0].mode if ruleset.regexes else CompiledMode.LNFA
        if mode is CompiledMode.LNFA:
            return None, None
        if mode is not CompiledMode.NBVA:
            plan = bind(ruleset, self.hw).plan
            return plan.fused.unit_tier(0), _split_note(plan, 0) if splits else None
        split = "whole stream" if splits else None  # counters: no window
        if resolved != "native":
            return interpreted, split
        from repro.core.codegen import nbva_interpreted_reason

        why = nbva_interpreted_reason(ruleset.regexes[0].automaton)
        return (f"interpreted ({why})" if why else "native"), split

    def forest_report(self, patterns, compiler: CompilerConfig | None = None):
        """``--explain``'s ruleset-level lines on ``native`` (none
        elsewhere): how full the unit forest a scan of ``patterns``
        builds is, and why each unit outside it is walked in Python."""
        if self.backend_report()[0] != "native":  # nothing to build: no compile
            return []
        compiler = self._effective_compiler(compiler)
        with self._backend_scope():
            ruleset = compile_ruleset(list(patterns), compiler)
            native = bind(ruleset, self.hw).plan.fused._native_scanner()
        return native.forest if native is not None and native.bases else []

    def backend_report(self) -> tuple[str, str | None]:
        """The *resolved* step-kernel backend, with the fallback reason.

        Walks the same probe-and-fall-back chain a scan would: the
        returned name is what will actually execute, and the reason is
        ``None`` when the configured (or ambient) backend is available,
        else a human-readable chain like ``"native unavailable: no C
        compiler"``.  Surfaced by ``rap scan --explain`` and the serve
        session ack so a silent fallback is observable.
        """
        return resolve_backend_with_reason(self.config.backend)

    def compile(
        self,
        patterns,
        compiler: CompilerConfig | None = None,
        on_error: str | None = None,
    ) -> CompiledRuleset:
        """Compile through the keyed cache when caching is enabled.

        Under the (default) ``"fail"`` policy a pattern the compiler
        rejects raises its structured :class:`CompileError` /
        :class:`~repro.errors.CapacityError`; under ``"skip"`` and
        ``"quarantine"`` rejections stay recorded on the returned
        ruleset (``ruleset.rejected``) and compilation proceeds with
        the healthy patterns, matching real rule-feed deployments.
        """
        policy = validate_on_error(
            on_error if on_error is not None else self.config.on_error
        )
        patterns = list(patterns)
        compiler = self._effective_compiler(compiler)
        with self._backend_scope():
            if self.cache is not None:
                ruleset = cached_compile_ruleset(patterns, compiler, self.cache)
            else:
                from repro.compiler import compile_ruleset

                ruleset = compile_ruleset(patterns, compiler)
        if policy == "fail" and ruleset.rejected:
            raise _rejection_error(ruleset, patterns)
        return ruleset

    def _resolve(self, task: BatchTask, policy: str) -> CompiledRuleset:
        if task.ruleset is not None:
            return task.ruleset
        return self.compile(task.patterns, task.compiler, on_error=policy)

    # -- batch execution ---------------------------------------------------

    def run_batch(self, tasks, on_error: str | None = None):
        """Run every task, fanned out across processes, in task order.

        Execution is supervised: crashed workers are respawned, units
        that blow ``EngineConfig.timeout`` are retried with backoff,
        and stragglers fall back to in-process execution — results are
        identical to a sequential run regardless.

        The ``on_error`` policy (default ``EngineConfig.on_error``)
        governs failures that survive all of that:

        * ``"fail"`` — raise the first structured error (a list of
          results is returned only when everything succeeded);
        * ``"skip"`` — return a list with ``None`` at failed tasks;
        * ``"quarantine"`` — return a :class:`BatchReport` whose
          ``results`` align with the task order and whose
          ``quarantine`` report names every excluded pattern/task.
        """
        policy = validate_on_error(
            on_error if on_error is not None else self.config.on_error
        )
        tasks = list(tasks)
        if self._input_jobs() > 1:
            # Input-parallel mode: worker processes cannot fork their
            # own pools, so tasks run in the parent, one after another,
            # and each task's *stream* fans out across the chunk pool.
            return self._run_batch_input_parallel(tasks, policy)
        backend = resolve_backend(self.config.backend)
        entries: list[QuarantineEntry] = []
        results: list[SimulationResult | None] = [None] * len(tasks)
        payloads: list[bytes] = []
        payload_tasks: list[int] = []
        for index, task in enumerate(tasks):
            ruleset = self._resolve(task, policy)  # raises under "fail"
            if policy == "quarantine":
                entries.extend(_rejection_entries(ruleset, task, index))
            if task.patterns is not None and ruleset.rejected and not len(ruleset):
                continue  # nothing compiled: quarantine the whole task
            payloads.append(
                pickle.dumps(
                    (ruleset, task.data, task.bin_size, self.hw, backend),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            payload_tasks.append(index)
        outcomes = run_supervised(
            _execute_task,
            payloads,
            jobs=self.config.jobs,
            config=self._supervisor_config(),
            fault_plan=self.config.fault_plan,
        )
        for outcome, index in zip(outcomes, payload_tasks):
            if outcome.error is None:
                results[index] = outcome.result
                continue
            if policy == "fail":
                raise outcome.error
            if policy == "quarantine":
                entries.append(
                    QuarantineEntry(
                        phase="execute",
                        error=str(outcome.error),
                        error_type=type(outcome.error).__name__,
                        task_index=index,
                        attempts=outcome.attempts,
                    )
                )
        if policy == "quarantine":
            return BatchReport(
                results=tuple(results),
                quarantine=QuarantineReport(tuple(entries)),
            )
        return results

    def _run_batch_input_parallel(self, tasks, policy: str):
        """:meth:`run_batch` for ``input_jobs > 1``: per-task results are
        produced by :meth:`scan` (input-parallel within each stream) and
        mapped through the same ``on_error`` policy."""
        entries: list[QuarantineEntry] = []
        results: list[SimulationResult | None] = [None] * len(tasks)
        for index, task in enumerate(tasks):
            ruleset = self._resolve(task, policy)  # raises under "fail"
            if policy == "quarantine":
                entries.extend(_rejection_entries(ruleset, task, index))
            if task.patterns is not None and ruleset.rejected and not len(ruleset):
                continue  # nothing compiled: quarantine the whole task
            try:
                results[index] = self.scan(
                    ruleset, task.data, bin_size=task.bin_size
                )
            except Exception as err:
                if policy == "fail":
                    raise
                if policy == "quarantine":
                    entries.append(
                        QuarantineEntry(
                            phase="execute",
                            error=str(err),
                            error_type=type(err).__name__,
                            task_index=index,
                        )
                    )
        if policy == "quarantine":
            return BatchReport(
                results=tuple(results),
                quarantine=QuarantineReport(tuple(entries)),
            )
        return results

    def merge_results(self, results) -> SimulationResult:
        """Fold shard results with :meth:`SimulationResult.merge`."""
        results = list(results)
        if not results:
            raise ValueError("no results to merge")
        merged = results[0]
        for result in results[1:]:
            merged = merged.merge(result)
        return merged

    # -- single-stream scans -----------------------------------------------

    def scan(
        self,
        source,
        data: bytes,
        bin_size: int | None = None,
        compiler: CompilerConfig | None = None,
    ) -> SimulationResult:
        """Scan one stream, parallelized, bit-identical to sequential.

        ``source`` is a compiled ruleset or an iterable of patterns.

        Execution is supervised (see :meth:`run_batch`): worker
        crashes, deadline overruns, and injected faults are retried and
        re-collected; because retried units recompute the same integer
        activity, the merged result stays bit-identical to the
        sequential reference no matter which faults fired.
        """
        if isinstance(source, CompiledRuleset):
            ruleset = source
        else:
            ruleset = self.compile(source, compiler)
        sim = self.sim
        with self._backend_scope() as backend:
            backend = backend or resolve_backend()  # once: passed down from here
            mapping = bind(ruleset, self.hw, bin_size, backend=backend).mapping
            input_jobs = self._input_jobs()
            planned = backend in ("fused", "native")
            if input_jobs > 1 and data and len(ruleset) and planned:
                from repro.engine.split import split_collect

                activity = split_collect(
                    ruleset,
                    mapping,
                    self.hw,
                    data,
                    bin_size=bin_size,
                    backend=backend,
                    input_jobs=input_jobs,
                    jobs=effective_jobs(max(self.config.jobs, input_jobs)),
                    min_chunk_bytes=self.config.min_chunk_bytes,
                    timeout=self.config.timeout,
                    retries=self.config.retries,
                    backoff=self.config.backoff,
                    fault_plan=self.config.fault_plan,
                )
                if activity is not None:
                    return sim.run_from_activity(ruleset, activity, mapping, backend)
                # stream too short (or nothing chunkable): fall through
                # to the serial plan below
            jobs = effective_jobs(self.config.jobs)
            # The unit x chunk fork below steps pure-Python collectors,
            # so it is the ``python`` backend's parallel path only; the
            # fused plan scans the stream in one pass (its intra-stream
            # parallelism is ``input_jobs``, handled above).
            if planned or jobs <= 1 or not len(ruleset) or not data:
                return sim.run(ruleset, data, mapping, backend=backend)

            chunks = self._plan(ruleset, len(data), jobs)
            units = self._work_units(ruleset, mapping, chunks)
            if len(units) <= 1:
                return sim.run_from_activity(
                    ruleset,
                    sim.collect_activities(ruleset, data, mapping),
                    mapping,
                )
            # Partitioned chunks run through the same kernel API as the
            # sequential path and collect the exact same integer activity.
            payload = pickle.dumps(
                (ruleset, data, bin_size, self.hw, backend),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            outcomes = parallel_map(
                _scan_unit,
                units,
                jobs=jobs,
                initializer=_init_scan_worker,
                initargs=(payload,),
                finalizer=_reset_scan_worker,
                timeout=self.config.timeout,
                retries=self.config.retries,
                backoff=self.config.backoff,
                fault_plan=self.config.fault_plan,
            )
            activity = self._merge_outcomes(
                ruleset, mapping, outcomes, len(data)
            )
            return sim.run_from_activity(ruleset, activity, mapping)

    def durable_scan(
        self,
        source,
        data: bytes,
        bin_size: int | None = None,
        compiler: CompilerConfig | None = None,
        weights: dict[int, float] | None = None,
    ) -> DurableScanOutcome:
        """Scan one stream durably: checkpointed, budgeted, resumable.

        The stream is consumed in ``checkpoint_every_bytes`` chunks.
        With ``checkpoint_dir`` set, the scan's complete state lands in
        an atomic checkpoint after each chunk (rate-limited by
        ``checkpoint_every_seconds``); a scan killed at *any* point —
        including ``SIGKILL`` mid-chunk — re-run with ``resume=True``
        continues from the newest intact checkpoint and produces a
        result bit-identical to an uninterrupted run.  A checkpoint
        that fails to write (disk full) is counted and skipped; the
        scan itself keeps going.

        Resource budgets (``max_seconds`` / ``max_rss_mb``) are checked
        between chunks.  Under ``degrade="fail"`` pressure raises
        :class:`~repro.errors.BudgetExceededError`; under ``"shed"``
        the lowest-weight work units (by ``weights``, keyed on regex
        id, default 1.0) are frozen and quarantined, and the scan
        finishes partial — the CLI maps that to exit code 4.
        """
        if isinstance(source, CompiledRuleset):
            ruleset = source
        else:
            ruleset = self.compile(source, compiler)
        config = self.config
        plan = faults.resolve_plan(config.fault_plan)
        sim = self.sim
        with self._backend_scope():
            mapping = bind(ruleset, self.hw, bin_size).mapping
            scan = DurableScan(
                ruleset,
                mapping,
                self.hw,
                bin_size=bin_size,
                weights=weights,
            )
            store = (
                CheckpointStore(config.checkpoint_dir)
                if config.checkpoint_dir is not None
                else None
            )
            resumed_from = None
            if config.resume and store is not None:
                doc = store.load_latest()
                if doc is not None:
                    scan.restore(doc, data, store.root)  # CheckpointError on mismatch
                    resumed_from = scan.offset
            monitor = BudgetMonitor(
                ResourceBudget(
                    max_seconds=config.max_seconds,
                    max_rss_mb=config.max_rss_mb,
                )
            )
            n = len(data)
            start_offset = scan.offset
            checkpoints_written = 0
            checkpoint_failures = 0
            last_write: float | None = None
            ordinal = 0
            while scan.offset < n:
                # The injection point a checkpoint must survive: "kill"
                # SIGKILLs this very process before the chunk is fed.
                faults.inject_chunk(ordinal, plan)
                ordinal += 1
                end = min(scan.offset + config.checkpoint_every_bytes, n)
                scan.feed(data[scan.offset : end], at_end=(end == n))
                if store is not None and scan.offset < n:
                    due = (
                        config.checkpoint_every_seconds is None
                        or last_write is None
                        or monitor.elapsed - last_write
                        >= config.checkpoint_every_seconds
                    )
                    if due:
                        try:
                            store.write(scan.snapshot(), scan.offset)
                            checkpoints_written += 1
                            last_write = monitor.elapsed
                        except OSError:
                            # A full disk costs durability, never the
                            # scan: keep the previous restore point.
                            checkpoint_failures += 1
                pressure = monitor.check()
                if pressure is not None:
                    if config.degrade != "shed":
                        raise BudgetExceededError(
                            str(pressure),
                            phase="execute",
                            limit=pressure.limit,
                        )
                    scan.shed(0.25, str(pressure))
                    if scan.live_units == 0:
                        break
            if store is not None:
                store.clear()
            result = sim.run_from_activity(ruleset, scan.finish(), mapping)
        return DurableScanOutcome(
            result=result,
            quarantine=QuarantineReport(tuple(scan.quarantine_entries)),
            resumed_from=resumed_from,
            checkpoints_written=checkpoints_written,
            checkpoint_failures=checkpoint_failures,
            checkpoint_bytes=store.bytes_written if store else 0,
            checkpoint_sync_seconds=store.sync_seconds if store else 0.0,
            bytes_scanned=scan.offset - start_offset,
        )

    def _plan(self, ruleset, n: int, jobs: int) -> list[Chunk]:
        """Chunk the stream when safe and worthwhile, else one chunk."""
        overlap = required_overlap(ruleset)
        whole = [Chunk(start=0, end=n, warm_start=0)]
        if overlap is None:
            return whole
        min_owned = max(self.config.min_chunk_bytes, 4 * overlap)
        if n < 2 * min_owned:
            return whole
        return plan_chunks(n, jobs, overlap, min_owned=min_owned)

    @staticmethod
    def _work_units(ruleset, mapping, chunks) -> list[tuple]:
        """Flat descriptors: every (regex | bin) x every chunk."""
        units: list[tuple] = []
        for regex in ruleset:
            if regex.mode is CompiledMode.LNFA:
                continue
            for chunk in chunks:
                # NBVA counters cannot be warm-started; they only appear
                # here unchunked (required_overlap forces one chunk).
                units.append(
                    (
                        "regex",
                        regex.regex_id,
                        chunk.start,
                        chunk.end,
                        chunk.warm_start,
                    )
                )
        for index, bin_index, _ in mapping.lnfa_bins():
            for chunk in chunks:
                units.append(
                    (
                        "bin",
                        index,
                        bin_index,
                        chunk.start,
                        chunk.end,
                        chunk.warm_start,
                    )
                )
        return units

    @staticmethod
    def _merge_outcomes(ruleset, mapping, outcomes, n: int) -> RunActivity:
        """Fold worker outcomes, in deterministic unit order, into the
        exact activity a sequential run would have collected."""
        regex_parts: dict[int, RegexActivity] = {}
        bin_parts: dict[tuple[int, int], BinActivity] = {}
        for outcome in outcomes:
            kind = outcome[0]
            if kind == "regex":
                _, rid, activity = outcome
                prior = regex_parts.get(rid)
                regex_parts[rid] = (
                    activity if prior is None else prior.merge(activity)
                )
            else:
                _, index, bin_index, cycles, matches, tac, tab = outcome
                activity = BinActivity(
                    bin=mapping.arrays[index].bins[bin_index],
                    cycles=cycles,
                    matches=matches,
                    tile_active_cycles=tac,
                    tile_active_bits=tab,
                )
                key = (index, bin_index)
                prior = bin_parts.get(key)
                bin_parts[key] = (
                    activity if prior is None else prior.merge(activity)
                )
        return RunActivity.in_collection_order(
            ruleset,
            mapping,
            lambda r: regex_parts[r.regex_id],
            lambda index, bin_index: bin_parts[(index, bin_index)],
            n,
        )


# -- policy helpers ---------------------------------------------------------


def _split_note(plan, unit: int | None) -> str:
    """How one ``--explain`` row rides ``input_jobs`` workers: GATHER
    cursor ``unit``'s own warm-up window — ``None`` asks for the lane
    machine's row, the window every chunk of the plan shares — or
    ``whole stream`` for a unit that has none."""
    from repro.engine.split import unit_windows

    windows, warm = unit_windows(plan)
    window = warm if unit is None else windows[unit]
    return "whole stream" if window is None else f"window {window}"


def _rejection_error(ruleset: CompiledRuleset, patterns: list) -> CompileError:
    """The structured error for the first rejected pattern of a compile."""
    pattern, reason = ruleset.rejected[0]
    causes = ruleset.rejected_errors
    cause = causes[0] if causes else None
    # Re-raise as the original class (CapacityError stays CapacityError)
    # even when the ruleset came out of the cache without error objects.
    cls = type(cause) if isinstance(cause, CompileError) else CompileError
    try:
        index = patterns.index(pattern)
    except ValueError:
        index = None
    return cls(
        f"{len(ruleset.rejected)} of {len(patterns)} pattern(s) failed to "
        f"compile; first: {pattern!r}: {reason}",
        pattern=pattern,
        pattern_index=index,
        phase="compile",
    )


def _rejection_entries(
    ruleset: CompiledRuleset, task: BatchTask, task_index: int
) -> list[QuarantineEntry]:
    """Quarantine entries for every pattern a task's compile rejected."""
    causes = ruleset.rejected_errors
    entries = []
    for offset, (pattern, reason) in enumerate(ruleset.rejected):
        cause = causes[offset] if offset < len(causes) else None
        pattern_index = getattr(cause, "pattern_index", None)
        if pattern_index is None and task.patterns is not None:
            try:
                pattern_index = task.patterns.index(pattern)
            except ValueError:
                pattern_index = None
        entries.append(
            QuarantineEntry(
                phase="compile",
                error=reason,
                error_type=type(cause).__name__ if cause else "CompileError",
                pattern=pattern,
                pattern_index=pattern_index,
                task_index=task_index,
            )
        )
    return entries


# -- worker-side functions (module level: picklable by the pool) -----------

_WORKER_STATE: dict = {}


def _init_scan_worker(payload: bytes) -> None:
    """Seed one worker process with the scan's shared state."""
    ruleset, data, bin_size, hw, backend = pickle.loads(payload)
    _WORKER_STATE["backend_scope"] = scope = ExitStack()
    scope.enter_context(use_backend(backend))
    sim = RAPSimulator(hw)
    _WORKER_STATE["data"] = data
    _WORKER_STATE["hw"] = hw
    _WORKER_STATE["regex_by_id"] = {r.regex_id: r for r in ruleset}
    _WORKER_STATE["mapping"] = sim.build_mapping(ruleset, bin_size=bin_size)


def _reset_scan_worker() -> None:
    """Clear the worker globals.

    Worker processes die with their state, but the in-process fallback
    runs ``_init_scan_worker`` in the *parent* — without this reset the
    seeded ruleset/stream would leak into (and pin memory for) every
    later scan in the process, and the backend pin would outrank every
    later ``RAP_BACKEND`` change.
    """
    scope = _WORKER_STATE.pop("backend_scope", None)
    if scope is not None:
        scope.close()
    _WORKER_STATE.clear()


def _scan_unit(unit: tuple):
    """Collect one (regex | bin) x chunk activity inside a worker."""
    data = _WORKER_STATE["data"]
    if unit[0] == "regex":
        _, rid, start, end, warm_start = unit
        activity = collect_regex_activity(
            _WORKER_STATE["regex_by_id"][rid],
            data[warm_start:end],
            base=warm_start,
            stats_from=start - warm_start,
        )
        return ("regex", rid, activity)
    _, index, bin_index, start, end, warm_start = unit
    bin_obj = _WORKER_STATE["mapping"].arrays[index].bins[bin_index]
    activity = collect_bin_activity(
        bin_obj,
        data[warm_start:end],
        _WORKER_STATE["hw"],
        base=warm_start,
        stats_from=start - warm_start,
    )
    return (
        "bin",
        index,
        bin_index,
        activity.cycles,
        activity.matches,
        activity.tile_active_cycles,
        activity.tile_active_bits,
    )


def _execute_task(payload: bytes) -> SimulationResult:
    """Run one fully-specified batch task inside a worker."""
    ruleset, data, bin_size, hw, backend = pickle.loads(payload)
    with use_backend(backend):
        return RAPSimulator(hw).run(ruleset, data, bin_size=bin_size)
