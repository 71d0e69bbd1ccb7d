"""Parallel batch execution engine, keyed compile cache, fault tolerance.

The paper's evaluation is embarrassingly parallel — per-array cycle
counts and per-regex energy ledgers are independent (Section 3) — and
this package exploits exactly that structure: work shards across worker
processes while integer activity merges exactly, so parallel output is
bit-identical to the sequential reference path.

Execution is *supervised* (:mod:`repro.engine.supervisor`): units run
under per-unit deadlines with bounded retries, crashed pools respawn
and re-run only the missing units, and an in-process fallback is the
last resort — with deterministic fault injection
(:mod:`repro.engine.faults`) making every recovery path testable.
Failures that survive recovery follow the engine's ``on_error`` policy
(fail / skip / quarantine, see :class:`~repro.errors.QuarantineReport`).
"""

from repro.engine.batch import (
    INPUT_JOBS_ENV,
    BatchEngine,
    BatchReport,
    BatchTask,
    DurableScanOutcome,
    EngineConfig,
    resolve_input_jobs,
)
from repro.engine.budget import (
    DEGRADE_POLICIES,
    BudgetMonitor,
    ResourceBudget,
    current_rss_mb,
    validate_degrade,
)
from repro.engine.cache import (
    CACHE_DIR_ENV,
    CompileCache,
    cached_compile_ruleset,
    default_cache_dir,
    ruleset_cache_key,
)
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.engine.faults import FAULT_PLAN_ENV, FaultDirective, FaultPlan
from repro.engine.partition import Chunk, plan_chunks
from repro.engine.pool import effective_jobs, parallel_map
from repro.engine.supervisor import (
    SupervisorConfig,
    UnitOutcome,
    run_supervised,
)

__all__ = [
    "BatchEngine",
    "BatchReport",
    "BatchTask",
    "BudgetMonitor",
    "CACHE_DIR_ENV",
    "CheckpointStore",
    "Chunk",
    "CompileCache",
    "DEGRADE_POLICIES",
    "DurableScan",
    "DurableScanOutcome",
    "EngineConfig",
    "FAULT_PLAN_ENV",
    "FaultDirective",
    "FaultPlan",
    "INPUT_JOBS_ENV",
    "ResourceBudget",
    "SupervisorConfig",
    "UnitOutcome",
    "cached_compile_ruleset",
    "current_rss_mb",
    "default_cache_dir",
    "effective_jobs",
    "parallel_map",
    "plan_chunks",
    "run_supervised",
    "resolve_input_jobs",
    "ruleset_cache_key",
    "validate_degrade",
]
