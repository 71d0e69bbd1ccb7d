"""Supervised process-pool execution: deadlines, retries, respawn.

``run_supervised`` is the fault-tolerant replacement for a bare
``pool.map``.  Work units are submitted as individual futures and
supervised through three lines of defense:

1. **Per-unit deadlines** — each future is awaited with a timeout
   (head-of-line: the clock starts when the unit reaches the front of
   the collection order, so queued units are not charged for a hung
   predecessor).  A blown deadline becomes a retryable
   :class:`~repro.errors.TaskTimeoutError`; the pool is torn down (hung
   worker processes are terminated) so the stall cannot leak into the
   next round.
2. **Bounded retries with exponential backoff** — failed or timed-out
   units are re-submitted to a fresh pool, up to ``retries`` extra
   attempts, sleeping ``backoff * 2**round`` (capped) between rounds.
   A ``BrokenProcessPool`` marks every unfinished unit as a retryable
   :class:`~repro.errors.WorkerCrashError` and respawns the pool for
   *only the missing units*; completed results are kept.  A pool that
   breaks while the parent is still submitting is the same crash: the
   units it refused never ran and re-queue without a charged attempt.
3. **In-process sequential fallback** — units that exhaust their pool
   retries get one final attempt inline in the parent (no pool, no
   pickling), so a flaky pool can degrade the run to sequential speed
   but never to failure.

Work units must be *pure* (re-running one recomputes the identical
result): the engine's units only collect integer activity, so a merged
result after any combination of retries is bit-identical to a
sequential run.

Deterministic faults (:mod:`repro.engine.faults`) are injected at the
unit-call boundary — in workers via an installed plan, inline via an
explicit plan object — which is how CI exercises every path above.

Failures are *collected*, not raised: each unit ends with a
:class:`UnitOutcome` carrying its result or its final exception plus
the attempt count, leaving policy (fail / skip / quarantine) to the
caller.  Deterministic input errors (``ValueError`` / ``TypeError``,
which includes :class:`~repro.errors.CompileError`) are never retried.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.engine import faults
from repro.errors import TaskTimeoutError, WorkerCrashError


def effective_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 means one per CPU."""
    if not jobs or jobs < 1:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/deadline knobs for one supervised map."""

    # Per-unit deadline in seconds; None disables deadlines (a hung
    # unit then blocks like a bare pool.map would).
    timeout: float | None = None
    # Extra attempts per unit after the first, across pool rounds.
    retries: int = 2
    # Base backoff between retry rounds; round r sleeps
    # min(backoff * 2**(r-1), backoff_cap).  Deterministic (no jitter).
    backoff: float = 0.05
    backoff_cap: float = 2.0


@dataclass
class UnitOutcome:
    """Terminal state of one work unit after supervision."""

    index: int
    result: Any = None
    error: BaseException | None = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        """Whether the unit ended with a result."""
        return self.error is None


def run_supervised(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    *,
    config: SupervisorConfig | None = None,
    fault_plan=None,
) -> list[UnitOutcome]:
    """Supervised order-preserving map; never raises for unit failures.

    Returns one :class:`UnitOutcome` per item, in item order.  ``fn``
    and items must be picklable module-level objects for the pool path.
    ``fault_plan`` overrides ``RAP_FAULT_PLAN`` (pass ``""`` to force no
    injection).
    """
    cfg = config or SupervisorConfig()
    plan = faults.resolve_plan(fault_plan)
    items = list(items)
    outcomes = [UnitOutcome(index=i) for i in range(len(items))]
    if not items:
        return outcomes
    jobs = effective_jobs(jobs)
    attempts = [0] * len(items)
    if jobs > 1 and len(items) > 1:
        pending = _run_pooled(fn, items, attempts, jobs, plan, cfg, outcomes)
        # A unit the broken pool refused re-queued uncharged, so it can
        # leave with pool attempts unused: the last resort is numbered
        # past the whole pool budget, where no plan aimed at it reaches.
        for i in pending:
            attempts[i] = max(attempts[i], cfg.retries + 1)
    else:
        pending = list(range(len(items)))
    if pending:
        _run_inline(fn, items, pending, attempts, plan, cfg, outcomes)
    return outcomes


def _retryable(err: BaseException) -> bool:
    """Whether re-running the unit could plausibly change the outcome.

    Deterministic input errors (ValueError/TypeError — including
    CompileError/CapacityError) fail identically every attempt; crashes,
    timeouts, pickling hiccups, and generic runtime errors are retried.
    """
    if isinstance(err, (WorkerCrashError, TaskTimeoutError)):
        return True
    return not isinstance(err, (ValueError, TypeError))


def _backoff_sleep(cfg: SupervisorConfig, round_no: int) -> None:
    if cfg.backoff > 0:
        time.sleep(min(cfg.backoff * (2 ** (round_no - 1)), cfg.backoff_cap))


def _run_pooled(fn, items, attempts, jobs, plan, cfg, outcomes) -> list[int]:
    """Pool rounds with respawn; returns indices still worth retrying."""
    pending = list(range(len(items)))
    for round_no in range(cfg.retries + 1):
        if not pending:
            return []
        if round_no:
            _backoff_sleep(cfg, round_no)
        pending = _pool_round(fn, items, pending, attempts, jobs, plan, cfg, outcomes)
    return pending


def _pool_round(fn, items, pending, attempts, jobs, plan, cfg, outcomes) -> list[int]:
    """One submit/collect round over a fresh pool.

    Returns the units that failed retryably this round (to re-run);
    non-retryable failures become final outcomes immediately.
    """
    retry: list[int] = []
    unsubmitted: list[int] = []
    degraded = False  # a worker crashed or a unit timed out
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)),
        initializer=_init_worker,
        initargs=(plan.spec(),),
    )
    try:
        futures = []
        for position, i in enumerate(pending):
            try:
                future = pool.submit(_call_unit, (fn, i, attempts[i], items[i]))
            except BrokenProcessPool:
                # A worker died while the parent was still submitting:
                # the pool refuses this unit and every later one.  They
                # never ran, so they re-queue uncharged.
                degraded = True
                unsubmitted = pending[position:]
                outcomes[i].error = WorkerCrashError(
                    f"worker crashed before unit {i} could be submitted",
                    unit=i,
                    attempts=attempts[i],
                    phase="execute",
                )
                break
            attempts[i] += 1
            outcomes[i].attempts += 1
            futures.append((i, future))
        for i, future in futures:
            try:
                result = future.result(timeout=cfg.timeout)
            except FuturesTimeoutError:
                future.cancel()
                degraded = True
                outcomes[i].error = TaskTimeoutError(
                    f"unit {i} exceeded its {cfg.timeout:g}s deadline "
                    f"(attempt {attempts[i]})",
                    unit=i,
                    attempts=attempts[i],
                    phase="execute",
                )
                retry.append(i)
            except BrokenProcessPool:
                degraded = True
                outcomes[i].error = WorkerCrashError(
                    f"worker crashed with unit {i} in flight "
                    f"(attempt {attempts[i]})",
                    unit=i,
                    attempts=attempts[i],
                    phase="execute",
                )
                retry.append(i)
            except Exception as err:
                outcomes[i].error = err
                if _retryable(err):
                    retry.append(i)
            else:
                outcomes[i].result = result
                outcomes[i].error = None
    finally:
        if degraded:
            # Reclaim hung/orphaned workers: a clean shutdown would
            # join a sleeping process and stall the whole run.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)
    return retry + unsubmitted


def _run_inline(fn, items, indices, attempts, plan, cfg, outcomes) -> None:
    """In-process execution with the same retry budget and injection.

    Serves both the ``jobs <= 1`` fast path and the last-resort
    fallback for units the pool could not finish (those get one extra
    attempt beyond their pool budget).
    """
    for i in indices:
        budget = max(attempts[i] + 1, cfg.retries + 1)
        while attempts[i] < budget:
            attempt = attempts[i]
            attempts[i] += 1
            outcomes[i].attempts += 1
            try:
                faults.inject_unit(i, attempt, plan=plan, in_process=True)
                outcomes[i].result = fn(items[i])
                outcomes[i].error = None
                break
            except Exception as err:
                outcomes[i].error = err
                if not _retryable(err) or attempts[i] >= budget:
                    break
                _backoff_sleep(cfg, attempts[i])


# -- worker-side functions (module level: picklable by the pool) -----------


def _init_worker(plan_spec: str) -> None:
    """Install the fault plan in a fresh worker process."""
    faults.install_plan(plan_spec)


def _call_unit(payload: tuple):
    """Trampoline: inject any planned fault, then run the unit."""
    fn, index, attempt, item = payload
    faults.inject_unit(index, attempt)
    return fn(item)


__all__ = [
    "SupervisorConfig",
    "UnitOutcome",
    "effective_jobs",
    "run_supervised",
]
