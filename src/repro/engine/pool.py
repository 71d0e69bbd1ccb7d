"""Process-pool plumbing shared by the batch engine and experiments.

``parallel_map`` is the one primitive everything else builds on: an
order-preserving map over worker processes that degrades to a plain
in-process loop for ``jobs <= 1`` (the reference path parallel output
is checked against) or single-item inputs.  Since the fault-tolerance
layer it is a thin raising wrapper over
:func:`repro.engine.supervisor.run_supervised`: units get per-unit
deadlines, bounded retries with backoff, pool respawn on worker
crashes, and an in-process last resort — callers that need per-unit
failure reporting instead of fail-fast semantics use the supervisor
directly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.engine.supervisor import (
    SupervisorConfig,
    effective_jobs,
    run_supervised,
)

__all__ = ["effective_jobs", "parallel_map"]

_Item = TypeVar("_Item")


def parallel_map(
    fn: Callable[[_Item], Any],
    items: Sequence[_Item],
    jobs: int = 1,
    *,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    fault_plan=None,
) -> list:
    """``[fn(item) for item in items]``, fanned out over processes.

    Results come back in input order regardless of completion order, so
    output is deterministic.  ``fn`` and every item must be picklable
    (module-level functions and plain data).  Transient failures —
    worker crashes, blown ``timeout`` deadlines, injected faults — are
    retried up to ``retries`` times and, as a last resort, re-run
    in-process; the first *unrecovered* unit error propagates to the
    caller unchanged.
    """
    outcomes = run_supervised(
        fn,
        items,
        jobs=jobs,
        config=SupervisorConfig(timeout=timeout, retries=retries, backoff=backoff),
        fault_plan=fault_plan,
    )
    results = []
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        results.append(outcome.result)
    return results
