"""Supervisor tests: deadlines, retries, respawn, and the inline fallback.

Worker functions live at module level so the pool can pickle them by
reference (the forked children inherit this module).  Every test passes
an explicit ``fault_plan`` — including ``""`` for "no faults" — so the
suite behaves identically under CI's environment-driven fault leg.
"""

import pytest

from repro.engine.pool import parallel_map
from repro.engine.supervisor import (
    SupervisorConfig,
    UnitOutcome,
    run_supervised,
)
from repro.errors import TaskTimeoutError, WorkerCrashError

_STATE: dict = {}

# Retry knobs for the fast tests: tiny backoff, short deadline.
FAST = SupervisorConfig(timeout=None, retries=2, backoff=0.001)
DEADLINE = SupervisorConfig(timeout=0.2, retries=3, backoff=0.001)


def _double(x):
    return x * 2


def _bad_input(x):
    raise ValueError(f"deterministic rejection of {x!r}")


def _seed_state(tag):
    _STATE["tag"] = tag


def _clear_state():
    _STATE.clear()


def _read_state(x):
    return (_STATE["tag"], x)


class TestInlinePath:
    def test_order_and_attempts(self):
        outcomes = run_supervised(
            _double, [1, 2, 3], jobs=1, config=FAST, fault_plan=""
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_empty_items(self):
        assert run_supervised(_double, [], jobs=4, fault_plan="") == []

    def test_deterministic_error_not_retried(self):
        outcomes = run_supervised(
            _bad_input, ["x"], jobs=1, config=FAST, fault_plan=""
        )
        (o,) = outcomes
        assert not o.ok
        assert isinstance(o.error, ValueError)
        assert o.attempts == 1  # ValueError: re-running cannot help

    def test_transient_error_retried_to_success(self):
        # error@1:0 fires only on unit 1's first attempt; the retry runs
        # clean and the outcome is healthy.
        outcomes = run_supervised(
            _double,
            [5, 6],
            jobs=1,
            config=FAST,
            fault_plan="error@1:0",
        )
        assert [o.result for o in outcomes] == [10, 12]
        assert outcomes[0].attempts == 1
        assert outcomes[1].attempts == 2

    def test_injected_crash_stays_parent_safe(self):
        outcomes = run_supervised(
            _double, [7], jobs=1, config=FAST, fault_plan="crash@0:0"
        )
        (o,) = outcomes
        assert o.ok and o.result == 14
        assert o.attempts == 2

    def test_exhausted_retries_keep_final_error(self):
        plan = "error@0:0;error@0:1;error@0:2"
        outcomes = run_supervised(
            _double, [1], jobs=1, config=FAST, fault_plan=plan
        )
        (o,) = outcomes
        assert not o.ok
        assert isinstance(o.error, RuntimeError)
        assert o.attempts == FAST.retries + 1

    def test_initializer_and_finalizer_scope_state(self):
        outcomes = run_supervised(
            _read_state,
            [1, 2],
            jobs=1,
            initializer=_seed_state,
            initargs=("seeded",),
            finalizer=_clear_state,
            config=FAST,
            fault_plan="",
        )
        assert [o.result for o in outcomes] == [("seeded", 1), ("seeded", 2)]
        assert _STATE == {}  # the finalizer ran in the parent


class TestPooledPath:
    def test_pool_matches_inline(self):
        items = list(range(6))
        pooled = run_supervised(
            _double, items, jobs=2, config=FAST, fault_plan=""
        )
        assert [o.result for o in pooled] == [x * 2 for x in items]
        assert all(o.ok for o in pooled)

    def test_worker_crash_respawns_and_recovers(self):
        # Unit 0's first attempt kills its worker (BrokenProcessPool);
        # the supervisor respawns a pool for the missing units only and
        # the final results are complete and ordered.
        outcomes = run_supervised(
            _double, [1, 2, 3, 4], jobs=2, config=FAST, fault_plan="crash@0:0"
        )
        assert [o.result for o in outcomes] == [2, 4, 6, 8]
        assert outcomes[0].attempts >= 2

    def test_deadline_overrun_retried(self):
        # Unit 1 sleeps past the 0.2s deadline on its first attempt; the
        # retry runs clean.
        outcomes = run_supervised(
            _double,
            [1, 2, 3],
            jobs=2,
            config=DEADLINE,
            fault_plan="hang@1:0*1.5",
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert outcomes[1].attempts >= 2

    def test_every_pool_attempt_hanging_degrades_not_fails(self):
        # Every pool attempt of unit 0 blows its deadline; the inline
        # last resort has no deadline (it sleeps through the hang), so
        # the run degrades to sequential speed but still completes.
        plan = ";".join(f"hang@0:{a}*0.3" for a in range(8))
        cfg = SupervisorConfig(timeout=0.1, retries=1, backoff=0.001)
        outcomes = run_supervised(
            _double, [1, 2], jobs=2, config=cfg, fault_plan=plan
        )
        assert [o.result for o in outcomes] == [2, 4]
        assert outcomes[0].attempts == cfg.retries + 2

    def test_pool_round_classifies_timeout(self):
        # The deadline overrun surfaces as a structured, retryable
        # TaskTimeoutError naming the unit and attempt count.
        from repro.engine import supervisor
        from repro.engine.faults import FaultPlan

        cfg = SupervisorConfig(timeout=0.1, retries=0)
        outcomes = [UnitOutcome(index=i) for i in range(2)]
        retry = supervisor._pool_round(
            _double,
            [1, 2],
            [0, 1],
            [0, 0],
            2,
            None,
            (),
            FaultPlan.parse("hang@0:0*1.5"),
            cfg,
            outcomes,
        )
        assert retry == [0]
        assert isinstance(outcomes[0].error, TaskTimeoutError)
        assert outcomes[0].error.unit == 0
        assert outcomes[0].error.attempts == 1
        assert outcomes[1].ok and outcomes[1].result == 4

    def test_pool_exhaustion_falls_back_inline(self):
        # Crash every pool attempt of unit 0; the inline last resort
        # (which cannot crash the parent) completes it.
        plan = ";".join(f"crash@0:{a}" for a in range(FAST.retries + 1))
        outcomes = run_supervised(
            _double, [9, 10], jobs=2, config=FAST, fault_plan=plan
        )
        assert [o.result for o in outcomes] == [18, 20]
        assert outcomes[0].attempts == FAST.retries + 2

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_submit_into_a_broken_pool_requeues_uncharged(self, monkeypatch, k):
        # A worker that dies while the parent is still submitting breaks
        # the pool before the guarded future.result loop: the k-th
        # submit of the first pool raises.  The refused unit and every
        # later one never ran, so they re-run without a charged attempt.
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import supervisor

        pools = []

        class StubPool:
            def __init__(self, **kwargs):
                pools.append(self)
                self.first = len(pools) == 1
                self.submitted = 0

            def submit(self, fn, payload):
                if self.first and self.submitted == k:
                    raise BrokenProcessPool("worker died during submit")
                self.submitted += 1
                future = Future()
                future.set_result(fn(payload))
                return future

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", StubPool)
        items = [1, 2, 3, 4, 5]
        outcomes = run_supervised(
            _double, items, jobs=2, config=FAST, fault_plan=""
        )
        assert [o.result for o in outcomes] == [x * 2 for x in items]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [pool.submitted for pool in pools] == [k, len(items) - k]

    def test_submit_refusal_is_a_worker_crash(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import supervisor
        from repro.engine.faults import FaultPlan

        class DeadPool:
            def __init__(self, **kwargs):
                pass

            def submit(self, fn, payload):
                raise BrokenProcessPool("worker died during submit")

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", DeadPool)
        outcomes = [UnitOutcome(index=i) for i in range(2)]
        attempts = [0, 0]
        retry = supervisor._pool_round(
            _double, [1, 2], [0, 1], attempts, 2, None, (),
            FaultPlan.parse(""), FAST, outcomes,
        )
        assert retry == [0, 1] and attempts == [0, 0]
        assert isinstance(outcomes[0].error, WorkerCrashError)
        assert outcomes[0].error.unit == 0

    def test_deterministic_error_not_retried_in_pool(self):
        outcomes = run_supervised(
            _bad_input, ["a", "b"], jobs=2, config=FAST, fault_plan=""
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)

    def test_crash_error_pickles_with_context(self):
        err = WorkerCrashError("boom", unit=3, attempts=2, phase="execute")
        import pickle

        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, WorkerCrashError)
        assert back.context() == err.context()


class TestParallelMapFacade:
    def test_returns_plain_results(self):
        assert parallel_map(_double, [1, 2, 3], jobs=2, fault_plan="") == [
            2,
            4,
            6,
        ]

    def test_raises_first_error_unchanged(self):
        with pytest.raises(ValueError, match="deterministic rejection"):
            parallel_map(_bad_input, ["x"], jobs=1, fault_plan="")

    def test_recovers_from_injected_crash(self):
        assert parallel_map(
            _double,
            [1, 2, 3, 4],
            jobs=2,
            retries=2,
            backoff=0.001,
            fault_plan="crash@2:0",
        ) == [2, 4, 6, 8]


class TestUnitOutcome:
    def test_ok_tracks_error(self):
        assert UnitOutcome(index=0, result=5).ok
        assert not UnitOutcome(index=0, error=RuntimeError()).ok
