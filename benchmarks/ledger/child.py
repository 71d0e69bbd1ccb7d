"""What runs inside a workload's own hermetic child process.

``python -m benchmarks.ledger.child <mode> <job.json>`` — the parent
(:mod:`benchmarks.ledger.harness`) writes the job (patterns, input block
path, op counts) and a scrubbed environment with a fresh
``RAP_CACHE_DIR``; the child prints one JSON line.  Modes:

``setup``  compile the patterns and scan the 4 KiB prefix once, cold.
``ops``    warm up, then run timed operations until both the deadline
           and the minimum op count are reached.
``trace``  the traced pass: a cold set-up, untraced ops, traced ops,
           the fused-fallback probe and the cost-model calibration.

Keeping the measured program in its own process makes ``ru_maxrss`` the
workload's own and keeps input generation and the oracle out of it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from benchmarks.ledger.stats import calibration_spin, result_digest, sim_counts
from benchmarks.ledger.workloads import CHECKPOINT_EVERY_BYTES, SEGMENT_BYTES

WARM_OPS = 3


def abort(message: str):
    """The run cannot be trusted (wrong backend, silent fallback): stop."""
    raise SystemExit(f"ledger: {message}")


def load_job(path: str) -> tuple[dict, bytes]:
    job = json.loads(Path(path).read_text())
    return job, Path(job["block"]).read_bytes()


def make_engine(job: dict):
    """The pinned engine: native backend, one job, no fault plan.

    Aborts — never falls back — when ``native`` does not resolve: a
    silent fused fallback would read as a 24x regression.
    """
    from repro.engine.batch import BatchEngine, EngineConfig

    engine = BatchEngine(
        EngineConfig(
            backend="native",
            jobs=1,
            input_jobs=1,
            fault_plan="",
            checkpoint_dir=(
                job["checkpoint_dir"] if job["kind"] == "durable" else None
            ),
            checkpoint_every_bytes=CHECKPOINT_EVERY_BYTES,
        )
    )
    resolved, reason = engine.backend_report()
    if resolved != "native":
        abort(
            f"backend resolved to {resolved!r} ({reason}); refusing to "
            "measure a fallback"
        )
    return engine


def make_op(engine, job: dict, ruleset):
    """``op(data) -> SimulationResult`` through the workload's entry point."""
    if job["kind"] == "bulk":
        return lambda data: engine.scan(ruleset, data)

    def durable(data):
        outcome = engine.durable_scan(ruleset, data)
        expected = (len(data) - 1) // CHECKPOINT_EVERY_BYTES
        if (
            outcome.checkpoint_failures
            or outcome.checkpoints_written != expected
            or not outcome.ok
        ):
            raise RuntimeError(
                f"durable scan wrote {outcome.checkpoints_written} of "
                f"{expected} checkpoints, {outcome.checkpoint_failures} failed"
            )
        return outcome.result

    return durable


def require_native_attached() -> int:
    """The registry resolving ``native`` is not enough: a build failure
    falls back per scan, silently.  A cache that started empty and holds
    no ``.so`` after a scan means the compiled kernels never ran."""
    cache = Path(os.environ["RAP_CACHE_DIR"]) / "native"
    libs = len(list(cache.glob("*.so")))
    if not libs:
        abort(
            "native resolved but no kernel was built (silent per-scan "
            "fallback to the fused interpreter)"
        )
    return libs


def peak_rss_mb() -> float:
    """This process's high-water RSS in MB (10^6 B; Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- modes ------------------------------------------------------------------


def run_setup(job: dict, block: bytes) -> dict:
    engine = make_engine(job)
    ruleset = engine.compile(job["patterns"])
    result = make_op(engine, job, ruleset)(block[:SEGMENT_BYTES])
    return {
        "digest": result_digest(result),
        "native_libs": require_native_attached(),
    }


def run_ops(job: dict, block: bytes) -> dict:
    engine = make_engine(job)
    ruleset = engine.compile(job["patterns"])
    op = make_op(engine, job, ruleset)
    for _ in range(WARM_OPS):
        result = op(block)
    libs = require_native_attached()
    latencies: list[float] = []
    spins: list[float] = []
    digests: Counter[str] = Counter()
    errors: list[str] = []
    deadline = time.perf_counter() + job["seconds"]
    while (
        len(latencies) + len(errors) < job["min_ops"]
        or time.perf_counter() < deadline
    ):
        start = time.perf_counter()
        try:
            result = op(block)
        except Exception as err:  # an op that raises is a failed op
            errors.append(f"{type(err).__name__}: {err}")
            continue
        latencies.append(time.perf_counter() - start)
        spins.append(calibration_spin())
        digests[result_digest(result)] += 1
    return {
        "latencies": latencies,
        "spins": spins,
        "digests": digests,
        "errors": errors[:5],
        "error_count": len(errors),
        "peak_rss_mb": peak_rss_mb(),
        "native_libs": libs,
        "sim": sim_counts(result),
    }


def run_trace(job: dict, block: bytes) -> dict:
    from benchmarks.ledger import layers

    return layers.traced_pass(job, block)


MODES = {"setup": run_setup, "ops": run_ops, "trace": run_trace}


def main(argv: list[str]) -> int:
    mode, job_path = argv
    job, block = load_job(job_path)
    print(json.dumps(MODES[mode](job, block)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
