"""The parent side: hermetic children, the oracle, and metric assembly.

:func:`measure` produces one workload's end-to-end metrics (tracing
off); :func:`trace` its per-layer metrics (a separate traced pass).
Both generate the inputs from the seed, run the measured program in
child processes with a scrubbed environment and a fresh, empty
``RAP_CACHE_DIR``, and verify every operation's result digest against
the pure-Python oracle computed here, outside any timed phase.

Metric names, units and bounds live in ``BENCHMARK.json`` only; this
module reports values under those names and ``test_ledger.py`` checks
the two agree.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from benchmarks.ledger.stats import (
    SAMPLES_BEYOND,
    host_factor,
    normalise,
    percentile,
    result_digest,
    sim_counts,
    windowed_rate,
)
from benchmarks.ledger.workloads import (
    SEGMENT_BYTES,
    WORKLOADS,
    Workload,
    build_inputs,
)

ROOT = Path(__file__).resolve().parents[2]
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
WORK_ROOT = ROOT / ".ledger_work"

# A stray value of any of these silently changes mode or backend
# selection, or injects faults; RAP_CACHE_DIR is replaced, not scrubbed.
SCRUBBED_ENV = (
    "RAP_BACKEND", "RAP_MODE", "RAP_INPUT_JOBS", "RAP_FAULT_PLAN",
    "RAP_NATIVE_DISABLE", "RAP_CACHE_MAX_MB",
)
CHILD_TIMEOUT = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric lists, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def scrub_environment() -> None:
    """Make this process (input generation, oracle) hermetic too."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


@contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards.

    Inside the checkout because the benchmark may write nowhere else,
    and so that durable checkpoints land on the repo's filesystem.
    """
    path = WORK_ROOT / f"{os.getpid()}-{time.time_ns()}"
    (path / "tmp").mkdir(parents=True)
    # The native backend compiles in tempfile directories: keep those in
    # here too, for this process and (through hermetic_env) its children.
    redirected = {
        "RAP_CACHE_DIR": str(path / "cache-parent"),
        "TMPDIR": str(path / "tmp"),
    }
    saved = {name: os.environ.get(name) for name in redirected}
    os.environ.update(redirected)
    tempfile.tempdir = redirected["TMPDIR"]
    try:
        yield path
    finally:
        tempfile.tempdir = None
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run shares it
        except OSError:
            pass


def hermetic_env(cache_dir: Path) -> dict:
    """A child's environment: scrubbed, with its own compile cache."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["RAP_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_child(mode: str, job_path: Path, env: dict) -> tuple[dict, float]:
    """Run one child mode; returns its JSON and spawn-to-result seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.child", mode, str(job_path)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"ledger child {mode!r} failed (exit {proc.returncode})")
    return json.loads(line), elapsed


def oracle(patterns, data: bytes):
    """The golden: the stdlib ``python`` backend, uncached, sequential."""
    from repro.engine.batch import BatchEngine, EngineConfig

    engine = BatchEngine(
        EngineConfig(
            backend="python", use_cache=False, jobs=1, input_jobs=1,
            fault_plan="",
        )
    )
    return engine.scan(list(patterns), data)


def stored_golden(name: str, seed: int) -> str | None:
    if not GOLDENS.exists():
        return None
    return json.loads(GOLDENS.read_text()).get(f"{name}@{seed}")


def store_golden(name: str, seed: int, digest: str) -> None:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    goldens[f"{name}@{seed}"] = digest
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


class Run:
    """One workload run in flight: inputs, goldens, work dir, verdicts."""

    def __init__(self, name: str, seed: int, work: Path, *, smoke=False,
                 regen_golden=False):
        self.workload: Workload = WORKLOADS[name]
        self.work = work
        self.patterns, self.block = build_inputs(self.workload, seed)
        if smoke:
            # An eighth of the block (the oracle dominates a smoke run);
            # its digest is no recorded golden's, so those are skipped.
            self.block = self.block[: max(len(self.block) // 8, 2 * SEGMENT_BYTES)]
        self.problems: list[str] = []
        self.golden = oracle(self.patterns, self.block)
        self.golden_digest = result_digest(self.golden)
        self.prefix_golden = oracle(self.patterns, self.block[:SEGMENT_BYTES])
        if regen_golden and not smoke:
            store_golden(name, seed, self.golden_digest)
        recorded = None if smoke else stored_golden(name, seed)
        if recorded is not None and recorded != self.golden_digest:
            self.problems.append(
                f"oracle digest {self.golden_digest[:12]} differs from the "
                f"recorded golden {recorded[:12]}: simulated behaviour "
                "changed (re-record deliberately with --regen-golden)"
            )
        block_path = work / "block.bin"
        block_path.write_bytes(self.block)
        self.job = {
            "workload": name,
            "kind": self.workload.kind,
            "patterns": self.patterns,
            "block": str(block_path),
            "checkpoint_dir": str(work / "checkpoints"),
        }

    def write_job(self, **extra) -> Path:
        path = self.work / "job.json"
        path.write_text(json.dumps({**self.job, **extra}))
        return path

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    # -- serve verification ----------------------------------------------

    def serial_totals(self, segments: int) -> tuple[int, float]:
        """``serial_totals`` of exactly the bytes ``segments`` segments
        streamed: one unbroken native pass, outside any timed phase."""
        from benchmarks.ledger.serve import payload_of
        from repro.core import use_backend
        from repro.engine.batch import BatchEngine, EngineConfig
        from repro.serve.client import serial_totals
        from repro.serve.registry import TenantRegistry

        registry = TenantRegistry(BatchEngine(EngineConfig(backend="native")))
        with use_backend("native"):
            return serial_totals(
                self.patterns, [payload_of(self.block, segments)], registry
            )

    def verify_sessions(self, logs) -> int:
        """Failed-segment count of served sessions (0 when all verify).

        Totals must equal ``serial_totals`` of exactly the bytes each
        session streamed; every event inside the first pass over the
        block must equal the oracle's; events must be distinct.  A
        session that fails any of these counts all its segments failed.
        """
        serial: dict[int, tuple[int, float]] = {}  # by session length
        expected_events = sorted(
            (end, rid)
            for rid, ends in self.golden.matches.items()
            for end in ends
        )
        n = len(self.block)
        failed = 0
        for index, log in enumerate(logs):
            if log.segments not in serial:
                serial[log.segments] = self.serial_totals(log.segments)
            totals = serial[log.segments]
            served = (int(log.result["matches"]), float(log.result["energy_uj"]))
            ok = self.check(
                served == totals,
                f"session {index}: served totals {served} != serial {totals}",
            )
            ok &= self.check(
                len(set(log.events)) == len(log.events) == served[0],
                f"session {index}: {len(log.events)} events for "
                f"{served[0]} matches",
            )
            if log.segments * SEGMENT_BYTES >= n + SEGMENT_BYTES:
                first_pass = sorted(e for e in log.events if e[0] < n)
                ok &= self.check(
                    first_pass == expected_events,
                    f"session {index}: first-block events differ from oracle",
                )
            failed += log.failed if ok else log.segments
        return failed


def _at_reference_speed(seconds: float, before: float) -> float:
    """A set-up time rescaled by the host factor around it (``before`` was
    taken just before it started; another is taken now)."""
    return seconds / ((before + host_factor()) / 2)


def _engine_setups(run: Run, job_path: Path, repeats: int) -> list[float]:
    """Cold set-ups: each a fresh process with a fresh, empty cache, its
    time rescaled by the host factor measured just before and after."""
    prefix_digest = result_digest(run.prefix_golden)
    seconds = []
    for index in range(repeats):
        env = hermetic_env(run.work / f"cache-setup{index}")
        before = host_factor()
        doc, elapsed = run_child("setup", job_path, env)
        run.check(
            doc["digest"] == prefix_digest,
            f"set-up {index}: first result differs from the oracle",
        )
        seconds.append(_at_reference_speed(elapsed, before))
    return seconds


def _serve_setups(run: Run, repeats: int) -> list[dict]:
    from benchmarks.ledger import serve

    setups = []
    for index in range(repeats):
        before = host_factor()
        setup = serve.setup_once(
            hermetic_env(run.work / f"cache-setup{index}"),
            str(run.work / f"serve-setup{index}"),
            run.patterns,
            run.block,
        )
        setup["setup_s"] = _at_reference_speed(setup["setup_s"], before)
        run.check(
            int(setup["log"].result["matches"]) == run.prefix_golden.match_count,
            f"set-up {index}: first served result differs from the oracle",
        )
        setups.append(setup)
    return setups


def measure(name: str, seed: int, seconds: float, *, smoke: bool = False,
            regen_golden: bool = False) -> dict:
    """One workload's end-to-end metrics, tracing off."""
    scrub_environment()
    with workdir() as work:
        run = Run(name, seed, work, smoke=smoke, regen_golden=regen_golden)
        w = run.workload
        repeats = 1 if smoke else w.setup_repeats
        min_ops = max(w.min_ops // 10, 11) if smoke else w.min_ops
        if w.kind == "serve":
            from benchmarks.ledger import serve

            setups = [s["setup_s"] for s in _serve_setups(run, repeats)]
            with serve.ServerProcess(
                hermetic_env(work / "cache-ops"), str(work / "serve-ops")
            ) as server:
                logs = serve.drive(
                    server.port, run.patterns, run.block,
                    seconds=seconds, session_segments=min_ops,
                )
                rss = server.peak_rss_mb()
            latencies = [t for log in logs for t in log.latencies]
            spins = [t for log in logs for t in log.spins]
            op_bytes = SEGMENT_BYTES
            attempted = sum(log.segments for log in logs)
            failed = run.verify_sessions(logs)
            sim = {"matches": sum(int(log.result["matches"]) for log in logs)}
        else:
            job_path = run.write_job(seconds=seconds, min_ops=min_ops)
            setups = _engine_setups(run, job_path, repeats)
            doc, _ = run_child("ops", job_path, hermetic_env(work / "cache-ops"))
            latencies, spins = doc["latencies"], doc["spins"]
            op_bytes = len(run.block)
            wrong = sum(
                count for digest, count in doc["digests"].items()
                if digest != run.golden_digest
            )
            run.check(not wrong, f"{wrong} ops returned a digest != golden")
            run.check(
                not doc["error_count"],
                f"{doc['error_count']} ops raised: {doc['errors']}",
            )
            attempted = len(doc["latencies"]) + doc["error_count"]
            failed = wrong + doc["error_count"]
            rss = doc["peak_rss_mb"]
            sim = doc["sim"]
            run.check(
                sim == sim_counts(run.golden),
                f"simulated counts {sim} differ from the oracle's",
            )
        # Timed metrics are rescaled to the reference host speed by the
        # calibration loop interleaved with the operations
        # (stats.normalise); memory is reported as measured.
        raw_p50 = median(latencies)
        latencies = normalise(latencies, spins)
        metrics = {
            "setup_s": (median(setups), "s"),
            "scan_MBps": (windowed_rate(latencies, op_bytes) / 1e6, "MB/s"),
            "op_p50_ms": (median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        return {
            "workload": name,
            "seed": seed,
            "correct": not run.problems,
            "attempted": attempted,
            "failed": failed,
            "problems": run.problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": {
                "setup_s": len(setups),
                "scan_MBps": len(latencies),
                "op_p50_ms": len(latencies),
                "peak_rss_mb": 1,
            },
            # Reported, not bounded: the tail moved 4-69 % between
            # identical sets of runs on this box (README, "op_p90_ms").
            "info": {
                "op_p90_ms": percentile(
                    latencies, 90, min_beyond=0 if smoke else SAMPLES_BEYOND
                ) * 1e3,
                "op_p50_ms_as_measured": raw_p50 * 1e3,
                "host_slowdown": raw_p50 / median(latencies),
            },
            "golden_digest": run.golden_digest,
            "sim": sim,
        }


def trace(name: str, seed: int, *, smoke: bool = False,
          spans: str | None = None) -> dict:
    """One workload's per-layer metrics from the traced pass."""
    from benchmarks.ledger import layers

    scrub_environment()
    spec = load_spec()
    with workdir() as work:
        run = Run(name, seed, work, smoke=smoke)
        w = run.workload
        job = {
            "trace_ops": 2 if smoke else layers.TRACE_OPS,
            "trace_segments": 64 if smoke else layers.SERVE_TRACE_SEGMENTS,
            "spans": spans,
        }
        job_path = run.write_job(**job)
        cache = work / "cache-trace"
        values, _ = run_child("trace", job_path, hermetic_env(cache))
        # The same set-up again, in a fresh process, with the cache the
        # traced child just filled: compile hit, .so hit, no cc.
        if w.kind == "serve":
            from benchmarks.ledger import serve

            cold = _serve_setups(run, 1)[0]
            values["serve.spawn_s"] = cold["spawn_s"]
            values["serve.open_s"] = cold["open_s"]
            warm = serve.setup_once(
                hermetic_env(cache), str(work / "serve-warm"),
                run.patterns, run.block,
            )
            values["engine.warm_setup_s"] = warm["setup_s"]
            attempted = job["trace_segments"]
            served = tuple(values.pop("served_totals"))
            totals = run.serial_totals(attempted)
            run.check(
                served == totals,
                f"traced session totals {served} != serial {totals}",
            )
        else:
            warm, values["engine.warm_setup_s"] = run_child(
                "setup", job_path, hermetic_env(cache)
            )
            run.check(
                warm["digest"] == result_digest(run.prefix_golden),
                "warm set-up: first result differs from the oracle",
            )
            run.check(
                values.pop("digest") == run.golden_digest,
                "traced ops returned a digest != golden",
            )
            attempted = job["trace_ops"]
        metrics = {}
        for metric in spec["per_layer"]:
            value = values.pop(metric["name"], 0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        run.check(not values, f"unreported per-layer values: {sorted(values)}")
        return {
            "workload": name,
            "seed": seed,
            "correct": not run.problems,
            "attempted": attempted,
            "failed": 0 if not run.problems else attempted,
            "problems": run.problems,
            "metrics": metrics,
        }


def _output_of(command) -> str | None:
    try:
        out = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def header(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    from repro.core import resolve_backend_with_reason

    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cc = _output_of([os.environ.get("CC", "cc"), "--version"])
    sha = _output_of(["git", "rev-parse", "HEAD"])
    status = _output_of(["git", "status", "--porcelain"])
    resolved, reason = resolve_backend_with_reason("native")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cffi": version("cffi"),
        "cc": cc.splitlines()[0] if cc else "unknown",
        # The driver's checkout is not a git repository: "unknown" there.
        "git_sha": sha.strip() if sha else "unknown",
        "git_dirty": bool(status.strip()) if status is not None else None,
        "seed": seed,
        "work_fs": filesystem_type(ROOT),
        "backend": resolved,
        "backend_reason": reason,
    }


def filesystem_type(path: Path) -> str:
    """The filesystem checkpoints are written to (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        _, mount, fstype = line.split()[:3]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
            mount
        ) > len(best):
            best, kind = mount, fstype
    return kind
