"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's driver script (``main_gap.py --data ...
--task ...``): compile rule files, scan inputs, and run the evaluation
experiments from the shell.

Commands
--------
``compile``     compile a pattern file to a JSON ruleset
``scan``        match an input file against patterns or a compiled ruleset
``experiment``  run one of the paper's tables/figures
``inspect``     summarize a compiled JSON ruleset
``workload``    emit a synthetic benchmark's patterns
``serve``       run the streaming multi-tenant scan service
``fleet``       supervise a pool of serve workers behind one endpoint
``loadgen``     drive fault-injected sessions against a running server
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
from repro.compiler.costmodel import MODE_CHOICES, mode_override
from repro.core import backend_names
from repro.errors import ON_ERROR_POLICIES, ReproError
from repro.io.serialize import load_ruleset, save_ruleset

EXPERIMENTS = {
    "all": ("repro.experiments.summary", "full evaluation run"),
    "fig1": ("repro.experiments.fig01_model_mix", "Fig. 1 model mix"),
    "fig10": ("repro.experiments.fig10_dse", "Fig. 10 DSE"),
    "table2": ("repro.experiments.table2_nbva", "Table 2 NBVA comparison"),
    "table3": ("repro.experiments.table3_lnfa", "Table 3 LNFA comparison"),
    "fig11": ("repro.experiments.fig11_breakdown", "Fig. 11 breakdown"),
    "fig12": ("repro.experiments.fig12_asic", "Fig. 12 ASIC comparison"),
    "fig13": ("repro.experiments.fig13_cpu_gpu", "Fig. 13 CPU/GPU"),
    "table4": ("repro.experiments.table4_fpga", "Table 4 FPGA comparison"),
}

# Zero-padded spellings matching the results/ artifact filenames.
EXPERIMENT_ALIASES = {"fig01": "fig1"}


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI parser (exposed for shell completion)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAP (ISCA 2025) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile a pattern file into a JSON ruleset"
    )
    p_compile.add_argument(
        "patterns", type=Path, help="file with one regex per line"
    )
    p_compile.add_argument("-o", "--output", type=Path, required=True)
    p_compile.add_argument("--bv-depth", type=int, default=16)
    p_compile.add_argument("--unfold-threshold", type=int, default=8)
    p_compile.add_argument(
        "--force-mode",
        choices=[m.value for m in CompiledMode],
        default=None,
        help="compile every regex to one mode (experiment methodology)",
    )
    p_compile.add_argument(
        "--mode",
        choices=list(MODE_CHOICES),
        default="auto",
        help="soft execution-mode preference: eligible regexes take it, "
        "the rest keep the cost model's choice (auto defers to RAP_MODE "
        "and then the cost model; --force-mode stays the strict variant)",
    )
    p_compile.add_argument(
        "--hw",
        type=Path,
        default=None,
        help="JSON hardware-config file for a custom design point",
    )

    p_scan = sub.add_parser(
        "scan", help="match an input file on the simulated RAP"
    )
    source = p_scan.add_mutually_exclusive_group(required=True)
    source.add_argument("--ruleset", type=Path, help="compiled JSON ruleset")
    source.add_argument("--patterns", type=Path, help="regex file")
    p_scan.add_argument("input", type=Path, help="binary input stream")
    p_scan.add_argument("--bv-depth", type=int, default=16)
    p_scan.add_argument("--bin-size", type=int, default=None)
    p_scan.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU); parallel output is "
        "bit-identical to --jobs 1",
    )
    p_scan.add_argument(
        "--input-jobs",
        type=int,
        default=None,
        help="bulk scans: split the input stream across this many "
        "warm-up-window chunks, and the units that have no window into "
        "as many whole-stream tasks (fused and native backends; python "
        "ignores it, and so does a durable scan — --checkpoint-dir, "
        "--max-seconds, --max-rss-mb — which feeds each segment whole); "
        "output is bit-identical at every level (default: "
        "RAP_INPUT_JOBS or 1)",
    )
    p_scan.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse compiled rulesets from the on-disk compile cache "
        "(keyed by patterns + compiler config; see RAP_CACHE_DIR)",
    )
    p_scan.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="step-kernel backend for the hot loops (default: RAP_BACKEND "
        "or python); an unavailable backend falls back to python, and "
        "results are bit-identical either way",
    )
    _add_fault_args(p_scan)
    _add_durability_args(p_scan)
    p_scan.add_argument(
        "--on-error",
        choices=list(ON_ERROR_POLICIES),
        default="fail",
        help="what to do with patterns that fail compilation: fail "
        "(default) aborts with the structured error, skip drops them, "
        "quarantine drops them and reports each offender on stderr "
        "(exit code 4 marks the partial result)",
    )
    p_scan.add_argument(
        "--mode",
        choices=list(MODE_CHOICES),
        default="auto",
        help="soft execution-mode preference for compiled patterns: "
        "eligible regexes take it, the rest keep the cost model's "
        "choice; results are bit-identical across modes (default: "
        "RAP_MODE or auto)",
    )
    p_scan.add_argument(
        "--explain",
        action="store_true",
        help="print the per-regex mode-decision table (features, "
        "per-mode predicted byte costs, chosen mode) and exit without "
        "scanning",
    )
    p_scan.add_argument(
        "--metrics", action="store_true", help="print hardware metrics"
    )
    p_scan.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every match against the reference oracle "
        "(the paper's consistency-check methodology)",
    )

    p_exp = sub.add_parser(
        "experiment",
        aliases=["exp"],
        help="regenerate one of the paper's tables/figures",
    )
    p_exp.add_argument(
        "name", choices=sorted(set(EXPERIMENTS) | set(EXPERIMENT_ALIASES))
    )
    p_exp.add_argument("--size", type=int, default=None)
    p_exp.add_argument("--input-length", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for per-benchmark simulation "
        "(0 = one per CPU); results are independent of the job count",
    )
    p_exp.add_argument(
        "--input-jobs",
        type=int,
        default=None,
        help="bulk scans: input-parallel warm-up-window chunks and "
        "whole-stream unit tasks per stream (fused and native backends; "
        "python ignores it); reported numbers are independent of the "
        "level (default: RAP_INPUT_JOBS or 1)",
    )
    p_exp.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse compiled rulesets from the on-disk compile cache",
    )
    p_exp.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="step-kernel backend for the hot loops (default: RAP_BACKEND "
        "or python); reported numbers are independent of the choice",
    )
    _add_fault_args(p_exp)
    _add_budget_args(p_exp)

    p_inspect = sub.add_parser(
        "inspect", help="summarize a compiled JSON ruleset"
    )
    p_inspect.add_argument("ruleset", type=Path)

    p_work = sub.add_parser(
        "workload", help="print a synthetic benchmark's patterns"
    )
    p_work.add_argument("benchmark")
    p_work.add_argument("--size", type=int, default=24)
    p_work.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming multi-tenant scan service",
        description="Serve long-lived scan sessions over newline-"
        "delimited JSON frames.  Sessions checkpoint continuously and "
        "survive disconnects, idle eviction, load shedding, and worker "
        "crashes: a reconnecting client resumes bit-identically from "
        "the welcome offset.  SIGTERM drains gracefully (checkpoint "
        "every session, notify clients, exit 0).",
        epilog="exit codes: 0 clean shutdown or drain; 2 invalid "
        "configuration (structured ServeConfigError on stderr); "
        "5 the server ran but lost durability (a checkpoint could "
        "not be written during shutdown).",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: bind an ephemeral port and print it "
        "on the readiness line)",
    )
    p_serve.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=Path(".rap-serve"),
        help="root for per-session checkpoint namespaces; another "
        "worker pointed at the same root resumes evicted sessions "
        "(default: .rap-serve)",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="admission cap on live sessions; connections past it are "
        "rejected with a retry-after hint (default: 64)",
    )
    p_serve.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="peak-RSS cap; admitted load past it sheds the "
        "lowest-weight session (default: none)",
    )
    p_serve.add_argument(
        "--max-open-fds",
        type=int,
        default=None,
        help="open-descriptor cap, enforced like --max-rss-mb "
        "(default: none)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="seconds of silence before a session is checkpointed and "
        "evicted; it resumes on reconnect (default: 300)",
    )
    p_serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="grace period for notifying clients during SIGTERM drain "
        "(default: 5)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="bytes fed between periodic session checkpoints "
        "(default: 1 MiB; park/detach/drain always checkpoint)",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="supervise a pool of serve workers behind one endpoint",
        description="Spawn and babysit N `rap serve` workers sharing "
        "one checkpoint root, proxying every client connection from a "
        "single advertised port.  Workers are health-probed over the "
        "ping op and fenced (SIGKILL) plus restarted with capped "
        "exponential backoff when they crash or wedge; SIGHUP "
        "live-migrates the most-loaded worker's sessions onto its "
        "peers (checkpoint, park, re-home, byte-identical resume); "
        "per-tenant circuit breakers refuse pathological tenants with "
        "a structured retry_after.  SIGTERM drains the whole fleet.",
        epilog="exit codes: 0 clean shutdown; 2 invalid configuration; "
        "5 a worker lost durability during the final drain.",
    )
    p_fleet.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes to supervise (default: 2)",
    )
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument(
        "--port",
        type=int,
        default=0,
        help="advertised TCP port (default 0: ephemeral, printed on "
        "the readiness line)",
    )
    p_fleet.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=Path(".rap-serve"),
        help="checkpoint root shared by every worker — sharing it is "
        "what makes sessions migratable (default: .rap-serve)",
    )
    p_fleet.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="per-worker admission cap (default: 64)",
    )
    p_fleet.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="per-worker idle eviction timeout (default: 300)",
    )
    p_fleet.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="per-worker drain grace on shutdown (default: 5)",
    )
    p_fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="per-worker periodic checkpoint interval (default: 1 MiB)",
    )
    p_fleet.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between health-probe rounds (default: 1)",
    )
    p_fleet.add_argument(
        "--ping-timeout",
        type=float,
        default=2.0,
        help="deadline for one ping round-trip (default: 2)",
    )
    p_fleet.add_argument(
        "--fail-threshold",
        type=int,
        default=3,
        help="consecutive missed probes before a worker is fenced and "
        "restarted (default: 3)",
    )
    p_fleet.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive tenant failures before its circuit opens "
        "(default: 5)",
    )
    p_fleet.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        help="seconds an open circuit waits before admitting a "
        "half-open probe; doubles (capped) on a failed probe "
        "(default: 1)",
    )
    p_fleet.add_argument(
        "--migrate-hold",
        type=float,
        default=2.0,
        dest="migrate_hold",
        help="seconds a released worker is held out of routing so its "
        "sessions actually migrate to peers (default: 2)",
    )
    p_fleet.add_argument(
        "--log-dir",
        type=Path,
        default=None,
        help="capture each worker's output to worker-<i>.log here "
        "(default: discard at debug level)",
    )
    p_fleet.add_argument(
        "--fault-plan",
        default=None,
        help="fleet fault directives fired at health-round ordinals, "
        "e.g. 'killworker@4;wedge@9' (default: RAP_FAULT_PLAN or none)",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive fault-injected scan sessions against a server",
        description="Stream deterministic payloads through N concurrent "
        "sessions, interpreting connection-level fault directives "
        "(disconnect/stall/garbage/reload) from --fault-plan, and "
        "optionally diff the aggregate matches and energy against an "
        "uninterrupted serial scan of the same payloads (--check).",
        epilog="exit codes: 0 all sessions completed (and matched the "
        "serial golden under --check); 2 invalid arguments; 5 a session "
        "failed or the golden diff found a discrepancy.",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument(
        "--patterns", type=Path, required=True, help="regex file"
    )
    p_load.add_argument("--tenant", default="loadgen")
    p_load.add_argument(
        "--sessions", type=int, default=4, help="concurrent sessions"
    )
    p_load.add_argument(
        "--bytes",
        type=int,
        default=65536,
        dest="payload_bytes",
        help="payload size per session (default: 64 KiB)",
    )
    p_load.add_argument(
        "--segment-bytes",
        type=int,
        default=4096,
        help="bytes per data frame (default: 4096)",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--fault-plan",
        default=None,
        help="connection fault directives, e.g. "
        "'disconnect@3;stall@5*0.5;garbage@8;reload@11' "
        "(default: RAP_FAULT_PLAN or none)",
    )
    p_load.add_argument(
        "--check",
        action="store_true",
        help="diff aggregate matches and energy against an "
        "uninterrupted serial scan (byte-identity proof)",
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="measure cost-model constants on a backend and persist them",
        description="Time forced-mode probe scans on the resolved "
        "step-kernel backend, solve the cost model's linear forms for "
        "its six per-byte constants, and persist them in the compile "
        "cache; subsequent compiles on that backend score mode "
        "selection against the measured constants instead of the "
        "hand-tuned defaults ('rap scan --explain' shows which are in "
        "force).",
    )
    p_cal.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="backend to calibrate (default: RAP_BACKEND resolution)",
    )
    p_cal.add_argument(
        "--bytes",
        type=int,
        default=None,
        dest="probe_bytes",
        help="probe stream length in bytes (default: 131072)",
    )
    p_cal.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per probe, minimum taken (default: 3)",
    )
    p_cal.add_argument(
        "--dry-run",
        action="store_true",
        help="measure and print without persisting",
    )
    return parser


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """The supervised-execution knobs shared by ``scan``/``experiment``."""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-work-unit deadline in seconds; overruns are retried "
        "and, as a last resort, re-run in-process (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per work unit after a worker crash, "
        "deadline overrun, or transient error (default: 2)",
    )


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    """The resource-budget knobs shared by ``scan``/``experiment``."""
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget for the run; exceeded budgets follow "
        "--degrade where available, else abort (default: none)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="peak resident-set budget in MiB (default: none)",
    )


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    """The checkpoint/resume and degradation knobs of ``scan``."""
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for atomic scan checkpoints; a scan killed at "
        "any point (even SIGKILL) re-run with --resume continues from "
        "the newest intact checkpoint, bit-identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="bytes of input per durable-scan chunk (and checkpoint "
        "eligibility point; default: 1 MiB)",
    )
    parser.add_argument(
        "--checkpoint-seconds",
        type=float,
        default=None,
        help="minimum seconds between checkpoint writes "
        "(default: checkpoint every chunk)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest intact checkpoint in "
        "--checkpoint-dir (fresh start when none exists)",
    )
    _add_budget_args(parser)
    parser.add_argument(
        "--degrade",
        choices=["fail", "shed"],
        default="fail",
        help="budget-pressure policy: fail (default) aborts with a "
        "structured error; shed freezes the lowest-weight patterns, "
        "quarantines them, and finishes partial (exit code 4)",
    )


def _read_patterns(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    stripped = (line.strip() for line in lines)
    return [line for line in stripped if line and not line.startswith("#")]


def _load_hw(path):
    import json

    from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig

    if path is None:
        return DEFAULT_CONFIG
    with open(path) as f:
        return HardwareConfig.from_json(json.load(f))


def _print_backend_report(engine, durable: bool) -> None:
    """The ``--explain`` header: resolved backend and cost constants.

    Reports the backend that will *actually* execute (after the
    probe-and-fall-back chain) with the fallback reason when the
    requested one is unavailable, whether ``--input-jobs`` will do
    anything (not on python, not on a ``durable`` scan), and whether
    the cost model is scoring against measured (``rap calibrate``) or
    default constants.
    """
    from repro.compiler.costmodel import DEFAULT_CONSTANTS, active_constants
    from repro.engine import resolve_input_jobs

    resolved, reason = engine.backend_report()
    line = f"backend: {resolved}"
    if reason:
        line += f" ({reason})"
    print(line)
    input_jobs = resolve_input_jobs(engine.config.input_jobs)
    if input_jobs > 1:
        ignored = ""
        if resolved == "python":
            ignored = " (ignored: python backend)"
        elif durable:
            ignored = " (ignored: durable scan)"
        print(f"input-jobs: {input_jobs}{ignored}")
    constants = active_constants(resolved)
    if constants.source == "measured":
        pairs = " ".join(
            f"{name}={value:g}" for name, value in constants.numbers().items()
        )
        print(f"cost constants: measured on {constants.backend} ({pairs})")
        defaults = " ".join(
            f"{name}={value:g}"
            for name, value in DEFAULT_CONSTANTS.numbers().items()
        )
        print(f"  defaults would be: {defaults}")
    else:
        print(
            "cost constants: default (run 'repro calibrate' to measure "
            "this backend)"
        )


def _tier_note(entry) -> str:
    """``; lane tier: ...`` (LNFA: the shared lane machine) or ``; unit
    tier: ...`` (NBVA, NFA, DFA: the pattern's own unit) for an explain
    row, then ``; split: ...`` when the scan is input-parallel."""
    if not entry.tier:
        return ""
    kind = "lane" if entry.trace.mode is CompiledMode.LNFA else "unit"
    note = f"; {kind} tier: {entry.tier}"
    if entry.split:
        note += f"; split: {entry.split}"
    return note


def _print_explain(entries) -> None:
    """Render ``BatchEngine.explain`` output as the ``--explain`` table."""

    def cost(value: float) -> str:
        return f"{value:.3f}" if value != float("inf") else "-"

    header = (
        "pattern", "mode", "src", "unf", "dfa", "act",
        "c_nfa", "c_dfa", "c_nbva", "c_lnfa", "reason",
    )
    rows = [header]
    for entry in entries:
        if entry.trace is None:
            rows.append(
                (entry.pattern, "ERROR", "-", "-", "-", "-", "-", "-", "-",
                 "-", entry.error or "")
            )
            continue
        trace = entry.trace
        f = trace.features
        rows.append(
            (
                entry.pattern,
                trace.mode.value.lower(),
                str(f.source_states),
                str(f.unfolded_states),
                str(f.dfa_states) if f.dfa_states is not None else "-",
                f"{f.predicted_activity:.4f}",
                cost(trace.costs["nfa"]),
                cost(trace.costs["dfa"]),
                cost(trace.costs["nbva"]),
                cost(trace.costs["lnfa"]),
                trace.reason + _tier_note(entry),
            )
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header) - 1)
    ]
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        print("  ".join(cells + [row[-1]]).rstrip())


def cmd_compile(args) -> int:
    """Handler for ``repro compile``."""
    config = CompilerConfig(
        unfold_threshold=args.unfold_threshold,
        bv_depth=args.bv_depth,
        forced_mode=CompiledMode(args.force_mode) if args.force_mode else None,
        mode_override=mode_override(args.mode),
        hw=_load_hw(args.hw),
    )
    ruleset = compile_ruleset(_read_patterns(args.patterns), config)
    save_ruleset(ruleset, args.output)
    counts = ruleset.mode_counts()
    print(
        f"compiled {len(ruleset)} regexes "
        f"({counts[CompiledMode.NFA]} NFA, {counts[CompiledMode.DFA]} DFA, "
        f"{counts[CompiledMode.NBVA]} NBVA, "
        f"{counts[CompiledMode.LNFA]} LNFA) -> {args.output}"
    )
    for pattern, reason in ruleset.rejected:
        print(f"rejected: {pattern!r}: {reason}", file=sys.stderr)
    return 0 if len(ruleset) else 1


def cmd_scan(args) -> int:
    """Handler for ``repro scan``.

    Exit codes: 0 clean, 2 structured failure (compile/capacity/crash
    beyond recovery under ``--on-error fail``), 3 oracle mismatch under
    ``--verify``, 4 partial success (``--on-error quarantine`` excluded
    at least one pattern; the healthy results still printed).
    """
    from repro.engine import BatchEngine, EngineConfig

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    durable = (
        args.checkpoint_dir is not None
        or args.max_seconds is not None
        or args.max_rss_mb is not None
    )
    engine = BatchEngine(
        EngineConfig(
            jobs=args.jobs,
            input_jobs=args.input_jobs,
            use_cache=args.cache,
            backend=args.backend,
            mode=args.mode,
            timeout=args.timeout,
            retries=args.retries,
            on_error=args.on_error,
            checkpoint_dir=(
                str(args.checkpoint_dir) if args.checkpoint_dir else None
            ),
            checkpoint_every_bytes=args.checkpoint_every,
            checkpoint_every_seconds=args.checkpoint_seconds,
            resume=args.resume,
            max_seconds=args.max_seconds,
            max_rss_mb=args.max_rss_mb,
            degrade=args.degrade,
        )
    )
    if args.explain:
        if args.patterns:
            patterns = _read_patterns(args.patterns)
        else:
            patterns = [r.pattern for r in load_ruleset(args.ruleset)]
        _print_backend_report(engine, durable)
        compiler = CompilerConfig(bv_depth=args.bv_depth)
        for line in engine.forest_report(patterns, compiler):
            print(line)
        entries = engine.explain(patterns, compiler)
        if durable:  # no row rides input-parallel workers
            entries = [replace(entry, split=None) for entry in entries]
        _print_explain(entries)
        return 0
    quarantined = 0
    if args.ruleset:
        ruleset = load_ruleset(args.ruleset)
    else:
        try:
            ruleset = engine.compile(
                _read_patterns(args.patterns),
                CompilerConfig(bv_depth=args.bv_depth),
            )
        except ReproError as err:
            print(f"error: {err}", file=sys.stderr)
            for key, value in sorted(err.context().items()):
                print(f"  {key}: {value!r}", file=sys.stderr)
            return 2
        if args.on_error == "quarantine" and ruleset.rejected:
            quarantined = len(ruleset.rejected)
            for pattern, reason in ruleset.rejected:
                print(f"quarantined: {pattern!r}: {reason}", file=sys.stderr)
            if not len(ruleset):
                print("# all patterns quarantined", file=sys.stderr)
                return 4
    data = args.input.read_bytes()
    outcome = None
    if durable:
        try:
            outcome = engine.durable_scan(ruleset, data, bin_size=args.bin_size)
        except ReproError as err:
            print(f"error: {err}", file=sys.stderr)
            for key, value in sorted(err.context().items()):
                print(f"  {key}: {value!r}", file=sys.stderr)
            return 2
        result = outcome.result
    else:
        result = engine.scan(ruleset, data, bin_size=args.bin_size)
    total = 0
    for regex in ruleset:
        for end in result.matches[regex.regex_id]:
            print(f"{end}\t{regex.regex_id}\t{regex.pattern}")
            total += 1
    print(f"# {total} matches over {len(data)} bytes", file=sys.stderr)
    if outcome is not None:
        if outcome.resumed_from is not None:
            print(
                f"# resumed from checkpoint at byte {outcome.resumed_from}",
                file=sys.stderr,
            )
        if outcome.checkpoints_written or outcome.checkpoint_failures:
            print(
                f"# checkpoints: {outcome.checkpoints_written} written "
                f"({outcome.checkpoint_bytes / 1024:.1f} KiB, "
                f"{outcome.checkpoint_sync_seconds * 1e3:.1f} ms in sync), "
                f"{outcome.checkpoint_failures} failed",
                file=sys.stderr,
            )
    if args.metrics:
        print(f"# {result.summary()}", file=sys.stderr)
    if args.verify:
        from repro.verification import verify_matches

        report = verify_matches(ruleset, data, result.matches)
        print(f"# {report.describe()}", file=sys.stderr)
        if not report.ok:
            return 3
    if outcome is not None and outcome.quarantine:
        print(outcome.quarantine.describe(), file=sys.stderr)
        print(
            f"# partial: {len(outcome.quarantine)} pattern(s) shed "
            "under budget pressure",
            file=sys.stderr,
        )
        return 4
    if quarantined:
        print(
            f"# partial: {quarantined} pattern(s) quarantined", file=sys.stderr
        )
        return 4
    return 0


def cmd_experiment(args) -> int:
    """Handler for ``repro experiment``."""
    import importlib

    from repro.experiments.common import ExperimentConfig

    name = EXPERIMENT_ALIASES.get(args.name, args.name)
    module_name, _ = EXPERIMENTS[name]
    module = importlib.import_module(module_name)
    base = ExperimentConfig.scaled()
    config = ExperimentConfig(
        benchmark_size=args.size or base.benchmark_size,
        input_length=args.input_length or base.input_length,
        seed=args.seed,
        jobs=args.jobs,
        input_jobs=args.input_jobs,
        use_cache=args.cache,
        backend=args.backend,
        timeout=args.timeout,
        retries=args.retries,
        max_seconds=args.max_seconds,
        max_rss_mb=args.max_rss_mb,
    )
    try:
        result = module.run(config)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        for key, value in sorted(err.context().items()):
            print(f"  {key}: {value!r}", file=sys.stderr)
        return 2
    print(result.to_table())
    return 0


def cmd_inspect(args) -> int:
    """Handler for ``repro inspect``."""
    ruleset = load_ruleset(args.ruleset)
    counts = ruleset.mode_counts()
    print(f"regexes:          {len(ruleset)}")
    for mode in CompiledMode:
        print(f"  {mode.value:<5} {counts[mode]}")
    print(f"hardware states:  {ruleset.total_states}")
    print(
        "unfolded states:  "
        f"{sum(r.unfolded_states for r in ruleset)}"
    )
    print(
        "CAM columns:      "
        f"{sum(r.total_columns for r in ruleset)} "
        "(NFA/NBVA tile plans)"
    )
    anchored = sum(
        1 for r in ruleset if r.anchored_start or r.anchored_end
    )
    print(f"anchored:         {anchored}")
    if ruleset.rejected:
        print(f"rejected:         {len(ruleset.rejected)}")
    from repro.mapping.mapper import map_ruleset

    mapping = map_ruleset(ruleset)
    print(f"tiles / arrays:   {mapping.total_tiles} / {mapping.physical_arrays()}")
    print(f"utilization:      {mapping.utilization():.2f}")
    return 0


def cmd_workload(args) -> int:
    """Handler for ``repro workload``."""
    from repro.workloads.anmlzoo import ANMLZOO_PROFILES, generate_anmlzoo_benchmark
    from repro.workloads.datasets import BENCHMARKS, generate_benchmark

    if args.benchmark in BENCHMARKS:
        bench = generate_benchmark(args.benchmark, size=args.size, seed=args.seed)
    elif args.benchmark in ANMLZOO_PROFILES:
        bench = generate_anmlzoo_benchmark(
            args.benchmark, size=args.size, seed=args.seed
        )
    else:
        known = sorted(set(BENCHMARKS) | set(ANMLZOO_PROFILES))
        print(
            f"unknown benchmark {args.benchmark!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    for pattern, mode in zip(bench.patterns, bench.intended_modes):
        print(f"{mode}\t{pattern}")
    return 0


def cmd_serve(args) -> int:
    """Handler for ``repro serve``."""
    import asyncio

    from repro.errors import ServeConfigError
    from repro.serve.server import EXIT_CONFIG, ScanServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        checkpoint_dir=str(args.checkpoint_dir),
        max_sessions=args.max_sessions,
        max_rss_mb=args.max_rss_mb,
        max_open_fds=args.max_open_fds,
        idle_timeout=args.idle_timeout,
        drain_seconds=args.drain_seconds,
        checkpoint_interval_bytes=args.checkpoint_every,
    )
    try:
        server = ScanServer(config)
    except ServeConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        for key, value in sorted(err.context().items()):
            print(f"  {key}: {value!r}", file=sys.stderr)
        return EXIT_CONFIG

    def on_ready(port: int) -> None:
        # The readiness line supervisors (and the CI soak) wait for.
        print(f"listening on {config.host}:{port}", flush=True)

    return asyncio.run(server.serve_forever(on_ready=on_ready))


def cmd_fleet(args) -> int:
    """Handler for ``repro fleet``."""
    import asyncio

    from repro.engine.faults import FaultPlan, plan_from_env
    from repro.errors import ServeConfigError
    from repro.serve.fleet import FleetConfig, FleetSupervisor
    from repro.serve.server import EXIT_CONFIG

    try:
        plan = (
            FaultPlan.parse(args.fault_plan)
            if args.fault_plan is not None
            else plan_from_env()
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    config = FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        checkpoint_dir=str(args.checkpoint_dir),
        max_sessions=args.max_sessions,
        idle_timeout=args.idle_timeout,
        drain_seconds=args.drain_seconds,
        checkpoint_interval_bytes=args.checkpoint_every,
        health_interval=args.health_interval,
        ping_timeout=args.ping_timeout,
        fail_threshold=args.fail_threshold,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        migrate_hold_seconds=args.migrate_hold,
        log_dir=str(args.log_dir) if args.log_dir is not None else None,
    )
    try:
        supervisor = FleetSupervisor(config, plan=plan)
    except ServeConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        for key, value in sorted(err.context().items()):
            print(f"  {key}: {value!r}", file=sys.stderr)
        return EXIT_CONFIG

    def on_ready(port: int) -> None:
        # The readiness line operators (and the CI soak) wait for.
        print(f"fleet listening on {config.host}:{port}", flush=True)

    return asyncio.run(supervisor.serve_forever(on_ready=on_ready))


def _loadgen_payload(patterns: list[str], size: int, seed: int) -> bytes:
    """A deterministic payload biased to exercise the given patterns."""
    import random

    alphabet = sorted(
        {c for p in patterns for c in p if c.isalnum()} | {" "}
    ) or [" "]
    rng = random.Random(seed)
    return bytes(ord(rng.choice(alphabet)) for _ in range(size))


def cmd_loadgen(args) -> int:
    """Handler for ``repro loadgen``."""
    import asyncio

    from repro.engine.faults import FaultPlan, plan_from_env
    from repro.serve.client import LoadGenerator, serial_totals
    from repro.serve.server import EXIT_FAILURES

    patterns = _read_patterns(args.patterns)
    try:
        plan = (
            FaultPlan.parse(args.fault_plan)
            if args.fault_plan is not None
            else plan_from_env()
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    payloads = [
        _loadgen_payload(patterns, args.payload_bytes, args.seed + i)
        for i in range(args.sessions)
    ]
    generator = LoadGenerator(
        args.host,
        args.port,
        patterns,
        tenant=args.tenant,
        sessions=args.sessions,
        segment_bytes=args.segment_bytes,
        plan=plan,
    )
    report = asyncio.run(generator.run(payloads))
    print(report.summary())
    for session_id, outcome in sorted(report.per_session.items()):
        if "error" in outcome:
            print(f"  {session_id}: {outcome['error']}", file=sys.stderr)
    if report.failed:
        return EXIT_FAILURES
    if args.check:
        golden_matches, golden_energy = serial_totals(patterns, payloads)
        if (
            report.total_matches != golden_matches
            or report.total_energy_uj != golden_energy
        ):
            print(
                "golden mismatch: served "
                f"{report.total_matches} matches / "
                f"{report.total_energy_uj!r} uJ, serial golden "
                f"{golden_matches} / {golden_energy!r}",
                file=sys.stderr,
            )
            return EXIT_FAILURES
        print(
            f"golden check ok: {golden_matches} matches, "
            f"{golden_energy:.6f} uJ, byte-identical under "
            f"{report.reconnects} reconnects"
        )
    return 0


def cmd_calibrate(args) -> int:
    """Handler for ``repro calibrate``."""
    from repro.compiler.calibrate import (
        DEFAULT_PROBE_BYTES,
        DEFAULT_REPEATS,
        calibrate,
        save_calibration,
    )
    from repro.compiler.costmodel import DEFAULT_CONSTANTS

    report = calibrate(
        args.backend,
        probe_bytes=args.probe_bytes or DEFAULT_PROBE_BYTES,
        repeats=args.repeats or DEFAULT_REPEATS,
    )
    print(f"backend: {report.backend}  ({report.probe_bytes} probe bytes)")
    rows = [("constant", "default", "measured")]
    defaults = DEFAULT_CONSTANTS.numbers()
    for name, value in report.constants.numbers().items():
        rows.append((name, f"{defaults[name]:g}", f"{value:g}"))
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for label, seconds in sorted(report.measurements.items()):
        print(f"  {label}: {seconds * 1e9:.1f} ns/byte")
    if args.dry_run:
        print("dry run: not persisted")
    else:
        save_calibration(report)
        print(
            f"persisted for backend {report.backend!r}; subsequent "
            "compiles on it use the measured constants"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "compile": cmd_compile,
        "scan": cmd_scan,
        "experiment": cmd_experiment,
        "exp": cmd_experiment,
        "inspect": cmd_inspect,
        "workload": cmd_workload,
        "serve": cmd_serve,
        "fleet": cmd_fleet,
        "loadgen": cmd_loadgen,
        "calibrate": cmd_calibrate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
