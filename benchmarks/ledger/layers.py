"""The traced pass: which callables are wrapped, and what they report.

Layers are measured from outside: :func:`targets` names public
callables of ``repro`` (plus ``native._compile_shared``, the one private
hook, because nothing public separates the ``cc`` run from ``dlopen``)
and the span name each is recorded under — ``<module>.<stage>``.
:func:`traced_pass` runs inside the workload's child process and
returns the per-layer numbers it can measure there; the harness adds the
ones that need further processes (warm set-up, serve spawn).

Span names are an interface: a later change may claim a count or a
self-time moved only if it did not rename or redefine the span.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import median

from benchmarks.ledger import serve as serve_driver
from benchmarks.ledger.child import (
    WARM_OPS,
    make_engine,
    make_op,
    require_native_attached,
)
from benchmarks.ledger.stats import (
    percentile,
    result_digest,
    sim_counts,
)
from benchmarks.ledger.trace import Tracer, self_seconds
from benchmarks.ledger.workloads import SEGMENT_BYTES

TRACE_OPS = 10
FALLBACK_PROBE_BYTES = 1 << 20
SERVE_TRACE_SEGMENTS = 512
SERVE_PLAIN_SEGMENTS = 1024  # enough for ten samples beyond p99

# The entry point's own self time is reported but not counted as
# attributed — trace.coverage is what the layers *below* it explain.
ROOT_METRICS = ("engine.scan_self_s",)

COSTMODEL_CONSTANTS = (
    "nfa_active", "dfa_lookup", "dfa_density", "nbva_base", "lnfa_word",
)


def targets(notes: dict) -> list[tuple]:
    """``(owner, attr, span name[, observe])`` for every wrapped layer.

    ``notes`` collects the counters observers take at the same
    boundaries as the spans.
    """
    import base64

    import numpy as np

    from repro.core import codegen, native
    from repro.core.fused import FusedRuleset
    from repro.engine import cache
    from repro.engine.batch import BatchEngine
    from repro.engine.checkpoint import CheckpointStore, DurableScan
    from repro.compiler import pipeline
    from repro.serve import protocol
    from repro.serve.session import ScanSession
    from repro.simulators import fused as sim_fused
    from repro.simulators import rap

    def saw_ruleset(args, kwargs, ruleset):
        modes = notes.setdefault("modes", {})
        for regex in ruleset:
            key = regex.mode.value.lower()
            modes[key] = modes.get(key, 0) + 1

    def saw_mapping(args, kwargs, mapping):
        notes["tiles"] = mapping.total_tiles

    def saw_translate(args, kwargs, tin):
        # Prefilter candidates: bytes whose alphabet class can start (or
        # revive) activity in some unit.  Taken once; input is fixed.
        if "hot_byte_ratio" in notes or not len(tin.data):
            return
        fused = args[0]
        counts = np.bincount(
            np.frombuffer(tin.cls_bytes, dtype=np.uint8),
            minlength=len(fused.union_hot_cls),
        )
        notes["hot_byte_ratio"] = float(
            counts[fused.union_hot_cls].sum() / len(tin.data)
        )

    def saw_checkpoint(args, kwargs, path):
        notes["ckpt_bytes"] = notes.get("ckpt_bytes", 0) + os.path.getsize(path)

    return [
        # set-up: pattern list -> compiled, mapped, built, loaded
        (pipeline, "parse_anchored", "regex.parse"),
        (cache, "compile_ruleset", "compiler.compile", saw_ruleset),
        (cache.CompileCache, "get", "engine.cache_get"),
        (cache.CompileCache, "put", "engine.cache_put"),
        (rap, "map_ruleset", "mapping.map", saw_mapping),
        (codegen, "lane_scan_source", "core.codegen"),
        (codegen, "unit_scan_source", "core.codegen"),
        (native, "_compile_shared", "core.cc_build"),
        (native, "load_source", "core.so_load"),
        # bulk scan
        (BatchEngine, "scan", "engine.scan_self"),
        (sim_fused.FusedRun, "collect", "simulators.collect_self"),
        (FusedRuleset, "__init__", "core.fused_build"),
        (FusedRuleset, "translate", "core.translate", saw_translate),
        (native.NativeLaneScanner, "scan", "core.lane_scan"),
        (native.NativeUnitScanner, "gather_span", "core.gather_units"),
        (native.NativeUnitScanner, "dfa_span", "core.dfa_units"),
        (sim_fused, "collect_regex_activity", "automata.nbva_scan"),
        (sim_fused.FusedBinFeeder, "__init__", "simulators.bin_feed"),
        (sim_fused.FusedBinFeeder, "feed", "simulators.bin_feed"),
        (rap.RAPSimulator, "run_from_activity", "simulators.price"),
        # durable scan
        (BatchEngine, "durable_scan", "engine.scan_self"),
        (DurableScan, "__init__", "engine.durable_init"),
        (DurableScan, "feed", "engine.durable_feed"),
        (DurableScan, "snapshot", "engine.snapshot"),
        (CheckpointStore, "write", "engine.ckpt_write", saw_checkpoint),
        # serve: both ends of the wire, then the session
        (protocol, "encode_frame", "serve.frame_encode"),
        (base64, "b64encode", "serve.frame_encode"),
        (protocol, "decode_frame", "serve.frame_decode"),
        (base64, "b64decode", "serve.frame_decode"),
        (ScanSession, "feed", "serve.session_feed"),
        (ScanSession, "total_energy_uj", "serve.session_price"),
        (ScanSession, "checkpoint", "serve.session_ckpt"),
    ]


FFI_SPANS = ("core.lane_scan", "core.gather_units", "core.dfa_units")


def _phase_totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Self seconds per name in set-up (op < 0) and in ops, plus op-phase
    span counts."""
    setup: dict[str, float] = {}
    ops: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (name, _, _, _, op), seconds in zip(
        tracer.spans, self_seconds(tracer.spans)
    ):
        bucket = setup if op < 0 else ops
        bucket[name] = bucket.get(name, 0.0) + seconds
        if op >= 0:
            counts[name] = counts.get(name, 0) + 1
    return setup, ops, counts


def _paired_ops(op, block: bytes, count: int, tracer: Tracer, notes: dict):
    """``count`` untraced and ``count`` traced ops, alternating.

    Alternating keeps the two series under the same machine state, so
    their ratio is the tracing overhead and not CPU-speed drift.
    """
    plain, walls = [], []
    result = None
    for index in range(count):
        start = time.perf_counter()
        op(block)
        plain.append(time.perf_counter() - start)
        with tracer.wrapped(targets(notes)):
            tracer.op = index
            start = time.perf_counter()
            result = op(block)
            walls.append(time.perf_counter() - start)
            tracer.op = -1
    return plain, walls, result


def _fused_fallback_mbps(ruleset, block: bytes) -> float:
    """The no-compiler path, priced: one interpreted ``FusedRun.collect``."""
    from repro.core import use_backend
    from repro.hardware.config import DEFAULT_CONFIG
    from repro.simulators.fused import FusedRun
    from repro.simulators.rap import RAPSimulator

    probe = block[:FALLBACK_PROBE_BYTES]
    with use_backend("fused"):
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        start = time.perf_counter()
        FusedRun(ruleset, mapping, DEFAULT_CONFIG).collect(probe)
        return len(probe) / (time.perf_counter() - start) / 1e6


def _costmodel_ratios() -> dict[str, float]:
    """Measured / in-force cost constants (nothing is saved)."""
    from repro.compiler.calibrate import calibrate
    from repro.compiler.costmodel import active_constants

    measured = calibrate("native").constants.numbers()
    in_force = active_constants("native").numbers()
    return {
        f"compiler.costmodel_ratio.{name}": measured[name] / in_force[name]
        for name in COSTMODEL_CONSTANTS
    }


def traced_pass(job: dict, block: bytes) -> dict:
    """Everything the traced child measures, keyed by per-layer metric."""
    from repro.compiler.program import CompiledMode
    from repro.core import use_backend

    notes: dict = {}
    tracer = Tracer()
    engine = make_engine(job)
    # A served session is a detached durable scan: its set-up is traced
    # through the same entry point, without a checkpoint directory.
    setup_job = {**job, "kind": "durable"} if job["kind"] == "serve" else job

    # 1. Cold set-up, traced: compile + first scan of the prefix, then a
    #    second compile so the cache-hit path is on record.
    with tracer.wrapped(targets(notes)):
        ruleset = engine.compile(job["patterns"])
        op = make_op(engine, setup_job, ruleset)
        op(block[:SEGMENT_BYTES])
        engine.compile(job["patterns"])
    require_native_attached()
    setup, _, _ = _phase_totals(tracer)
    modes = notes.pop("modes", {})
    out = {
        "regex.parse_s": setup.get("regex.parse", 0.0),
        "compiler.compile_s": setup.get("compiler.compile", 0.0),
        "mapping.map_s": setup.get("mapping.map", 0.0),
        "mapping.tiles": notes.get("tiles", 0),
        "core.codegen_s": setup.get("core.codegen", 0.0),
        "core.cc_build_s": setup.get("core.cc_build", 0.0),
        "core.so_load_s": setup.get("core.so_load", 0.0),
        "engine.cache_put_s": setup.get("engine.cache_put", 0.0),
        "engine.cache_get_s": setup.get("engine.cache_get", 0.0),
        "automata.nbva_regexes": sum(
            1 for r in ruleset if r.mode is CompiledMode.NBVA
        ),
    }
    for mode in ("nfa", "dfa", "nbva", "lnfa"):
        out[f"compiler.modes.{mode}"] = modes.get(mode, 0)

    # 2. The operations, untraced (the overhead baseline) and traced.
    #    serve_stream traces an in-process server instead.
    notes.clear()
    tracer = Tracer()
    if job["kind"] == "serve":
        out.update(_serve_ops(job, block, tracer, notes))
    else:
        for _ in range(WARM_OPS):
            op(block)
        plain, walls, result = _paired_ops(
            op, block, job["trace_ops"], tracer, notes
        )
        out.update(_op_metrics(tracer, notes, walls))
        out["trace.overhead_ratio"] = median(walls) / median(plain)
        out.update({f"sim.{k}": v for k, v in sim_counts(result).items()})
        out["digest"] = result_digest(result)
    if job.get("spans"):
        tracer.dump(job["spans"])

    out["core.fused_fallback_MBps"] = _fused_fallback_mbps(ruleset, block)
    with use_backend("native"):
        out.update(_costmodel_ratios())
    return out


# Per-op metric -> the span names whose self time it sums.  An op-phase
# span missing from this table is simply not attributed, so it shows as
# a drop in trace.coverage rather than vanishing.
OP_LAYERS = {
    "engine.scan_self_s": ("engine.scan_self",),
    "mapping.remap_s": ("mapping.map",),
    "simulators.collect_self_s": ("simulators.collect_self",),
    "core.fused_build_s": ("core.fused_build",),
    # Every scan rebuilds its scanners, which regenerate the C source to
    # find the cached .so by its hash: codegen + memo lookup, per op.
    "core.recodegen_s": ("core.codegen", "core.cc_build", "core.so_load"),
    "core.translate_s": ("core.translate",),
    "core.lane_scan_s": ("core.lane_scan",),
    "simulators.bin_feed_s": ("simulators.bin_feed",),
    "core.gather_units_s": ("core.gather_units",),
    "core.dfa_units_s": ("core.dfa_units",),
    "automata.nbva_scan_s": ("automata.nbva_scan",),
    "simulators.price_s": ("simulators.price",),
    "engine.durable_init_s": ("engine.durable_init",),
    "engine.durable_feed_s": ("engine.durable_feed",),
    "engine.snapshot_s": ("engine.snapshot",),
    "engine.ckpt_write_s": ("engine.ckpt_write",),
    "serve.frame_encode_s": ("serve.frame_encode",),
    "serve.frame_decode_s": ("serve.frame_decode",),
    "serve.session_feed_s": ("serve.session_feed",),
    "serve.session_price_s": ("serve.session_price",),
    "serve.session_ckpt_s": ("serve.session_ckpt",),
}


def _op_metrics(tracer: Tracer, notes: dict, walls) -> dict:
    """Per-op self seconds and counts of a traced run, and its coverage."""
    _, ops, counts = _phase_totals(tracer)
    n = len(walls)
    wall = sum(walls)
    out = {
        metric: sum(ops.get(span, 0.0) for span in spans) / n
        for metric, spans in OP_LAYERS.items()
    }
    attributed = n * sum(
        seconds for metric, seconds in out.items() if metric not in ROOT_METRICS
    )
    out.update(
        {
            "core.hot_byte_ratio": notes.get("hot_byte_ratio", 0.0),
            "core.ffi_calls": sum(counts.get(s, 0) for s in FFI_SPANS) / n,
            "engine.ckpt_bytes": notes.get("ckpt_bytes", 0) / n,
            "engine.ckpt_count": counts.get("engine.ckpt_write", 0) / n,
            "trace.op_s": wall / n,
            "trace.coverage": attributed / wall,
        }
    )
    return out


def _serve_ops(job: dict, block: bytes, tracer: Tracer, notes: dict) -> dict:
    """The serve layers, from one in-process session (see trace.py on why
    one): plain turnarounds first, then the traced segments."""
    from repro.core import use_backend

    ckpt = str(Path(job["checkpoint_dir"]))
    with use_backend("native"):
        plain = serve_driver.drive_inprocess(
            ckpt, job["patterns"], block, segments=SERVE_PLAIN_SEGMENTS
        )
        with tracer.wrapped(targets(notes)):
            traced = serve_driver.drive_inprocess(
                ckpt, job["patterns"], block,
                segments=job["trace_segments"], tracer=tracer,
            )
    for log in (plain, traced):
        if log.failed:
            raise RuntimeError(f"{log.failed} served segments failed in trace")
    out = _op_metrics(tracer, notes, traced.latencies)
    n = traced.segments
    kernel_s = out["core.lane_scan_s"] + out["core.translate_s"]
    plain_p50 = median(plain.latencies)
    out.update(
        {
            "serve.wire_bytes_per_payload_byte": traced.wire_bytes
            / (n * SEGMENT_BYTES),
            # What no named stage explains: sockets and the event loop.
            "serve.loop_other_s": out["trace.op_s"] * (1 - out["trace.coverage"]),
            "serve.overhead_ms": (plain_p50 - kernel_s) * 1e3,
            "serve.seg_p99_ms": percentile(plain.latencies, 99) * 1e3,
            "served_totals": [
                int(traced.result["matches"]), float(traced.result["energy_uj"])
            ],
            "sim.matches": int(traced.result["matches"]),
            "sim.energy_pj": float(traced.result["energy_uj"]) * 1e6,
            "trace.overhead_ratio": median(traced.latencies) / plain_p50,
        }
    )
    return out
