"""``rap calibrate``: measure the cost model's per-byte anchors.

The six constants in :mod:`repro.compiler.costmodel` were hand-tuned
against the fused backend; with the native compiled tier in the picture
the NFA-vs-DFA crossover moves (a table lookup is relatively cheaper
once the mask stack is specialized C).  This module replaces the
hand-tuned anchors with *measured* ones: it times forced-mode scans of
small probe rulesets on the resolved backend, solves the cost model's
own linear forms for the constants, and persists them per backend in
the compile cache (the same checksummed envelope discipline as compiled
rulesets).  :func:`~repro.compiler.costmodel.active_constants` then
serves the measured values to every subsequent compile on that backend.

The probes exploit that each mode's predicted cost is affine in one
feature product ``x``:

* NFA: ``t/byte = u * (nfa_base + nfa_active * x)`` with
  ``x = activity * unfolded_states`` — two probes of different ``x``
  give slope and intercept, and ``u`` (the unit: seconds per cost
  point) is pinned by normalizing ``nfa_base`` to 1.0.
* DFA: same two-point solve over ``x = activity * dfa_states`` for
  ``dfa_lookup`` and ``dfa_density``.
* NBVA: one probe, stepped like every probe by the backend's own plan
  (generated C on ``native``); ``nbva_base = t/(u) - nfa_active * x``.
* LNFA: one 64-keyword probe; ``lnfa_word = t / (u * lanes)`` where
  ``lanes`` is the packed machine's 64-bit word count.

Degenerate measurements (non-positive slopes or intercepts — noise on
a probe too fast to time) fall back to the hand-tuned default for that
constant, and everything is clamped to
:data:`~repro.compiler.costmodel.CONSTANT_RANGE`; a bad calibration
run can skew mode selection but never crash a compile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.costmodel import (
    CONSTANT_RANGE,
    DEFAULT_CONSTANTS,
    CostConstants,
    calibration_blob_name,
    extract_features,
    invalidate_constants_cache,
)
from repro.compiler.program import CompiledMode
from repro.hardware.config import DEFAULT_CONFIG
from repro.regex.parser import parse_anchored
from repro.workloads.inputs import generate_input

#: Default probe stream length; large enough to dominate per-scan
#: setup, small enough that the whole calibration stays interactive.
DEFAULT_PROBE_BYTES = 131_072

#: Timing repeats per probe (minimum is taken: noise is one-sided).
DEFAULT_REPEATS = 3

# Probe patterns, chosen so the feature products the solver divides by
# are well separated.  Every probe is validated for mode eligibility at
# runtime — a compiler change that rejects one degrades that constant
# to its default instead of failing the calibration.
NFA_SPARSE = "kqzvwxjy"
NFA_DENSE = "[a-p][a-p][a-p][a-p][a-p][a-p][a-p][a-p]"
DFA_SPARSE = "abcd"
DFA_DENSE = "[a-h][a-h][a-h][a-h][a-h][a-h]"
NBVA_PROBE = "ab{12}c"
LNFA_KEYWORDS = 64


@dataclass(frozen=True)
class CalibrationReport:
    """One calibration run: the constants plus the raw evidence."""

    backend: str
    constants: CostConstants
    #: Probe label -> measured seconds per input byte.
    measurements: dict[str, float]
    probe_bytes: int


def _lnfa_keywords(count: int = LNFA_KEYWORDS) -> list[str]:
    import random

    rng = random.Random(7)
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(5, 8)
        words.add(
            "".join(
                rng.choice("abcdefghijklmnopqrstuvwxyz")
                for _ in range(length)
            )
        )
    return sorted(words)


def _probe_stream(patterns: list[str], length: int) -> bytes:
    return generate_input(
        "network", length, seed=29, patterns=patterns, plant_every=4096
    )


def _time_scan(
    patterns: list[str],
    mode: CompiledMode | None,
    length: int,
    repeats: int,
) -> float | None:
    """Min seconds-per-byte over ``repeats`` scans, or None if the
    forced compile rejects any probe pattern."""
    from repro.simulators.rap import RAPSimulator

    ruleset = compile_ruleset(patterns, CompilerConfig(forced_mode=mode))
    if ruleset.rejected or not len(ruleset):
        return None
    sim = RAPSimulator(DEFAULT_CONFIG)
    mapping = sim.build_mapping(ruleset)
    data = _probe_stream(patterns, length)
    sim.collect_activities(ruleset, data, mapping)  # warm (JIT/.so build)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sim.collect_activities(ruleset, data, mapping)
        best = min(best, time.perf_counter() - start)
    return best / max(1, length)


def _feature_x(pattern: str, *, dfa: bool = False) -> float | None:
    """The affine feature product the pattern's mode cost is linear in."""
    features = extract_features(parse_anchored(pattern).regex)
    if dfa:
        if features.dfa_states is None:
            return None
        return features.predicted_activity * features.dfa_states
    return features.predicted_activity * features.unfolded_states


def _two_point(
    t_sparse: float | None,
    t_dense: float | None,
    x_sparse: float | None,
    x_dense: float | None,
) -> tuple[float, float] | None:
    """(intercept, slope) of t = intercept + slope*x, else None."""
    if None in (t_sparse, t_dense, x_sparse, x_dense):
        return None
    if x_dense <= x_sparse:
        return None
    slope = (t_dense - t_sparse) / (x_dense - x_sparse)
    intercept = t_sparse - slope * x_sparse
    if intercept <= 0 or slope <= 0:
        return None
    return intercept, slope


def calibrate(
    backend: str | None = None,
    *,
    probe_bytes: int = DEFAULT_PROBE_BYTES,
    repeats: int = DEFAULT_REPEATS,
) -> CalibrationReport:
    """Measure the cost constants on one backend (default: resolved)."""
    from repro.core import resolve_backend, use_backend

    resolved = resolve_backend(backend)
    measurements: dict[str, float] = {}

    def probe(label, patterns, mode):
        t = _time_scan(patterns, mode, probe_bytes, repeats)
        if t is not None:
            measurements[label] = t
        return t

    with use_backend(resolved):
        t_ns = probe("nfa_sparse", [NFA_SPARSE], CompiledMode.NFA)
        t_nd = probe("nfa_dense", [NFA_DENSE], CompiledMode.NFA)
        t_ds = probe("dfa_sparse", [DFA_SPARSE], CompiledMode.DFA)
        t_dd = probe("dfa_dense", [DFA_DENSE], CompiledMode.DFA)
        t_nb = probe("nbva", [NBVA_PROBE], CompiledMode.NBVA)
        lnfa_patterns = _lnfa_keywords()
        t_ln = probe("lnfa", lnfa_patterns, CompiledMode.LNFA)

    d = DEFAULT_CONSTANTS
    nfa_active, dfa_lookup, dfa_density = (
        d.nfa_active, d.dfa_lookup, d.dfa_density,
    )
    nbva_base, lnfa_word = d.nbva_base, d.lnfa_word

    # The unit u converts seconds/byte into cost points: by definition
    # nfa_base is 1.0, so u is the NFA fit's intercept (or, degenerate,
    # the sparse-probe time itself — every other constant then scales
    # against "one sparse NFA byte").
    nfa_fit = _two_point(
        t_ns, t_nd, _feature_x(NFA_SPARSE), _feature_x(NFA_DENSE)
    )
    if nfa_fit is not None:
        unit, slope = nfa_fit
        nfa_active = slope / unit
    elif t_ns is not None and t_ns > 0:
        unit = t_ns
    else:
        unit = None

    if unit is not None:
        dfa_fit = _two_point(
            t_ds,
            t_dd,
            _feature_x(DFA_SPARSE, dfa=True),
            _feature_x(DFA_DENSE, dfa=True),
        )
        if dfa_fit is not None:
            dfa_lookup = dfa_fit[0] / unit
            dfa_density = dfa_fit[1] / unit
        elif t_ds is not None:
            dfa_lookup = t_ds / unit

        if t_nb is not None:
            features = extract_features(parse_anchored(NBVA_PROBE).regex)
            x = features.predicted_activity * features.source_states
            measured = t_nb / unit - nfa_active * x
            if measured > 0:
                nbva_base = measured

        if t_ln is not None:
            total_states = sum(
                extract_features(parse_anchored(p).regex).unfolded_states
                for p in lnfa_patterns
            )
            lanes = max(1, -(-total_states // 64))
            measured = t_ln / (unit * lanes)
            if measured > 0:
                lnfa_word = measured

    lo, hi = CONSTANT_RANGE

    def clamp(value: float) -> float:
        return round(min(max(value, lo), hi), 4)

    constants = CostConstants(
        nfa_base=1.0,
        nfa_active=clamp(nfa_active),
        dfa_lookup=clamp(dfa_lookup),
        dfa_density=clamp(dfa_density),
        nbva_base=clamp(nbva_base),
        lnfa_word=clamp(lnfa_word),
        source="measured",
        backend=resolved,
    )
    return CalibrationReport(
        backend=resolved,
        constants=constants,
        measurements=measurements,
        probe_bytes=probe_bytes,
    )


def save_calibration(report: CalibrationReport, cache=None) -> None:
    """Persist measured constants for the report's backend."""
    from repro.engine.cache import CompileCache
    from repro.io.envelope import PLAN_VERSION

    cache = cache if cache is not None else CompileCache()
    cache.put_blob(
        calibration_blob_name(report.backend),
        {
            "version": PLAN_VERSION,
            "backend": report.backend,
            "constants": report.constants.numbers(),
            "measurements": report.measurements,
            "probe_bytes": report.probe_bytes,
        },
    )
    invalidate_constants_cache()
