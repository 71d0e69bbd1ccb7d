"""Cost-model mode selection: features, per-mode byte costs, ModePlan.

This module is the single home of the compiler's mode-selection policy.
It extracts static per-regex features (state counts, predicted activity,
class-map fanout, DFA subset size under a budget), scores them against
calibrated per-mode byte costs, and returns a :class:`ModePlan` carrying
the chosen :class:`~repro.compiler.program.CompiledMode` plus a
structured :class:`DecisionTrace` for debuggability (``rap scan
--explain``).

The selection keeps the Fig. 9 decision graph's structural precedence —
NBVA when a countable repetition survives the rewritings, then LNFA when
linearization fits the blowup allowance — because counting and
lane-packing are *capacity* wins (hardware columns, power gating) the
per-byte cost cannot see.  The cost model is decisive on the remaining
tier: NFA versus the DFA added by this module, following the UVA
DFA-vs-NFA study (PAPERS.md) — subset-constructed DFAs win on
low-activity patterns where one table lookup replaces the whole mask
stack, and lose on dense patterns whose subsets blow past the state
budget or live far from the prefilterable start state.

Every threshold constant the compiler uses lives here (re-homed from the
modules that used to duplicate them), as does the ``RAP_MODE``
environment override.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.automata.dfa import DFABlowupError, determinize
from repro.automata.glushkov import build_automaton
from repro.compiler.program import CompiledMode, CompileError
from repro.regex.ast import Lit, Regex, Repeat
from repro.regex.charclass import ALPHABET_SIZE
from repro.regex.rewrite import (
    RewriteError,
    linearize,
    make_countable,
    unfold,
)

# -- threshold constants (the compiler's single source of truth) --------------

#: Bounded repetitions up to this size unfold in place instead of counting.
DEFAULT_UNFOLD_THRESHOLD = 8

#: Default bit-vector pipeline depth for NBVA mode (Section 5.3 knob).
DEFAULT_BV_DEPTH = 16

#: LNFA linearization may grow the state count by at most this factor.
DEFAULT_LNFA_BLOWUP = 2.0

#: Upper bound on linearized sequences per regex.
DEFAULT_MAX_LNFA_SEQUENCES = 4096

#: Subset construction aborts past this many DFA states (the paper's
#: Section 2.1 blowup guard); such regexes stay NFAs.
DFA_STATE_BUDGET = 256

#: Don't even attempt determinization past this many unfolded NFA states:
#: the subset count is at least the longest simple path, so huge sources
#: can't fit the budget anyway and the attempt would only burn compile
#: time.
DFA_MAX_SOURCE_STATES = 512

# -- calibrated per-mode byte costs -------------------------------------------
#
# Units are "relative work per input byte" on the fused backend; only the
# NFA-vs-DFA comparison is decisive, so the absolute scale is arbitrary.
# Calibration anchors (benchmarks/test_dfa_speed.py pins the first):
#
# * low-activity keyword-ish patterns (predicted activity ~1/256) must
#   pick DFA: the lookup replaces the shift-mask-AND + gather stack;
# * dense patterns ("a(?:b.*|c)d", activity ~0.2) must stay NFA: hot
#   subsets keep the DFA away from its prefilterable start state and the
#   larger table loses locality, which the density term models.

#: NFA: fixed shift-mask-AND recurrence per byte...
C_NFA_BASE = 1.0
#: ...plus gather work proportional to the expected live-state count.
C_NFA_ACTIVE = 0.6
#: DFA: one translated[i] -> next_state table lookup per byte.
C_DFA_LOOKUP = 0.4
#: DFA: density penalty per expected live subset weight (table locality
#: and lost prefilter skips).
C_DFA_DENSITY = 1.0
#: NBVA: counter updates on a compressed automaton.
C_NBVA_BASE = 0.9
#: LNFA: per 64-bit lane word of the shared Shift-And machine.
C_LNFA_WORD = 0.3

# -- measured constants (``rap calibrate``) -----------------------------------

#: Measured constants outside this range are implausible (a degenerate
#: micro-benchmark, clock glitch, or corrupted blob) and are clamped.
CONSTANT_RANGE = (0.01, 100.0)


@dataclass(frozen=True)
class CostConstants:
    """The six per-byte cost anchors, with their provenance.

    The hand-tuned module constants above remain the documented
    defaults; ``rap calibrate`` measures backend-specific replacements
    and persists them in the compile cache, from which
    :func:`active_constants` loads them for every subsequent compile.
    Only the NFA-vs-DFA comparison is decisive, so everything is
    normalized to ``nfa_base == 1.0`` regardless of absolute speed.
    """

    nfa_base: float = C_NFA_BASE
    nfa_active: float = C_NFA_ACTIVE
    dfa_lookup: float = C_DFA_LOOKUP
    dfa_density: float = C_DFA_DENSITY
    nbva_base: float = C_NBVA_BASE
    lnfa_word: float = C_LNFA_WORD
    #: ``"default"`` (hand-tuned anchors) or ``"measured"``.
    source: str = "default"
    #: The backend the measured constants were calibrated on.
    backend: str = ""

    def numbers(self) -> dict[str, float]:
        """The six numeric anchors by name (persistence/display)."""
        return {
            "nfa_base": self.nfa_base,
            "nfa_active": self.nfa_active,
            "dfa_lookup": self.dfa_lookup,
            "dfa_density": self.dfa_density,
            "nbva_base": self.nbva_base,
            "lnfa_word": self.lnfa_word,
        }


DEFAULT_CONSTANTS = CostConstants()


def calibration_blob_name(backend: str) -> str:
    """Cache-blob name for one backend's measured constants."""
    return f"costmodel-{backend}"


# In-process memo of loaded calibrations, keyed by (cache root,
# backend).  ``rap calibrate`` and tests that rewrite the blob call
# :func:`invalidate_constants_cache` to force a re-read.
_ACTIVE: dict[tuple[str, str], CostConstants] = {}


def invalidate_constants_cache() -> None:
    """Drop memoized calibrations (after ``rap calibrate`` or in tests)."""
    _ACTIVE.clear()


def _clamp(value: float) -> float:
    lo, hi = CONSTANT_RANGE
    return min(max(float(value), lo), hi)


def active_constants(backend: str | None = None) -> CostConstants:
    """The cost constants in force: measured if calibrated, else default.

    Reads the per-backend calibration blob from the compile cache
    (``$RAP_CACHE_DIR``-aware); any malformed, version-skewed, or
    non-finite payload degrades to :data:`DEFAULT_CONSTANTS` — a stale
    calibration must never fail a compile.
    """
    # Lazy imports: the cache module imports the compiler package, so a
    # module-level import here would be circular.
    from repro.core import resolve_backend
    from repro.engine.cache import CompileCache, default_cache_dir
    from repro.io.envelope import PLAN_VERSION

    resolved = backend if backend is not None else resolve_backend()
    key = (str(default_cache_dir()), resolved)
    found = _ACTIVE.get(key)
    if found is not None:
        return found
    constants = DEFAULT_CONSTANTS
    try:
        payload = CompileCache().get_blob(calibration_blob_name(resolved))
    except OSError:
        payload = None
    if (
        isinstance(payload, dict)
        and payload.get("version") == PLAN_VERSION
        and isinstance(payload.get("constants"), dict)
    ):
        raw = payload["constants"]
        try:
            numbers = {
                name: _clamp(raw[name])
                for name in DEFAULT_CONSTANTS.numbers()
            }
        except (KeyError, TypeError, ValueError):
            numbers = None
        if numbers is not None and all(
            math.isfinite(v) for v in numbers.values()
        ):
            constants = CostConstants(
                **numbers, source="measured", backend=resolved
            )
    _ACTIVE[key] = constants
    return constants

# -- mode override ------------------------------------------------------------

MODE_ENV = "RAP_MODE"

#: User-facing mode names (CLI ``--mode`` / ``RAP_MODE`` values).
MODE_CHOICES = ("auto", "nfa", "dfa", "nbva", "lnfa")


def resolve_mode(explicit: str | None = None) -> str:
    """The effective mode-selection policy: explicit > ``RAP_MODE`` > auto.

    An explicitly passed unknown name raises; an unknown ``RAP_MODE``
    value quietly resolves to ``auto`` (a stale environment must not
    break a run) — the same contract as ``RAP_BACKEND``.
    """
    if explicit is not None:
        name = explicit.strip().lower()
        if name not in MODE_CHOICES:
            raise ValueError(
                f"unknown mode {explicit!r}; choose from {MODE_CHOICES}"
            )
        if name != "auto":
            return name
    env = os.environ.get(MODE_ENV, "").strip().lower()
    if env in MODE_CHOICES:
        return env
    return "auto"


def mode_override(name: str | None) -> CompiledMode | None:
    """Map a resolved mode name onto a CompiledMode (``auto`` -> None)."""
    resolved = resolve_mode(name)
    if resolved == "auto":
        return None
    return CompiledMode(resolved.upper())


# -- feature extraction -------------------------------------------------------


@dataclass(frozen=True)
class ModeFeatures:
    """Static per-regex features the cost model scores.

    ``predicted_activity`` is the mean label density over the regex's
    literal positions (popcount of the character-class mask over the
    alphabet size) — a static proxy for the expected fraction of bytes
    that keep some state alive.  ``class_fanout`` counts distinct label
    masks: the number of alphabet-equivalence classes this regex
    contributes to the fused backend's class map.  ``dfa_states`` is the
    subset-construction size under :data:`DFA_STATE_BUDGET`, or ``None``
    when the regex is DFA-ineligible (anchored, oversized source, or
    subset blowup).
    """

    source_states: int
    unfolded_states: int
    predicted_activity: float
    class_fanout: int
    dfa_states: int | None
    nbva_eligible: bool
    lnfa_eligible: bool
    anchored: bool

    @property
    def dfa_eligible(self) -> bool:
        """Did subset construction fit the state budget?"""
        return self.dfa_states is not None


def predicted_activity(regex: Regex) -> float:
    """Mean label density over the regex's literal positions."""
    densities = [
        node.cc.mask.bit_count() / ALPHABET_SIZE
        for node in regex.walk()
        if isinstance(node, Lit)
    ]
    if not densities:
        return 0.0
    return sum(densities) / len(densities)


def class_fanout(regex: Regex) -> int:
    """Distinct label masks (alphabet-equivalence classes contributed)."""
    return len(
        {node.cc.mask for node in regex.walk() if isinstance(node, Lit)}
    )


def nbva_eligible(regex: Regex, *, unfold_threshold: int) -> bool:
    """Does at least one countable repetition survive the rewritings?"""
    try:
        prepared = make_countable(unfold(regex, unfold_threshold))
    except RewriteError:
        return False
    return any(isinstance(node, Repeat) for node in prepared.walk())


def lnfa_eligible(
    regex: Regex, *, lnfa_blowup: float, max_lnfa_sequences: int
) -> bool:
    """Does linearization succeed within the blowup allowance?"""
    base_states = max(regex.unfolded_size(), 1)
    return (
        linearize(
            regex,
            max_states=int(base_states * lnfa_blowup),
            max_sequences=max_lnfa_sequences,
        )
        is not None
    )


def dfa_state_count(
    regex: Regex,
    *,
    anchored: bool,
    dfa_state_budget: int = DFA_STATE_BUDGET,
) -> int | None:
    """Subset-construction size within the budget, else ``None``.

    Anchored regexes are excluded: the scanning determinization bakes
    the *unanchored* restart semantics into every subset, which is
    exactly what makes the DFA state after byte ``i`` equal the NFA
    active set after byte ``i`` — an anchored automaton has a different
    injection pattern and stays on the NFA path.
    """
    if anchored:
        return None
    if regex.unfolded_size() > DFA_MAX_SOURCE_STATES:
        return None
    automaton = build_automaton(regex, counters=False)
    try:
        dfa = determinize(automaton, max_states=dfa_state_budget)
    except DFABlowupError:
        return None
    return dfa.state_count


def extract_features(
    regex: Regex,
    *,
    unfold_threshold: int = DEFAULT_UNFOLD_THRESHOLD,
    lnfa_blowup: float = DEFAULT_LNFA_BLOWUP,
    max_lnfa_sequences: int = DEFAULT_MAX_LNFA_SEQUENCES,
    dfa_state_budget: int = DFA_STATE_BUDGET,
    anchored_start: bool = False,
    anchored_end: bool = False,
) -> ModeFeatures:
    """All static features of one parsed regex."""
    anchored = anchored_start or anchored_end
    return ModeFeatures(
        source_states=regex.literal_count(),
        unfolded_states=regex.unfolded_size(),
        predicted_activity=predicted_activity(regex),
        class_fanout=class_fanout(regex),
        dfa_states=dfa_state_count(
            regex, anchored=anchored, dfa_state_budget=dfa_state_budget
        ),
        nbva_eligible=nbva_eligible(regex, unfold_threshold=unfold_threshold),
        lnfa_eligible=lnfa_eligible(
            regex,
            lnfa_blowup=lnfa_blowup,
            max_lnfa_sequences=max_lnfa_sequences,
        ),
        anchored=anchored,
    )


# -- per-mode predicted costs -------------------------------------------------


def mode_costs(
    features: ModeFeatures, constants: CostConstants | None = None
) -> dict[str, float]:
    """Predicted per-byte cost of each mode; ineligible modes are inf.

    ``constants`` defaults to :func:`active_constants`: the hand-tuned
    anchors until ``rap calibrate`` has stored measured replacements
    for the resolved backend.
    """
    c = constants if constants is not None else active_constants()
    p = features.predicted_activity
    costs = {
        "nfa": c.nfa_base + c.nfa_active * p * features.unfolded_states
    }
    if features.dfa_states is not None:
        costs["dfa"] = c.dfa_lookup + c.dfa_density * p * features.dfa_states
    else:
        costs["dfa"] = math.inf
    if features.nbva_eligible:
        costs["nbva"] = c.nbva_base + c.nfa_active * p * features.source_states
    else:
        costs["nbva"] = math.inf
    if features.lnfa_eligible:
        words = max(1, -(-features.unfolded_states // 64))
        costs["lnfa"] = c.lnfa_word * words
    else:
        costs["lnfa"] = math.inf
    return costs


# -- the plan -----------------------------------------------------------------


@dataclass(frozen=True)
class DecisionTrace:
    """One regex's mode decision, structured for display and tests."""

    features: ModeFeatures
    costs: dict[str, float]
    mode: CompiledMode
    reason: str

    def eligibility(self) -> dict[str, bool]:
        """Mode name -> was the mode available for this regex?"""
        return {
            "nfa": True,
            "dfa": self.features.dfa_eligible,
            "nbva": self.features.nbva_eligible,
            "lnfa": self.features.lnfa_eligible,
        }


@dataclass(frozen=True)
class ModePlan:
    """The chosen execution mode plus the trace behind it."""

    mode: CompiledMode
    trace: DecisionTrace


def plan_mode(
    regex: Regex,
    *,
    unfold_threshold: int = DEFAULT_UNFOLD_THRESHOLD,
    lnfa_blowup: float = DEFAULT_LNFA_BLOWUP,
    max_lnfa_sequences: int = DEFAULT_MAX_LNFA_SEQUENCES,
    dfa_state_budget: int = DFA_STATE_BUDGET,
    mode_override: CompiledMode | None = None,
    anchored_start: bool = False,
    anchored_end: bool = False,
) -> ModePlan:
    """Score one parsed regex and choose its execution mode.

    ``mode_override`` is the *soft* preference behind ``--mode`` /
    ``RAP_MODE``: the requested mode wins when the regex is eligible for
    it, and the normal selection applies otherwise — so forcing ``dfa``
    across a whole suite degrades gracefully on anchored or blowup-prone
    regexes instead of failing them.  (The compiler's strict
    ``forced_mode`` keeps its raise-on-ineligible contract.)
    """
    if regex.nullable():
        raise CompileError(
            "nullable regex matches the empty string everywhere; "
            "not a meaningful hardware pattern"
        )
    features = extract_features(
        regex,
        unfold_threshold=unfold_threshold,
        lnfa_blowup=lnfa_blowup,
        max_lnfa_sequences=max_lnfa_sequences,
        dfa_state_budget=dfa_state_budget,
        anchored_start=anchored_start,
        anchored_end=anchored_end,
    )
    costs = mode_costs(features)

    if mode_override is not None:
        eligible = {
            CompiledMode.NFA: True,
            CompiledMode.DFA: features.dfa_eligible,
            CompiledMode.NBVA: features.nbva_eligible,
            CompiledMode.LNFA: features.lnfa_eligible,
        }[mode_override]
        if eligible:
            trace = DecisionTrace(
                features=features,
                costs=costs,
                mode=mode_override,
                reason=f"override: {mode_override.value.lower()} requested "
                "and eligible",
            )
            return ModePlan(mode=mode_override, trace=trace)
        # Ineligible override: fall through to the normal selection.

    if features.nbva_eligible:
        mode = CompiledMode.NBVA
        reason = "countable repetition survives the rewritings"
    elif features.lnfa_eligible:
        mode = CompiledMode.LNFA
        reason = "linearizable within the blowup allowance"
    elif features.dfa_eligible and costs["dfa"] < costs["nfa"]:
        mode = CompiledMode.DFA
        reason = (
            f"cost model: dfa {costs['dfa']:.3f} < nfa {costs['nfa']:.3f} "
            f"per byte ({features.dfa_states} DFA states, "
            f"activity {features.predicted_activity:.4f})"
        )
    else:
        mode = CompiledMode.NFA
        if features.dfa_eligible:
            reason = (
                f"cost model: nfa {costs['nfa']:.3f} <= dfa "
                f"{costs['dfa']:.3f} per byte (dense pattern)"
            )
        elif features.anchored:
            reason = "anchored: DFA tier requires unanchored scanning"
        else:
            reason = (
                f"DFA subset construction blew the {dfa_state_budget}-state "
                "budget"
            )
    trace = DecisionTrace(
        features=features, costs=costs, mode=mode, reason=reason
    )
    return ModePlan(mode=mode, trace=trace)
