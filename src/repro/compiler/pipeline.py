"""The end-to-end compilation pipeline.

``compile_ruleset`` takes raw pattern strings, parses them, runs the
Fig. 9 decision graph per regex, dispatches to the mode-specific
backends, and returns a :class:`~repro.compiler.program.CompiledRuleset`.
Patterns outside the supported fragment (or exceeding hardware limits)
are collected as rejections rather than aborting the whole workload —
matching how real rule-set deployments handle stragglers.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.compiler.costmodel import (
    DEFAULT_BV_DEPTH,
    DEFAULT_LNFA_BLOWUP,
    DEFAULT_MAX_LNFA_SEQUENCES,
    DEFAULT_UNFOLD_THRESHOLD,
    DFA_STATE_BUDGET,
    DecisionTrace,
)
from repro.compiler.decision import decide
from repro.compiler.lnfa_compiler import compile_lnfa
from repro.compiler.nbva_compiler import compile_nbva
from repro.compiler.nfa_compiler import compile_nfa
from repro.compiler.program import (
    CompiledMode,
    CompiledRegex,
    CompiledRuleset,
    CompileError,
)
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.regex.ast import Regex
from repro.regex.parser import RegexSyntaxError, parse_anchored


@dataclass(frozen=True)
class CompilerConfig:
    """User-controlled compilation parameters.

    ``unfold_threshold`` and ``bv_depth`` are the two knobs the paper's
    design-space exploration tunes per workload (Section 5.3);
    ``forced_mode`` lets experiments compile everything to one mode (the
    Table 2/3 methodology unfolds all regexes to basic NFAs for the NFA-
    mode columns) and raises on ineligible regexes.  ``mode_override``
    is the *soft* preference behind ``--mode`` / ``RAP_MODE``: the
    requested mode wins when a regex is eligible for it and the normal
    cost-model selection applies otherwise.  ``dfa_state_budget`` caps
    subset construction for the DFA tier.  Defaults are re-homed in
    :mod:`repro.compiler.costmodel`.
    """

    unfold_threshold: int = DEFAULT_UNFOLD_THRESHOLD
    bv_depth: int = DEFAULT_BV_DEPTH
    lnfa_blowup: float = DEFAULT_LNFA_BLOWUP
    word_align_exact: bool = True
    max_lnfa_sequences: int = DEFAULT_MAX_LNFA_SEQUENCES
    forced_mode: CompiledMode | None = None
    mode_override: CompiledMode | None = None
    dfa_state_budget: int = DFA_STATE_BUDGET
    hw: HardwareConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    def with_depth(self, depth: int) -> "CompilerConfig":
        """A copy of this config with another BV depth."""
        return dataclasses.replace(self, bv_depth=depth)

    def with_forced_mode(self, mode: CompiledMode | None) -> "CompilerConfig":
        """A copy of this config forcing one mode."""
        return dataclasses.replace(self, forced_mode=mode)

    def with_mode_override(
        self, mode: CompiledMode | None
    ) -> "CompilerConfig":
        """A copy of this config with a soft mode preference."""
        return dataclasses.replace(self, mode_override=mode)


def compile_pattern(
    pattern: str | Regex,
    regex_id: int = 0,
    config: CompilerConfig | None = None,
) -> CompiledRegex:
    """Compile one pattern; raises :class:`CompileError` on failure."""
    config = config or CompilerConfig()
    anchored_start = anchored_end = False
    if isinstance(pattern, str):
        try:
            parsed = parse_anchored(pattern)
        except RegexSyntaxError as err:
            raise CompileError(str(err)) from err
        regex = parsed.regex
        anchored_start = parsed.anchored_start
        anchored_end = parsed.anchored_end
        text = pattern
    else:
        regex = pattern
        text = regex.to_pattern()

    if config.forced_mode is not None:
        compiled = _compile_forced(
            regex_id,
            text,
            regex,
            config,
            anchored=anchored_start or anchored_end,
        )
        return _with_anchors(compiled, anchored_start, anchored_end)

    decision = decide(
        regex,
        unfold_threshold=config.unfold_threshold,
        lnfa_blowup=config.lnfa_blowup,
        max_lnfa_sequences=config.max_lnfa_sequences,
        dfa_state_budget=config.dfa_state_budget,
        mode_override=config.mode_override,
        anchored_start=anchored_start,
        anchored_end=anchored_end,
    )
    anchors = (anchored_start, anchored_end)
    if decision.mode is CompiledMode.NFA:
        return _with_anchors(
            compile_nfa(regex_id, text, regex, config.hw), *anchors
        )
    if decision.mode is CompiledMode.DFA:
        return _with_anchors(_compile_dfa(regex_id, text, regex, config), *anchors)
    if decision.mode is CompiledMode.NBVA:
        compiled = compile_nbva(
            regex_id,
            text,
            regex,
            unfold_threshold=config.unfold_threshold,
            depth=config.bv_depth,
            hw=config.hw,
            word_align_exact=config.word_align_exact,
        )
        if compiled is not None:
            return _with_anchors(compiled, *anchors)
        # Counting degenerated (e.g. everything word-aligned away): fall
        # through the rest of the decision graph.
    if decision.lnfa_eligible:
        compiled = compile_lnfa(
            regex_id,
            text,
            regex,
            lnfa_blowup=config.lnfa_blowup,
            hw=config.hw,
            max_sequences=config.max_lnfa_sequences,
        )
        if compiled is not None:
            return _with_anchors(compiled, *anchors)
    return _with_anchors(
        compile_nfa(regex_id, text, regex, config.hw), *anchors
    )


def _with_anchors(
    compiled: CompiledRegex, anchored_start: bool, anchored_end: bool
) -> CompiledRegex:
    if not (anchored_start or anchored_end):
        return compiled
    import dataclasses

    return dataclasses.replace(
        compiled, anchored_start=anchored_start, anchored_end=anchored_end
    )


def _compile_dfa(
    regex_id: int, text: str, regex: Regex, config: CompilerConfig
) -> CompiledRegex:
    """DFA mode shares the NFA structural plan — same Glushkov automaton,
    same tile requests (it occupies NFA-mode tiles) — and the mode tag
    routes execution to the subset-constructed table."""
    compiled = compile_nfa(regex_id, text, regex, config.hw)
    return dataclasses.replace(compiled, mode=CompiledMode.DFA)


def _compile_forced(
    regex_id: int,
    text: str,
    regex: Regex,
    config: CompilerConfig,
    anchored: bool = False,
) -> CompiledRegex:
    """Compile to a specific mode (experiment methodology support).

    NBVA/LNFA/DFA forcing raises if the regex is ineligible — the
    Table 2/3 experiments only include regexes the decision graph sent to
    that mode, so ineligibility there is a bug, not a fallback case.
    (The soft ``mode_override`` is the degrade-gracefully variant.)
    """
    if regex.nullable():
        raise CompileError("nullable regex")
    if config.forced_mode is CompiledMode.NFA:
        return compile_nfa(regex_id, text, regex, config.hw)
    if config.forced_mode is CompiledMode.DFA:
        from repro.compiler.costmodel import dfa_state_count

        states = dfa_state_count(
            regex, anchored=anchored, dfa_state_budget=config.dfa_state_budget
        )
        if states is None:
            raise CompileError(
                f"regex is not DFA-eligible (anchored or past the "
                f"{config.dfa_state_budget}-state budget): {text!r}"
            )
        return _compile_dfa(regex_id, text, regex, config)
    if config.forced_mode is CompiledMode.NBVA:
        compiled = compile_nbva(
            regex_id,
            text,
            regex,
            unfold_threshold=config.unfold_threshold,
            depth=config.bv_depth,
            hw=config.hw,
            word_align_exact=config.word_align_exact,
        )
        if compiled is None:
            raise CompileError(f"regex has no countable repetition: {text!r}")
        return compiled
    assert config.forced_mode is CompiledMode.LNFA
    compiled = compile_lnfa(
        regex_id,
        text,
        regex,
        lnfa_blowup=config.lnfa_blowup,
        hw=config.hw,
        max_sequences=config.max_lnfa_sequences,
    )
    if compiled is None:
        raise CompileError(f"regex is not linearizable within budget: {text!r}")
    return compiled


@dataclass(frozen=True)
class ExplainEntry:
    """One pattern's mode decision as ``--explain`` reports it."""

    pattern: str
    trace: DecisionTrace | None
    error: str | None = None
    #: Filled in by ``BatchEngine.explain``.  NBVA-mode patterns: the
    #: tier that steps the unit — ``"native"``, or ``"interpreted
    #: (<why>)``.  NFA- and DFA-mode patterns: ``"table (S states)"``,
    #: the unit's determinised closure, or ``"interpreted (closure >
    #: N)"``.  LNFA-mode patterns: the tier of the lane machine they
    #: share — ``"dfa (S states / B bins)"`` or ``"interpreted (<why>)"``
    #: (the table walker; ``bin j closure > cap`` is one such why).
    tier: str | None = None
    #: Filled in by ``BatchEngine.explain`` when ``input_jobs > 1`` on a
    #: backend that honours it: ``"window N"`` — the row rides the chunk
    #: tasks behind an N-symbol warm-up window (a unit's own; for LNFA
    #: rows the one every chunk shares) — or ``"whole stream"``.
    split: str | None = None


def explain_patterns(
    patterns: Iterable[str | Regex],
    config: CompilerConfig | None = None,
) -> list[ExplainEntry]:
    """The cost-model decision trace of every pattern, without compiling.

    Runs exactly the feature extraction and scoring ``compile_ruleset``
    would (``forced_mode`` is shown as the soft preference it overrides
    with), so the reported mode matches what a compile of the same
    config chooses.  Unparseable or degenerate patterns come back as
    entries with ``error`` set instead of aborting the report.
    """
    config = config or CompilerConfig()
    entries: list[ExplainEntry] = []
    for pattern in patterns:
        text = pattern if isinstance(pattern, str) else pattern.to_pattern()
        anchored_start = anchored_end = False
        try:
            if isinstance(pattern, str):
                parsed = parse_anchored(pattern)
                regex = parsed.regex
                anchored_start = parsed.anchored_start
                anchored_end = parsed.anchored_end
            else:
                regex = pattern
            decision = decide(
                regex,
                unfold_threshold=config.unfold_threshold,
                lnfa_blowup=config.lnfa_blowup,
                max_lnfa_sequences=config.max_lnfa_sequences,
                dfa_state_budget=config.dfa_state_budget,
                mode_override=config.forced_mode or config.mode_override,
                anchored_start=anchored_start,
                anchored_end=anchored_end,
            )
        except (RegexSyntaxError, CompileError) as err:
            entries.append(ExplainEntry(pattern=text, trace=None, error=str(err)))
            continue
        entries.append(ExplainEntry(pattern=text, trace=decision.trace))
    return entries


def compile_ruleset(
    patterns: Iterable[str | Regex],
    config: CompilerConfig | None = None,
) -> CompiledRuleset:
    """Compile a workload; failures become rejections, not exceptions."""
    config = config or CompilerConfig()
    compiled: list[CompiledRegex] = []
    rejected: list[tuple[str, str]] = []
    errors: list[CompileError] = []
    for index, pattern in enumerate(patterns):
        text = pattern if isinstance(pattern, str) else pattern.to_pattern()
        try:
            compiled.append(compile_pattern(pattern, len(compiled), config))
        except CompileError as err:
            err.pattern = text
            err.pattern_index = index
            err.phase = "compile"
            rejected.append((text, str(err)))
            errors.append(err)
    return CompiledRuleset(
        regexes=tuple(compiled),
        rejected=tuple(rejected),
        rejected_errors=tuple(errors),
    )
