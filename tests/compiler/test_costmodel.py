"""Unit tests for the cost-model feature extraction and scoring."""

import math
import random

import pytest

from repro.compiler import compile_ruleset
from repro.compiler.costmodel import (
    CONSTANT_RANGE,
    DEFAULT_CONSTANTS,
    DFA_MAX_SOURCE_STATES,
    DFA_STATE_BUDGET,
    MODE_CHOICES,
    MODE_ENV,
    CostConstants,
    ModeFeatures,
    active_constants,
    calibration_blob_name,
    dfa_state_count,
    extract_features,
    mode_costs,
    invalidate_constants_cache,
    mode_override,
    plan_mode,
    resolve_mode,
)
from repro.compiler.program import CompiledMode, CompileError
from repro.engine import BatchEngine, EngineConfig
from repro.io.envelope import PLAN_VERSION
from repro.regex.parser import parse


class TestFeatures:
    def test_star_pattern_features(self):
        f = extract_features(parse("ab*c"))
        assert f.source_states == 3
        assert f.unfolded_states == 3
        assert f.dfa_eligible
        assert f.dfa_states is not None and f.dfa_states <= 5
        assert 0.0 < f.predicted_activity < 0.05  # three single-char labels
        assert f.class_fanout == 3
        assert not f.anchored

    def test_activity_tracks_label_density(self):
        sparse = extract_features(parse("abc"))
        dense = extract_features(parse("a.c"))
        assert sparse.predicted_activity < dense.predicted_activity
        assert dense.predicted_activity > 0.3  # `.` is a full-density label

    def test_blowup_family_is_dfa_ineligible(self):
        # a.{n}b determinizes to ~2^n states; past the budget the regex
        # must stay off the DFA tier.
        f = extract_features(parse("a.{12}b"))
        assert f.dfa_states is None
        assert not f.dfa_eligible

    def test_anchored_is_dfa_ineligible(self):
        assert dfa_state_count(parse("abc"), anchored=True) is None
        assert dfa_state_count(parse("abc"), anchored=False) is not None

    def test_oversized_source_is_not_determinized(self):
        # The source-size guard rejects without attempting construction.
        pattern = "a" * (DFA_MAX_SOURCE_STATES + 1)
        assert dfa_state_count(parse(pattern), anchored=False) is None


class TestCosts:
    def test_ineligible_modes_cost_infinity(self):
        f = extract_features(parse("ab*c"))  # no counter, no linearization
        costs = mode_costs(f)
        assert costs["nbva"] == math.inf
        assert costs["lnfa"] == math.inf
        assert costs["nfa"] < math.inf
        assert costs["dfa"] < math.inf

    def test_low_activity_prefers_dfa(self):
        costs = mode_costs(extract_features(parse("ab*c")))
        assert costs["dfa"] < costs["nfa"]

    def test_dense_pattern_prefers_nfa(self):
        costs = mode_costs(extract_features(parse("a(?:b.*|c)d")))
        assert costs["nfa"] < costs["dfa"]

    def test_density_term_scales_with_subset_size(self):
        small = ModeFeatures(
            source_states=3, unfolded_states=3, predicted_activity=0.1,
            class_fanout=2, dfa_states=4, nbva_eligible=False,
            lnfa_eligible=False, anchored=False,
        )
        large = ModeFeatures(
            source_states=3, unfolded_states=3, predicted_activity=0.1,
            class_fanout=2, dfa_states=200, nbva_eligible=False,
            lnfa_eligible=False, anchored=False,
        )
        assert mode_costs(small)["dfa"] < mode_costs(large)["dfa"]


class TestPlanMode:
    def test_nullable_raises(self):
        with pytest.raises(CompileError):
            plan_mode(parse("a*"))

    def test_plan_carries_trace(self):
        plan = plan_mode(parse("ab*c"))
        assert plan.mode is CompiledMode.DFA
        assert plan.trace.mode is plan.mode
        assert plan.trace.costs["dfa"] < plan.trace.costs["nfa"]
        assert plan.trace.features.dfa_eligible

    def test_structural_precedence_beats_cost(self):
        # NBVA/LNFA are capacity wins; the cost model only arbitrates
        # the NFA-vs-DFA tier.
        assert plan_mode(parse("ab{100}c")).mode is CompiledMode.NBVA
        assert plan_mode(parse("a[bc]d")).mode is CompiledMode.LNFA

    def test_budget_knob_flips_the_decision(self):
        # A budget too small for even ab*c's subsets forces NFA.
        plan = plan_mode(parse("ab*c"), dfa_state_budget=2)
        assert plan.mode is CompiledMode.NFA
        assert "budget" in plan.trace.reason

    def test_override_wins_when_eligible(self):
        plan = plan_mode(parse("a[bc]d"), mode_override=CompiledMode.DFA)
        assert plan.mode is CompiledMode.DFA
        assert "override" in plan.trace.reason

    def test_override_falls_back_when_ineligible(self):
        plan = plan_mode(parse("a.{12}b"), mode_override=CompiledMode.DFA)
        assert plan.mode is not CompiledMode.DFA


class TestModeResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "nfa")
        assert resolve_mode("dfa") == "dfa"

    def test_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "lnfa")
        assert resolve_mode("auto") == "lnfa"
        assert resolve_mode(None) == "lnfa"

    def test_unknown_env_resolves_to_auto(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "warp-speed")
        assert resolve_mode(None) == "auto"

    def test_unknown_explicit_raises(self):
        with pytest.raises(ValueError):
            resolve_mode("warp-speed")

    def test_mode_override_mapping(self, monkeypatch):
        monkeypatch.delenv(MODE_ENV, raising=False)
        assert mode_override("auto") is None
        assert mode_override(None) is None
        assert mode_override("dfa") is CompiledMode.DFA
        assert mode_override("nbva") is CompiledMode.NBVA

    def test_choices_cover_every_mode(self):
        assert set(MODE_CHOICES) == {
            "auto", "nfa", "dfa", "nbva", "lnfa"
        }
        assert DFA_STATE_BUDGET == 256


class TestCalibratedConstants:
    """Measured constants: persistence, loading, and degradation."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        from repro.engine.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        invalidate_constants_cache()
        yield
        invalidate_constants_cache()

    def _store(self, payload):
        from repro.engine.cache import CompileCache

        CompileCache().put_blob(calibration_blob_name("python"), payload)
        invalidate_constants_cache()

    def test_uncalibrated_backend_gets_defaults(self):
        constants = active_constants("python")
        assert constants == DEFAULT_CONSTANTS
        assert constants.source == "default"

    def test_measured_constants_load_and_score(self):
        self._store(
            {
                "version": PLAN_VERSION,
                "backend": "python",
                "constants": {
                    "nfa_base": 1.0,
                    "nfa_active": 2.5,
                    "dfa_lookup": 0.2,
                    "dfa_density": 3.0,
                    "nbva_base": 1.1,
                    "lnfa_word": 0.4,
                },
            }
        )
        constants = active_constants("python")
        assert constants.source == "measured"
        assert constants.backend == "python"
        assert constants.nfa_active == 2.5
        # mode_costs scores against the loaded constants.
        features = extract_features(parse("abcd"))
        costs = mode_costs(features, constants)
        expected = 1.0 + 2.5 * features.predicted_activity * features.unfolded_states
        assert costs["nfa"] == pytest.approx(expected)

    def test_version_skew_degrades_to_defaults(self):
        self._store(
            {
                "version": PLAN_VERSION + 1,
                "constants": {"nfa_base": 1.0},
            }
        )
        assert active_constants("python") == DEFAULT_CONSTANTS

    def test_malformed_payload_degrades_to_defaults(self):
        self._store({"version": PLAN_VERSION, "constants": "junk"})
        assert active_constants("python") == DEFAULT_CONSTANTS

    def test_implausible_values_are_clamped(self):
        lo, hi = CONSTANT_RANGE
        self._store(
            {
                "version": PLAN_VERSION,
                "constants": {
                    "nfa_base": 1.0,
                    "nfa_active": 1e9,
                    "dfa_lookup": 0.0,
                    "dfa_density": 1.0,
                    "nbva_base": 1.0,
                    "lnfa_word": 1.0,
                },
            }
        )
        constants = active_constants("python")
        assert constants.nfa_active == hi
        assert constants.dfa_lookup == lo

    def test_calibrations_are_per_backend(self):
        self._store(
            {
                "version": PLAN_VERSION,
                "constants": dict(
                    DEFAULT_CONSTANTS.numbers(), nfa_active=9.0
                ),
            }
        )
        assert active_constants("python").source == "measured"
        assert active_constants("fused").source == "default"

    def test_save_calibration_round_trips(self):
        from repro.compiler.calibrate import CalibrationReport, save_calibration

        report = CalibrationReport(
            backend="python",
            constants=CostConstants(
                nfa_active=5.0, source="measured", backend="python"
            ),
            measurements={"nfa_sparse": 1e-8},
            probe_bytes=1024,
        )
        save_calibration(report)
        loaded = active_constants("python")
        assert loaded.source == "measured"
        assert loaded.nfa_active == 5.0


class TestCalibrationSolver:
    def test_two_point_solves_affine_fit(self):
        from repro.compiler.calibrate import _two_point

        intercept, slope = _two_point(10.0, 30.0, 1.0, 5.0)
        assert intercept == pytest.approx(5.0)
        assert slope == pytest.approx(5.0)

    def test_two_point_rejects_degenerate_inputs(self):
        from repro.compiler.calibrate import _two_point

        assert _two_point(None, 30.0, 1.0, 5.0) is None
        assert _two_point(10.0, 30.0, 5.0, 1.0) is None  # x not increasing
        assert _two_point(30.0, 10.0, 1.0, 5.0) is None  # negative slope

    def test_probe_patterns_are_eligible(self):
        """Every probe must actually compile in its forced mode, or the
        calibration silently degrades that constant to its default."""
        from repro.compiler import CompilerConfig
        from repro.compiler import calibrate as cal

        for pattern, mode in (
            (cal.NFA_SPARSE, CompiledMode.NFA),
            (cal.NFA_DENSE, CompiledMode.NFA),
            (cal.DFA_SPARSE, CompiledMode.DFA),
            (cal.DFA_DENSE, CompiledMode.DFA),
            (cal.NBVA_PROBE, CompiledMode.NBVA),
        ):
            ruleset = compile_ruleset(
                [pattern], CompilerConfig(forced_mode=mode)
            )
            assert not ruleset.rejected, (pattern, mode)


class TestAutoSelection:
    def test_auto_picks_dfa_for_low_activity_workload(self):
        # A seeded keyword-with-gap workload: unbounded stars keep it
        # off NBVA/LNFA, single-char labels keep the predicted activity
        # low, so the cost model sends it to the DFA tier.
        rng = random.Random(42)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        words = [
            "".join(rng.choice(alphabet) for _ in range(6)) for _ in range(12)
        ]
        patterns = [f"{w[:3]}{w[3]}*{w[4:]}" for w in words]
        ruleset = compile_ruleset(patterns)
        modes = [r.mode for r in ruleset]
        assert CompiledMode.DFA in modes
        assert modes.count(CompiledMode.DFA) >= len(patterns) // 2

    def test_engine_mode_knob_routes_compiles(self, monkeypatch):
        monkeypatch.delenv(MODE_ENV, raising=False)
        engine = BatchEngine(EngineConfig(use_cache=False, mode="nfa"))
        ruleset = engine.compile(["ab*c", "needle"])
        assert all(r.mode is CompiledMode.NFA for r in ruleset)
        # Env route: auto defers to RAP_MODE.
        monkeypatch.setenv(MODE_ENV, "dfa")
        engine = BatchEngine(EngineConfig(use_cache=False))
        ruleset = engine.compile(["ab*c", "needle"])
        assert all(r.mode is CompiledMode.DFA for r in ruleset)

    def test_engine_mode_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="warp-speed")

    def test_explain_reports_choice_and_costs(self, monkeypatch):
        monkeypatch.delenv(MODE_ENV, raising=False)
        engine = BatchEngine(EngineConfig(use_cache=False))
        entries = engine.explain(["ab*c", "needle", "a(b"])
        by_pattern = {e.pattern: e for e in entries}
        star = by_pattern["ab*c"]
        assert star.trace.mode is CompiledMode.DFA
        assert star.trace.costs["dfa"] < star.trace.costs["nfa"]
        assert by_pattern["needle"].trace.mode is CompiledMode.LNFA
        assert by_pattern["a(b"].error is not None
