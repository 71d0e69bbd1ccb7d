"""Fault-plan tests: parsing, resolution precedence, deterministic firing."""

import pickle

import pytest

from repro.engine import faults
from repro.engine.faults import (
    FAULT_PLAN_ENV,
    FaultDirective,
    FaultPlan,
)
from repro.errors import WorkerCrashError


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    """Every test starts with no installed plan and no env plan."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestPlanParsing:
    def test_compact_single(self):
        plan = FaultPlan.parse("crash@3")
        assert plan.directives == (FaultDirective("crash", index=3),)

    def test_compact_full_coordinates(self):
        plan = FaultPlan.parse("hang@1:2*0.25")
        (d,) = plan.directives
        assert (d.kind, d.index, d.attempt, d.seconds) == ("hang", 1, 2, 0.25)

    def test_compact_multi_with_either_separator(self):
        semi = FaultPlan.parse("crash@0;error@1:1")
        comma = FaultPlan.parse("crash@0, error@1:1")
        assert semi == comma
        assert [d.kind for d in semi.directives] == ["crash", "error"]

    def test_json_form(self):
        plan = FaultPlan.parse(
            '[{"kind": "truncate_cache", "index": 1}, {"kind": "pickle"}]'
        )
        assert plan.directives[0].kind == "truncate_cache"
        assert plan.directives[1] == FaultDirective("pickle")

    def test_spec_round_trips(self):
        plan = FaultPlan.parse("crash@0;hang@1:0*2.5;error@2:1;pickle@3")
        assert FaultPlan.parse(plan.spec()) == plan

    def test_empty_specs(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")
        assert FaultPlan.parse(FaultPlan()) == FaultPlan()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("meltdown@0")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")


class TestPlanLookup:
    def test_for_unit_is_exact_coordinate(self):
        plan = FaultPlan.parse("error@2:1")
        assert plan.for_unit(2, 1) is not None
        assert plan.for_unit(2, 0) is None
        assert plan.for_unit(1, 1) is None

    def test_cache_kinds_never_match_units(self):
        plan = FaultPlan.parse("truncate_cache@0")
        assert plan.for_unit(0, 0) is None
        assert plan.for_cache_put(0) is not None
        assert plan.for_cache_put(1) is None


class TestResolution:
    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0")
        assert faults.plan_from_env().directives[0].kind == "crash"
        assert faults.resolve_plan(None) == faults.plan_from_env()

    def test_explicit_empty_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0")
        assert not faults.resolve_plan("")

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0")
        faults.install_plan("error@5")
        assert faults.active_plan().directives[0].kind == "error"
        # An explicitly installed *empty* plan disables env injection.
        faults.install_plan("")
        assert not faults.active_plan()
        faults.reset()
        assert faults.active_plan().directives[0].kind == "crash"


class TestInjection:
    def test_no_directive_is_a_noop(self):
        faults.inject_unit(0, 0, plan=FaultPlan.parse("crash@7"))

    def test_in_process_crash_is_an_exception(self):
        # A worker would os._exit; in-process the crash must stay
        # parent-safe and raise the structured error instead.
        with pytest.raises(WorkerCrashError) as info:
            faults.inject_unit(
                3, 1, plan=FaultPlan.parse("crash@3:1"), in_process=True
            )
        assert info.value.unit == 3

    def test_error_and_pickle_kinds(self):
        with pytest.raises(RuntimeError):
            faults.inject_unit(0, 0, plan=FaultPlan.parse("error@0"))
        with pytest.raises(pickle.PicklingError):
            faults.inject_unit(0, 0, plan=FaultPlan.parse("pickle@0"))

    def test_hang_returns_after_sleeping(self):
        faults.inject_unit(0, 0, plan=FaultPlan.parse("hang@0*0.001"))

    def test_cache_truncation_fires_at_exact_ordinal(self, tmp_path):
        faults.install_plan("truncate_cache@1")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        first.write_bytes(b"x" * 100)
        second.write_bytes(b"y" * 100)
        faults.inject_cache_put(first)  # ordinal 0: untouched
        faults.inject_cache_put(second)  # ordinal 1: truncated
        assert first.read_bytes() == b"x" * 100
        assert second.read_bytes() == b"y" * 50


class TestPlanHardening:
    """The parse DSL rejects malformed directives with structured errors
    that name the offending directive."""

    @pytest.mark.parametrize(
        "spec",
        ["crash@0*0", "hang@1*-2", "kill@0*0", "hang@1:0*-0.5"],
    )
    def test_nonpositive_seconds_rejected(self, spec):
        with pytest.raises(ValueError) as info:
            FaultPlan.parse(spec)
        message = str(info.value)
        assert "must be > 0" in message
        assert spec.split("*")[0] in message  # names the directive

    @pytest.mark.parametrize("spec", ["meltdown@0", "kil@1", "krash@2:1"])
    def test_unknown_kind_names_directive(self, spec):
        with pytest.raises(ValueError) as info:
            FaultPlan.parse(spec)
        assert spec.split("@")[0] in str(info.value)

    @pytest.mark.parametrize(
        "spec", ["crash@-1", "crash@x", "crash@", "@0", "crash@0:-1"]
    )
    def test_malformed_coordinates_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_json_unknown_field_rejected(self):
        with pytest.raises(ValueError) as info:
            FaultPlan.parse('[{"kind": "crash", "banana": 1}]')
        assert "banana" in str(info.value)

    def test_json_non_object_entry_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse('["crash@0"]')

    def test_json_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse('[{"kind": "hang", "seconds": -1}]')

    def test_new_kinds_parse(self):
        plan = FaultPlan.parse("kill@2")
        assert [d.kind for d in plan.directives] == ["kill"]
        assert FaultPlan.parse(plan.spec()) == plan
        # A torn or full disk is a test-side shim of the persistence
        # calls now (tests/engine/test_checkpoint.py), not a plan kind.
        for gone in ("torn_checkpoint@1", "disk_full@0"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultPlan.parse(gone)


class TestCheckpointInjection:
    def test_chunk_noop_without_directive(self):
        faults.inject_chunk(0, FaultPlan.parse("kill@5"))


class TestConnectionKinds:
    """Connection-level fault kinds for the scan service soak tests."""

    def test_conn_kinds_parse_and_round_trip(self):
        plan = FaultPlan.parse("disconnect@3;stall@10*0.2;garbage@7;reload@13")
        assert [d.kind for d in plan.directives] == [
            "disconnect",
            "stall",
            "garbage",
            "reload",
        ]
        assert FaultPlan.parse(plan.spec()) == plan

    def test_stall_spec_keeps_the_duration(self):
        plan = FaultPlan.parse("stall@2*0.25")
        assert plan.spec() == "stall@2:0*0.25"
        (d,) = plan.directives
        assert d.seconds == 0.25

    def test_for_conn_matches_the_segment_ordinal(self):
        plan = FaultPlan.parse("disconnect@3;kill@3;garbage@7")
        hit = plan.for_conn(3)
        assert hit is not None and hit.kind == "disconnect"
        assert plan.for_conn(2) is None
        assert plan.for_conn(7).kind == "garbage"
        # The engine-level kind at the same index stays engine-level.
        assert plan.for_chunk(3).kind == "kill"

    def test_conn_kinds_never_fire_at_engine_sites(self):
        plan = FaultPlan.parse("disconnect@0;stall@0*0.1;garbage@0;reload@0")
        assert plan.for_unit(0, 0) is None
        assert plan.for_chunk(0) is None
        assert plan.for_cache_put(0) is None


class TestFleetKinds:
    """Worker-level fault kinds for the fleet supervisor chaos tests."""

    def test_fleet_kinds_parse_and_round_trip(self):
        plan = FaultPlan.parse("killworker@4;wedge@9")
        assert [d.kind for d in plan.directives] == ["killworker", "wedge"]
        assert FaultPlan.parse(plan.spec()) == plan

    def test_fleet_kinds_are_registered(self):
        for kind in faults.FLEET_KINDS:
            assert kind in faults.ALL_KINDS

    def test_for_fleet_tick_matches_the_health_ordinal(self):
        plan = FaultPlan.parse("killworker@4;wedge@9;disconnect@4")
        hit = plan.for_fleet_tick(4)
        assert hit is not None and hit.kind == "killworker"
        assert plan.for_fleet_tick(9).kind == "wedge"
        assert plan.for_fleet_tick(5) is None
        # The connection-level kind at the same index stays put.
        assert plan.for_conn(4).kind == "disconnect"

    def test_fleet_kinds_never_fire_at_other_sites(self):
        plan = FaultPlan.parse("killworker@0;wedge@0")
        assert plan.for_unit(0, 0) is None
        assert plan.for_chunk(0) is None
        assert plan.for_conn(0) is None
