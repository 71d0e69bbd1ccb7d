"""Unit tests for the shared AP-style cost machinery."""

import pytest

from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
from repro.hardware.circuits import TABLE1
from repro.hardware.energy import EnergyLedger
from repro.mapping.mapper import map_ruleset
from repro.simulators.asic_base import (
    ApStyleSimulator,
    ArrayGeometry,
    cama_params,
    rap_nfa_params,
    rap_tile_area,
)


class TestArchParams:
    def test_switch_interpolation(self):
        params = cama_params()
        assert params.switch_pj(0.0) == pytest.approx(1.0)
        assert params.switch_pj(1.0) == pytest.approx(14.0)
        assert params.switch_pj(0.5) == pytest.approx(7.5)

    def test_switch_clamps_out_of_range(self):
        params = cama_params()
        assert params.switch_pj(2.0) == pytest.approx(14.0)
        assert params.switch_pj(-1.0) == pytest.approx(1.0)

    def test_gswitch_interpolation(self):
        params = cama_params()
        assert params.gswitch_pj(0.0) == pytest.approx(2.0)
        assert params.gswitch_pj(1.0) == pytest.approx(55.0)

    def test_rap_tile_area_components(self):
        expected = (
            TABLE1.cam.area_um2
            + TABLE1.sram_128.area_um2
            + TABLE1.local_controller.area_um2
        )
        assert rap_tile_area() == pytest.approx(expected)

    def test_rap_pays_more_control_than_cama(self):
        rap = rap_nfa_params()
        cama = cama_params()
        assert rap.local_ctrl_pj > cama.local_ctrl_pj
        assert rap.tile_area_um2 > cama.tile_area_um2
        assert rap.clock_ghz < cama.clock_ghz  # 2.08 vs 2.14


class TestChargingHelpers:
    def ruleset_and_mapping(self):
        ruleset = compile_ruleset(
            ["abcd", "efgh"], CompilerConfig(forced_mode=CompiledMode.NFA)
        )
        return ruleset, map_ruleset(ruleset)

    def test_charge_array_structure_flags(self):
        ruleset, mapping = self.ruleset_and_mapping()
        sim = ApStyleSimulator(cama_params())
        with_overhead = EnergyLedger()
        sim.charge_array_structure(with_overhead, mapping.arrays[0])
        without = EnergyLedger()
        sim.charge_array_structure(
            without, mapping.arrays[0], include_overhead=False
        )
        assert with_overhead.area_um2 > without.area_um2
        assert "array-overhead" not in without.area_breakdown()

    def test_overhead_units_proportional(self):
        sim = ApStyleSimulator(cama_params())
        small, large = EnergyLedger(), EnergyLedger()
        sim.charge_overhead_units(small, 4)
        sim.charge_overhead_units(large, 8)
        assert large.area_um2 == pytest.approx(2 * small.area_um2)

    def test_mean_activity_bounded(self):
        from repro.simulators.activity import collect_regex_activity

        ruleset, mapping = self.ruleset_and_mapping()
        data = b"abcdefgh" * 50
        activities = {
            r.regex_id: collect_regex_activity(r, data) for r in ruleset
        }
        compiled = {r.regex_id: r for r in ruleset}
        geometry = ArrayGeometry.of(mapping.arrays[0], compiled, mapping.hw)
        mean = {rid: a.mean_activity for rid, a in activities.items()}
        assert 0.0 <= geometry.mean_activity(mean) <= 1.0

    def test_run_rejects_mixed_modes(self):
        mixed = compile_ruleset(["ab{40}c"], CompilerConfig())
        sim = ApStyleSimulator(cama_params())
        with pytest.raises(ValueError):
            sim.run(mixed, b"data")
