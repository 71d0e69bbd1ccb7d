"""Merge algebra: the associative combinators the engine's shards rely on."""

import pytest

from repro.automata.nfa import StepStats
from repro.hardware.energy import EnergyLedger, Metrics
from repro.simulators.result import ArrayReport, SimulationResult


def ledger(**charges) -> EnergyLedger:
    led = EnergyLedger()
    for comp, pj in charges.items():
        led.charge(comp, pj)
    return led


class TestEnergyLedgerAdd:
    def test_componentwise_sum(self):
        merged = ledger(cam=2.0, switch=1.0) + ledger(cam=3.0, bv=0.5)
        assert merged.energy_breakdown() == {
            "cam": 5.0,
            "switch": 1.0,
            "bv": 0.5,
        }

    def test_operands_untouched(self):
        a, b = ledger(cam=2.0), ledger(cam=3.0)
        a + b
        assert a.energy_pj == 2.0
        assert b.energy_pj == 3.0

    def test_associative(self):
        a, b, c = ledger(cam=1.0), ledger(cam=2.0, bv=1.0), ledger(bv=4.0)
        left = (a + b) + c
        right = a + (b + c)
        assert left.energy_breakdown() == right.energy_breakdown()

    def test_area_and_leakage_accumulate(self):
        a, b = EnergyLedger(), EnergyLedger()
        a.add_area("tile", 10.0)
        b.add_area("tile", 5.0)
        b.add_leakage("tile", 2.0)
        merged = a + b
        assert merged.area_um2 == 15.0
        assert merged.leakage_w == 2.0 * 1e-6

    def test_non_ledger_rejected(self):
        with pytest.raises(TypeError):
            EnergyLedger() + 3


class TestMetricsMerge:
    def test_accumulates_work_keeps_hardware(self):
        a = Metrics(1.0, 2.0, 100, 100, 1.0, leakage_w=0.5)
        b = Metrics(3.0, 1.5, 50, 50, 1.0, leakage_w=0.7)
        m = a + b
        assert m.energy_uj == 4.0
        assert m.cycles == 150
        assert m.input_symbols == 150
        assert m.area_mm2 == 2.0  # shared hardware: max, not sum
        assert m.leakage_w == 0.7

    def test_clock_mismatch_rejected(self):
        a = Metrics(1.0, 1.0, 1, 1, 1.0)
        b = Metrics(1.0, 1.0, 1, 1, 2.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_associative(self):
        ms = [Metrics(float(i), i, i, i, 1.0) for i in range(1, 4)]
        left = (ms[0] + ms[1]) + ms[2]
        right = ms[0] + (ms[1] + ms[2])
        assert left == right


class TestStepStatsMerge:
    def test_integer_exact(self):
        a = StepStats(cycles=3, active_states=5, matched_states=2, reports=1)
        b = StepStats(cycles=1, active_states=1, matched_states=4, reports=0)
        m = a + b
        assert m == StepStats(
            cycles=4, active_states=6, matched_states=6, reports=1
        )


def result(matches, energy=1.0, cycles=10, reports=()) -> SimulationResult:
    return SimulationResult(
        architecture="RAP",
        metrics=Metrics(energy, 1.0, cycles, cycles, 1.0),
        matches=matches,
        energy_breakdown_pj={"cam": energy},
        area_breakdown_um2={"tile": 2.0},
        stall_cycles=1,
        arrays=2,
        tiles=3,
        array_reports=tuple(reports),
    )


class TestSimulationResultMerge:
    def test_matches_union_sorted(self):
        a = result({0: [3, 9], 1: [2]})
        b = result({0: [1, 9], 2: [5]})
        m = a + b
        assert m.matches == {0: [1, 3, 9], 1: [2], 2: [5]}

    def test_work_accumulates(self):
        m = result({}) + result({})
        assert m.metrics.cycles == 20
        assert m.stall_cycles == 2
        assert m.energy_breakdown_pj == {"cam": 2.0}
        assert m.area_breakdown_um2 == {"tile": 2.0}  # max, not sum
        assert (m.arrays, m.tiles) == (2, 3)

    def test_reports_concatenate(self):
        report = ArrayReport("NFA", 1, 10, 0, 1.0)
        m = result({}, reports=[report]) + result({}, reports=[report])
        assert m.array_reports == (report, report)

    def test_architecture_mismatch_rejected(self):
        other = SimulationResult(
            architecture="CAMA", metrics=Metrics(0.0, 0.0, 0, 0, 1.0)
        )
        with pytest.raises(ValueError):
            result({}).merge(other)

    def test_associative(self):
        shards = [
            result({0: [1]}),
            result({0: [2], 1: [7]}),
            result({1: [3]}),
        ]
        left = (shards[0] + shards[1]) + shards[2]
        right = shards[0] + (shards[1] + shards[2])
        assert left == right
