"""BVAP baseline simulator (Wen et al., ASPLOS 2024).

BVAP is the SotA accelerator dedicated to bounded repetitions: CAMA-style
tiles hold the control states, and fixed-size Bit Vector Modules (BVMs) —
dedicated BV SRAM plus a semi-parallel multi-bit routing switch (MFCB) —
execute the bit-vector actions.  Two structural differences against
RAP's NBVA mode drive the paper's comparison:

* **fixed allocation**: every BV occupies one or more fixed 256-bit slots
  and BVMs come in fixed 8-slot modules, so workloads with small or few
  bit vectors strand capacity (the area overhead of Table 2);
* **dedicated datapath**: the BVM pipeline is cheaper per BV update than
  RAP's repurposed CAM columns (the ~20% energy edge of Table 2), and its
  bit-vector phase has a fixed latency instead of RAP's chosen depth.

BVAP executes the same NBVA-compiled rulesets as RAP (it was the paper
whose compiler RAP inherits); plain-NFA regexes are also accepted and run
on the CAMA-style portion with the BVM idle — the underutilization the
reconfigurable design eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.core.trace import ActivityTrace
from repro.hardware.circuits import BVAP_CLOCK_GHZ, TABLE1, CircuitLibrary
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.hardware.encoding import codes_needed
from repro.hardware.energy import EnergyLedger
from repro.simulators.asic_base import cama_params, shared_trace
from repro.simulators.result import SimulationResult

# Fixed BVM provisioning (the inflexibility the paper contrasts with
# RAP's dynamic allocation): one module is physically attached per
# TILES_PER_BVM tiles whether or not the workload uses it, and extra
# modules are provisioned when counting demand exceeds the attached ones.
BV_SLOT_BITS = 256
SLOTS_PER_BVM = 8
TILES_PER_BVM = 1
BV_PHASE_CYCLES = 8  # fixed bit-vector-processing pipeline latency


@dataclass
class _BvapDemand:
    """Structural needs of one regex on BVAP.

    Control states pack into CAM columns shared across regexes (the
    CAMA packing); only the column count matters for placement.
    """

    cc_columns: int
    bv_slots: int


def bvap_demand(compiled: CompiledRegex, hw: HardwareConfig) -> _BvapDemand:
    """One regex's CAM-column and BV-slot needs on BVAP."""
    assert compiled.automaton is not None
    cc_columns = sum(
        codes_needed(pos.cc) for pos in compiled.automaton.positions
    )
    slots = 0
    for group in compiled.automaton.groups:
        per_position = -(-group.width // BV_SLOT_BITS)
        slots += per_position * len(group.positions)
    return _BvapDemand(cc_columns=cc_columns, bv_slots=slots)


class BVAPSimulator:
    """Cycle-level BVAP simulation."""

    def __init__(
        self,
        hw: HardwareConfig = DEFAULT_CONFIG,
        circuits: CircuitLibrary = TABLE1,
    ):
        import dataclasses

        self.hw = hw
        self.circuits = circuits
        # BVAP's control path sits between CAMA's single-mode sequencer
        # and RAP's reconfiguration controller: it manages the event-
        # driven bit-vector phase, its three-stage pipeline, and the
        # two-level input buffering (Section 2.2).
        base = cama_params(circuits)
        self.params = dataclasses.replace(
            base,
            name="BVAP",
            local_ctrl_pj=1.5,
            global_ctrl_pj=2.0,
            tile_area_um2=base.tile_area_um2 + 1200.0,
            tile_leak_uw=base.tile_leak_uw + 10.0,
        )
        # One BVM: BV SRAM bank + semi-parallel MFCB routing switch +
        # sequencing.  The MFCB is a multi-bit crossbar over the slots and
        # dominates the module (modeled as half a 256x256 FCB).
        self.bvm_area_um2 = (
            circuits.sram_128.area_um2 + circuits.sram_256.area_um2 * 0.5 + 500.0
        )
        self.bvm_leak_uw = (
            circuits.sram_128.leakage_ua + circuits.sram_256.leakage_ua * 0.5
        ) * 0.9
        self.bvm_idle_pj = 0.5  # per module per cycle (clocking/precharge)

    def run(
        self,
        ruleset: CompiledRuleset,
        data: bytes,
        trace: ActivityTrace | None = None,
    ) -> SimulationResult:
        """Simulate the ruleset on BVAP over ``data``.

        ``trace`` optionally shares functional scans with the other
        architectures' runs over the same input.
        """
        for regex in ruleset:
            if regex.mode is CompiledMode.LNFA:
                raise ValueError("BVAP has no LNFA mode; compile to NFA/NBVA")
        ledger = EnergyLedger()
        matches: dict[int, list[int]] = {}
        n = len(data)

        demands = {r.regex_id: bvap_demand(r, self.hw) for r in ruleset}
        trace = shared_trace(data, trace)
        activities = {
            r.regex_id: trace.regex_activity(r) for r in ruleset
        }
        for activity in activities.values():
            matches[activity.regex_id] = activity.matches

        # First-fit array packing by CAM-column demand (a regex stays in
        # one array); columns pool across regexes like CAMA tiles do.
        array_columns = self.hw.tiles_per_array * self.hw.cam_cols
        arrays: list[list[int]] = []
        room: list[int] = []
        order = sorted(ruleset, key=lambda r: -demands[r.regex_id].cc_columns)
        for regex in order:
            need = demands[regex.regex_id].cc_columns
            if need > array_columns:
                raise ValueError(
                    f"regex {regex.regex_id} needs {need} columns on BVAP"
                )
            for idx in range(len(arrays)):
                if room[idx] >= need:
                    arrays[idx].append(regex.regex_id)
                    room[idx] -= need
                    break
            else:
                arrays.append([regex.regex_id])
                room.append(array_columns - need)

        p = self.params
        worst_cycles = n
        total_stalls = 0
        compiled_by_id = {r.regex_id: r for r in ruleset}
        for members in arrays:
            columns = sum(demands[rid].cc_columns for rid in members)
            tiles = max(1, -(-columns // self.hw.cam_cols))
            slots = sum(demands[rid].bv_slots for rid in members)
            # Physically attached modules plus any demand overflow; idle
            # modules cost area and leakage but are power-gated.
            attached = -(-tiles // TILES_PER_BVM)
            modules = max(attached, -(-slots // SLOTS_PER_BVM) if slots else 0)
            active_modules = -(-slots // SLOTS_PER_BVM) if slots else 0

            overhead_units = tiles / self.hw.tiles_per_array
            ledger.add_area("tile", p.tile_area_um2, tiles)
            ledger.add_area(
                "array-overhead", p.array_overhead_um2, overhead_units
            )
            ledger.add_area("bvm", self.bvm_area_um2, modules)
            ledger.add_leakage("tile", p.tile_leak_uw, tiles)
            ledger.add_leakage(
                "array-overhead", p.array_leak_uw, overhead_units
            )
            ledger.add_leakage("bvm", self.bvm_leak_uw, modules)

            mean_act = 0.0
            total_states = 0
            for rid in members:
                activity = activities[rid]
                compiled = compiled_by_id[rid]
                mean_act += activity.mean_activity
                total_states += max(compiled.states, 1)
                # Dedicated BVM pipeline per triggering cycle.
                slot_frac = min(
                    1.0, demands[rid].bv_slots / SLOTS_PER_BVM
                ) if demands[rid].bv_slots else 0.0
                per_phase = BV_PHASE_CYCLES * (
                    2 * self.circuits.sram_128.energy(slot_frac * 0.3)
                    + self.circuits.sram_128.energy(slot_frac * 0.3)
                )
                ledger.charge("bv-processing", per_phase, activity.bv_phase_cycles)
            act = min(1.0, mean_act / total_states) if total_states else 0.0

            ledger.charge("state-matching", p.match_pj, n * tiles)
            ledger.charge("state-transition", p.switch_pj(act), n * tiles)
            ledger.charge("local-control", p.local_ctrl_pj, n * tiles)
            ledger.charge("global-control", p.global_ctrl_pj, n)
            ledger.charge("bvm-idle", self.bvm_idle_pj, n * active_modules)

            stalls = BV_PHASE_CYCLES * trace.stall_cycles(
                compiled_by_id[rid] for rid in members
            )
            total_stalls += stalls
            worst_cycles = max(worst_cycles, n + stalls)

        metrics = ledger.metrics(
            cycles=worst_cycles, input_symbols=n, clock_ghz=BVAP_CLOCK_GHZ
        )
        return SimulationResult(
            architecture="BVAP",
            metrics=metrics,
            matches=matches,
            energy_breakdown_pj=ledger.energy_breakdown(),
            area_breakdown_um2=ledger.area_breakdown(),
            stall_cycles=total_stalls,
            arrays=len(arrays),
            tiles=max(
                1,
                -(
                    -sum(d.cc_columns for d in demands.values())
                    // self.hw.cam_cols
                ),
            )
            if demands
            else 0,
        )
