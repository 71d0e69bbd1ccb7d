"""Shared machinery for AP-style in-memory automata processor simulators.

Every architecture in the evaluation (RAP, CAMA, CA, BVAP) executes the
same two-phase loop — state matching against a memory of character
classes, state transition through routing switches (Section 2.2) — and is
priced with the same Table 1 circuit models (Section 5.2: "all other
automata processor architectures ... are simulated with the same circuit
model and simulator").  What differs is the microarchitectural cost
structure: per-tile match energy, switch geometry, controller overheads,
clock frequency, and mode support.  :class:`ArchParams` captures those
differences; :class:`ApStyleSimulator` implements the common flow for
plain NFA execution, which CAMA and CA use directly and RAP/BVAP extend.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.compiler.program import CompiledMode, CompiledRuleset
from repro.core.trace import ActivityTrace
from repro.hardware.circuits import TABLE1, CircuitLibrary
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.hardware.energy import EnergyLedger
from repro.mapping.mapper import Mapping, map_ruleset
from repro.mapping.resources import ArrayBuilder
from repro.simulators.result import SimulationResult


def shared_trace(data: bytes, trace: ActivityTrace | None) -> ActivityTrace:
    """The trace to collect activity through: the caller's shared one
    (validated against ``data``) or a fresh private one."""
    if trace is None:
        return ActivityTrace(data)
    if trace.data is not data and trace.data != data:
        raise ValueError("shared ActivityTrace was built over different data")
    return trace


@dataclass(frozen=True)
class ArchParams:
    """Cost structure of one AP-style architecture."""

    name: str
    clock_ghz: float
    # state matching: energy per tile per cycle at full column enablement
    match_pj: float
    # local switch access energy bounds (activity-interpolated)
    switch_min_pj: float
    switch_max_pj: float
    # controllers
    local_ctrl_pj: float
    global_ctrl_pj: float
    # area per tile and per array (um^2)
    tile_area_um2: float
    array_overhead_um2: float
    # leakage per tile and per array (uW)
    tile_leak_uw: float
    array_leak_uw: float
    # global switch access bounds per array-cycle
    gswitch_min_pj: float
    gswitch_max_pj: float
    # wire energy charged per cross-tile signal event
    wire_pj: float

    def switch_pj(self, activity: float) -> float:
        """Local-switch access energy at an activity level."""
        activity = min(max(activity, 0.0), 1.0)
        return self.switch_min_pj + (self.switch_max_pj - self.switch_min_pj) * activity

    def gswitch_pj(self, activity: float) -> float:
        """Global-switch access energy at an activity level."""
        activity = min(max(activity, 0.0), 1.0)
        return self.gswitch_min_pj + (
            self.gswitch_max_pj - self.gswitch_min_pj
        ) * activity


def rap_tile_area(circuits: CircuitLibrary = TABLE1) -> float:
    """A RAP tile: 32x128 CAM + 128x128 FCB + full local controller."""
    return (
        circuits.cam.area_um2
        + circuits.sram_128.area_um2
        + circuits.local_controller.area_um2
    )


def cama_params(circuits: CircuitLibrary = TABLE1) -> ArchParams:
    """CAMA: the CAM-based baseline RAP builds on.

    Same CAM and switch fabric as a RAP tile but with a far simpler,
    single-mode controller (the paper attributes RAP's NFA-mode overhead
    to its reconfiguration controller).
    """
    from repro.hardware.circuits import CAMA_CLOCK_GHZ

    simple_ctrl_area = 1000.0  # single-mode sequencing only
    return ArchParams(
        name="CAMA",
        clock_ghz=CAMA_CLOCK_GHZ,
        match_pj=circuits.cam.energy(),
        switch_min_pj=circuits.sram_128.energy_min_pj,
        switch_max_pj=circuits.sram_128.energy_max_pj,
        local_ctrl_pj=0.5,
        global_ctrl_pj=1.0,
        tile_area_um2=circuits.cam.area_um2
        + circuits.sram_128.area_um2
        + simple_ctrl_area,
        array_overhead_um2=circuits.sram_256.area_um2 + 700.0,
        tile_leak_uw=(circuits.cam.leakage_ua + circuits.sram_128.leakage_ua)
        * 0.9,
        array_leak_uw=circuits.sram_256.leakage_ua * 0.9,
        gswitch_min_pj=circuits.sram_256.energy_min_pj,
        gswitch_max_pj=circuits.sram_256.energy_max_pj,
        wire_pj=circuits.global_wire_mm.energy() * 0.5,
    )


def rap_nfa_params(circuits: CircuitLibrary = TABLE1) -> ArchParams:
    """RAP running plain NFAs: CAMA's loop plus the reconfigurable
    controllers (the source of the RegexLib regression in Fig. 12)."""
    from repro.hardware.circuits import RAP_CLOCK_GHZ

    return ArchParams(
        name="RAP-NFA",
        clock_ghz=RAP_CLOCK_GHZ,
        match_pj=circuits.cam.energy(),
        switch_min_pj=circuits.sram_128.energy_min_pj,
        switch_max_pj=circuits.sram_128.energy_max_pj,
        local_ctrl_pj=circuits.local_controller.energy(),
        global_ctrl_pj=circuits.global_controller.energy(),
        tile_area_um2=rap_tile_area(circuits),
        array_overhead_um2=circuits.sram_256.area_um2
        + circuits.global_controller.area_um2,
        tile_leak_uw=(
            circuits.cam.leakage_ua
            + circuits.sram_128.leakage_ua
            + circuits.local_controller.leakage_ua
        )
        * 0.9,
        array_leak_uw=(
            circuits.sram_256.leakage_ua + circuits.global_controller.leakage_ua
        )
        * 0.9,
        gswitch_min_pj=circuits.sram_256.energy_min_pj,
        gswitch_max_pj=circuits.sram_256.energy_max_pj,
        wire_pj=circuits.global_wire_mm.energy() * 0.5,
    )


class ApStyleSimulator:
    """Common NFA-execution flow for AP-style architectures."""

    def __init__(
        self,
        params: ArchParams,
        hw: HardwareConfig = DEFAULT_CONFIG,
    ):
        self.params = params
        self.hw = hw

    # -- public API --------------------------------------------------------

    def run(
        self,
        ruleset: CompiledRuleset,
        data: bytes,
        mapping: Mapping | None = None,
        trace: ActivityTrace | None = None,
    ) -> SimulationResult:
        """Simulate a pure-NFA ruleset (CAMA / CA usage).

        ``trace`` optionally shares one :class:`ActivityTrace` across
        architectures so the functional scan runs once and every design
        is priced from the same events (the fig12 flow).
        """
        for regex in ruleset:
            if regex.mode is not CompiledMode.NFA:
                raise ValueError(
                    f"{self.params.name} executes NFAs only; regex "
                    f"{regex.regex_id} is {regex.mode.value}"
                )
        mapping = mapping or map_ruleset(ruleset, self.hw)
        ledger = EnergyLedger()
        matches: dict[int, list[int]] = {}
        trace = shared_trace(data, trace)
        activities = {
            regex.regex_id: trace.regex_activity(regex) for regex in ruleset
        }
        compiled_by_id = {r.regex_id: r for r in ruleset}
        mean = {rid: a.mean_activity for rid, a in activities.items()}
        for activity in activities.values():
            matches[activity.regex_id] = activity.matches
        cycles = len(data)
        for array in mapping.arrays:
            self.charge_array_structure(ledger, array, include_overhead=False)
            geometry = ArrayGeometry.of(array, compiled_by_id, self.hw)
            self.charge_nfa_array_energy(ledger, geometry, mean, cycles)
        self.charge_overhead_units(ledger, mapping.total_tiles)
        metrics = ledger.metrics(
            cycles=cycles, input_symbols=len(data), clock_ghz=self.params.clock_ghz
        )
        return SimulationResult(
            architecture=self.params.name,
            metrics=metrics,
            matches=matches,
            energy_breakdown_pj=ledger.energy_breakdown(),
            area_breakdown_um2=ledger.area_breakdown(),
            arrays=mapping.total_arrays,
            tiles=mapping.total_tiles,
        )

    # -- shared charging helpers -------------------------------------------

    def charge_array_structure(
        self,
        ledger: EnergyLedger,
        array: "ArrayBuilder | ArrayGeometry",
        *,
        include_overhead: bool = True,
    ) -> None:
        """Charge one array's tiles (and optionally overhead)."""
        p = self.params
        tiles = array.tiles_used
        ledger.add_area("tile", p.tile_area_um2, tiles)
        ledger.add_leakage("tile", p.tile_leak_uw, tiles)
        if include_overhead:
            ledger.add_area("array-overhead", p.array_overhead_um2, 1)
            ledger.add_leakage("array-overhead", p.array_leak_uw, 1)

    def charge_overhead_units(self, ledger: EnergyLedger, tiles: int) -> None:
        """Array-level structures (global switch, controller, wiring),
        charged proportionally to the tiles actually occupied.

        The paper reports fractional per-workload areas (e.g. 0.63 mm^2,
        not a multiple of a full array), i.e. it accounts the resources a
        workload occupies rather than whole provisioned arrays; we do the
        same so small workloads are not dominated by array granularity.
        """
        p = self.params
        units = tiles / self.hw.tiles_per_array
        ledger.add_area("array-overhead", p.array_overhead_um2, units)
        ledger.add_leakage("array-overhead", p.array_leak_uw, units)

    def tile_switch_activity(
        self, tile: "TileGeometry", mean: dict[int, float]
    ) -> float:
        """Mean fraction of this tile's switch rows driven per cycle
        (``mean``: each regex's mean active states per cycle)."""
        driven = 0.0
        for regex_id, share in tile.occupants:
            driven += mean[regex_id] * share
        return driven / self.hw.local_switch_dim

    def charge_nfa_array_energy(
        self,
        ledger: EnergyLedger,
        array: "ArrayGeometry",
        mean: dict[int, float],
        cycles: int,
        *,
        charge_gctrl: bool = True,
        match_pj: Sequence[float] | None = None,
    ) -> None:
        """Per-cycle matching/transition/control energy of one NFA array
        (``match_pj``: per tile its matching energy, by default every
        column's)."""
        p = self.params
        if match_pj is None:
            match_pj = [p.match_pj] * len(array.tiles)
        for tile, tile_match_pj in zip(array.tiles, match_pj):
            act = self.tile_switch_activity(tile, mean)
            ledger.charge("state-matching", tile_match_pj, cycles)
            ledger.charge("state-transition", p.switch_pj(act), cycles)
            ledger.charge("local-control", p.local_ctrl_pj, cycles)
        if charge_gctrl:
            ledger.charge("global-control", p.global_ctrl_pj, cycles)
        self.charge_global_switch(ledger, array, mean, cycles)

    def charge_global_switch(
        self,
        ledger: EnergyLedger,
        array: "ArrayGeometry",
        mean: dict[int, float],
        cycles: int,
    ) -> None:
        """The array's global switch and wires, driven by its ports."""
        ports_used = array.ports
        if ports_used:
            p = self.params
            port_frac = ports_used / self.hw.global_switch_dim
            mean_act = array.mean_activity(mean)
            ledger.charge(
                "global-switch", p.gswitch_pj(port_frac * mean_act), cycles
            )
            ledger.charge(
                "global-wire", p.wire_pj * ports_used * mean_act, cycles
            )


@dataclass(frozen=True)
class TileGeometry:
    """What pricing reads of one NFA/NBVA tile: its occupants as
    ``(regex id, share of that regex's states)``, its global-switch ports
    and the share of its CAM columns holding character classes (those an
    NBVA tile enables while matching)."""

    occupants: tuple[tuple[int, float], ...]
    ports: int
    cc_frac: float


@dataclass(frozen=True)
class ArrayGeometry:
    """What pricing reads of one mapped NFA/NBVA array but the activity,
    derived once per mapping.  ``regex_ids`` keeps the array's own (set)
    iteration order, so sums over it add in the order they always did;
    ``depth`` is the last BV depth a tile set."""

    tiles: tuple[TileGeometry, ...]
    tiles_used: int
    regex_ids: tuple[int, ...]
    states: int  # sum over regex_ids of max(states, 1)
    ports: int
    depth: int | None

    @classmethod
    def of(
        cls, array: ArrayBuilder, compiled_by_id, hw: HardwareConfig
    ) -> "ArrayGeometry":
        tiles = tuple(
            TileGeometry(
                occupants=tuple(
                    (rid, request.states / max(compiled_by_id[rid].states, 1))
                    for rid, request in tile.occupants
                ),
                ports=tile.ports,
                cc_frac=(tile.columns - tile.bv_columns) / hw.cam_cols,
            )
            for tile in array.tiles
        )
        depths = [tile.depth for tile in array.tiles if tile.depth is not None]
        return cls(
            tiles=tiles,
            tiles_used=array.tiles_used,
            regex_ids=tuple(array.regex_ids),
            states=sum(max(compiled_by_id[r].states, 1) for r in array.regex_ids),
            ports=sum(tile.ports for tile in tiles),
            depth=depths[-1] if depths else None,
        )

    def mean_activity(self, mean: dict[int, float]) -> float:
        """Mean per-state activity across the array's regexes."""
        weighted = 0.0
        for rid in self.regex_ids:
            weighted += mean[rid]
        return min(1.0, weighted / self.states) if self.states else 0.0
