"""The RAP simulator (Section 3): three tile modes, stalls, power gating.

The simulator executes a mapped ruleset over an input stream:

* **NFA-mode tiles** run the CAMA-style two-phase loop plus RAP's
  reconfiguration controllers.
* **NBVA-mode tiles** activate only the CAM columns holding character
  classes during state matching; when a BV-STE fires, the array enters
  the bit-vector-processing phase for ``depth`` cycles (read / route /
  update of every BV word), stalling the other tiles of the array (whose
  CAM and switch are disabled meanwhile).  Array throughput is derived
  from the union of stall cycles across the array's regexes.
* **LNFA-mode tiles** execute bins with the bit-serial Shift-And path:
  the active vector gates CAM columns, the local switch (CAM bins) or
  CAM (switch bins) is power-gated, and non-initial tiles of a bin wake
  up only on cycles where they hold a live state (Fig. 7).

Areas and leakage come from the Table 1 components; the global switch of
an LNFA array is present (area, leakage) but never accessed (power-gated,
replaced by the ring network).
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.core.registry import resolve_backend
from repro.core.trace import ActivityTrace
from repro.hardware.circuits import TABLE1, CircuitLibrary
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig, TileMode
from repro.hardware.energy import EnergyLedger
from repro.io.serialize import scan_fingerprint
from repro.mapping.binning import BinKind
from repro.mapping.mapper import Mapping, map_ruleset
from repro.mapping.resources import ArrayBuilder
from repro.simulators.activity import BinActivity, RegexActivity
from repro.simulators.asic_base import (
    ApStyleSimulator,
    rap_nfa_params,
    shared_trace,
)
from repro.simulators.result import ArrayReport, SimulationResult


@dataclass
class _ArrayOutcome:
    cycles: int
    stalls: int


@dataclass
class RunActivity:
    """All functional activity of one run over one input stream.

    This is the integer-exact intermediate the parallel engine merges:
    ``regex`` holds per-regex event counts for NFA/NBVA modes, and
    ``lnfa_bins`` the per-bin wake-up statistics of every LNFA array,
    keyed by the array's index in the mapping.  Pricing a merged
    ``RunActivity`` performs the same float operations as pricing a
    sequential run, so parallel results are bit-identical.
    """

    regex: dict[int, RegexActivity]
    lnfa_bins: dict[int, list[BinActivity]]
    input_symbols: int

    @classmethod
    def in_collection_order(
        cls,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        regex_of: Callable[[CompiledRegex], RegexActivity],
        bin_of: Callable[[int, int], BinActivity],
        input_symbols: int,
    ) -> "RunActivity":
        """Assemble per-unit activity exactly as a sequential collection
        lays it out: regexes in ruleset order, bins per LNFA array in
        mapping order.  Every collection path (serial, sharded, fused,
        input-split, durable) builds its result here, so even dict
        iteration order is the reference run's.  ``bin_of`` takes the
        ``(array index, bin index)`` of :meth:`Mapping.lnfa_bins`.
        """
        return cls(
            regex={
                r.regex_id: regex_of(r)
                for r in ruleset
                if r.mode is not CompiledMode.LNFA
            },
            lnfa_bins={
                index: [
                    bin_of(index, bin_index)
                    for bin_index in range(len(array.bins))
                ]
                for index, array in enumerate(mapping.arrays)
                if array.mode is TileMode.LNFA
            },
            input_symbols=input_symbols,
        )


class Binding:
    """One compiled ruleset configured for scanning: its mapping, and —
    built on first use — the fused plan over that mapping.

    The software analogue of programming the arrays: derived once by
    :func:`bind`, then every scan of the ruleset streams through it.
    ``plan`` carries the lane/unit scanners and their lazily attached
    native handles; it is stateless between scans, so bulk scans,
    durable scans and every session of a tenant generation share it.
    """

    def __init__(
        self, ruleset: CompiledRuleset, mapping: Mapping, hw: HardwareConfig
    ):
        self.ruleset = ruleset
        self.mapping = mapping
        self.hw = hw
        self._fingerprints: dict[int | None, str] = {}

    def fingerprint(self, bin_size: int | None) -> str:
        """The scan fingerprint — the whole ruleset serialized, hashed: once."""
        if bin_size not in self._fingerprints:
            self._fingerprints[bin_size] = scan_fingerprint(
                self.ruleset, self.hw, bin_size
            )
        return self._fingerprints[bin_size]

    @cached_property
    def plan(self):
        """The ruleset's :class:`~repro.simulators.fused.FusedPlan`
        (requires NumPy; the ``python`` backend never asks for it)."""
        from repro.simulators.fused import FusedPlan

        return FusedPlan(self.ruleset, self.mapping, self.hw)

    @cached_property
    def tile_shares(self) -> dict[int, list[float]]:
        """Per LNFA array (by mapping index), each bin's share of the
        tiles it touches — bins share tiles at region granularity; its
        controller charge scales with that.  Geometry: derived once."""
        cols = self.hw.cam_cols
        return {
            index: [min(1.0, b.footprint_columns / (b.tiles * cols)) for b in a.bins]
            for index, a in enumerate(self.mapping.arrays)
            if a.mode is TileMode.LNFA
        }


# Bindings a ruleset keeps at once (distinct hw / bin_size / backend /
# caller-supplied mapping); the oldest is dropped beyond this.
MAX_BINDINGS = 4

_BIND_LOCK = threading.Lock()


def bind(
    ruleset: CompiledRuleset,
    hw: HardwareConfig,
    bin_size: int | None = None,
    *,
    mapping: Mapping | None = None,
    backend: str | None = None,
) -> Binding:
    """The ruleset's :class:`Binding` for ``(hw, bin_size)`` on the
    backend in force, derived on the first call and reused afterwards.

    Bindings live on the ruleset *object* (so they die with it, and a
    recompiled or unpickled ruleset starts unbound), keyed by ``hw``,
    ``bin_size`` and ``backend`` (by default what :func:`resolve_backend`
    returns now) — a ``use_backend`` / ``RAP_BACKEND`` /
    ``RAP_NATIVE_DISABLE`` flip between two scans binds again.  A caller
    that already holds the ruleset's ``mapping`` passes it instead of
    ``bin_size``: the binding made from (or for) that very object is
    returned, without re-mapping.
    """
    backend = backend or resolve_backend()
    with _BIND_LOCK:
        bound = vars(ruleset).setdefault("_bindings", {})
        if mapping is None:
            key = (hw, backend, bin_size)
            found = bound.get(key)
        else:
            # Adopted mappings are only ever found by identity, below.
            key = (hw, backend, object())
            found = next(
                (
                    b
                    for (h, name, _), b in bound.items()
                    if b.mapping is mapping and name == backend and h == hw
                ),
                None,
            )
        if found is None:
            if mapping is None:
                mapping = map_ruleset(ruleset, hw, bin_size=bin_size)
            while len(bound) >= MAX_BINDINGS:
                del bound[next(iter(bound))]
            found = bound[key] = Binding(ruleset, mapping, hw)
    return found


class RAPSimulator(ApStyleSimulator):
    """Cycle-level simulation of the full reconfigurable design."""

    def __init__(
        self,
        hw: HardwareConfig = DEFAULT_CONFIG,
        circuits: CircuitLibrary = TABLE1,
    ):
        super().__init__(rap_nfa_params(circuits), hw)
        self.circuits = circuits
        self.params = dataclasses.replace(self.params, name="RAP")

    def build_mapping(
        self, ruleset: CompiledRuleset, bin_size: int | None = None
    ) -> Mapping:
        """The deterministic tile/array mapping of a ruleset."""
        return map_ruleset(ruleset, self.hw, bin_size=bin_size)

    def collect_activities(
        self,
        ruleset: CompiledRuleset,
        data: bytes,
        mapping: Mapping,
        trace: ActivityTrace | None = None,
        backend: str | None = None,
    ) -> RunActivity:
        """Phase 1: run the functional engines and count every event.

        With a shared ``trace``, scans memoized by another architecture's
        collection over the same input are reused instead of re-run.
        Without one, the ``fused`` backend collects the whole ruleset in
        a single lockstep pass (bit-identical by contract); a shared
        trace keeps the per-unit path so its memoized scans stay
        reusable across architectures.
        """
        backend = backend or resolve_backend()
        if trace is None and backend in ("fused", "native"):
            from repro.simulators.fused import FusedRun

            return FusedRun(ruleset, mapping, self.hw).collect(data, backend)
        trace = shared_trace(data, trace)
        return RunActivity.in_collection_order(
            ruleset,
            mapping,
            trace.regex_activity,
            lambda index, bin_index: trace.bin_activity(
                mapping.arrays[index].bins[bin_index], self.hw
            ),
            len(data),
        )

    def run(
        self,
        ruleset: CompiledRuleset,
        data: bytes,
        mapping: Mapping | None = None,
        bin_size: int | None = None,
        trace: ActivityTrace | None = None,
        backend: str | None = None,
    ) -> SimulationResult:
        """Simulate the mapped ruleset on RAP over ``data`` (``backend``:
        the resolved one, when the caller holds it)."""
        backend = backend or resolve_backend()
        if mapping is None:
            mapping = bind(ruleset, self.hw, bin_size, backend=backend).mapping
        activity = self.collect_activities(ruleset, data, mapping, trace, backend)
        return self.run_from_activity(ruleset, activity, mapping, backend)

    def run_from_activity(
        self,
        ruleset: CompiledRuleset,
        activity: RunActivity,
        mapping: Mapping,
        backend: str | None = None,
    ) -> SimulationResult:
        """Phase 2: price a run's collected activity with the Table 1
        circuit models.  Deterministic given ``activity`` — the parallel
        engine merges per-chunk activities and prices them here once."""
        shares = bind(ruleset, self.hw, mapping=mapping, backend=backend).tile_shares
        ledger = EnergyLedger()
        matches: dict[int, list[int]] = {}
        compiled_by_id = {r.regex_id: r for r in ruleset}
        activities = activity.regex
        for regex_activity in activities.values():
            matches[regex_activity.regex_id] = regex_activity.matches
        for r in ruleset:
            if r.mode is CompiledMode.LNFA:
                matches[r.regex_id] = []

        n = activity.input_symbols
        total_stalls = 0
        worst_cycles = n if n else 0
        array_reports: list[ArrayReport] = []
        for index, array in enumerate(mapping.arrays):
            if array.mode is TileMode.LNFA:
                # structure charged inside, with leakage scaled by the
                # measured power-gating duty cycle (Fig. 7)
                self._charge_lnfa_array(
                    ledger, array, activity.lnfa_bins[index], n, matches,
                    shares[index],
                )
                outcome = _ArrayOutcome(cycles=n, stalls=0)
                total_stalls += outcome.stalls
                worst_cycles = max(worst_cycles, outcome.cycles)
                array_reports.append(
                    ArrayReport(
                        mode=array.mode.value,
                        tiles=array.tiles_used,
                        cycles=outcome.cycles,
                        stalls=0,
                        throughput_gchps=(
                            self.params.clock_ghz if n else 0.0
                        ),
                    )
                )
                continue
            self.charge_array_structure(ledger, array, include_overhead=False)
            if array.mode is TileMode.NBVA:
                outcome = self._charge_nbva_array(
                    ledger, array, activities, compiled_by_id, n
                )
            else:
                self.charge_nfa_array_energy(
                    ledger,
                    array,
                    activities,
                    compiled_by_id,
                    n,
                    charge_gctrl=False,
                )
                outcome = _ArrayOutcome(cycles=n, stalls=0)
            total_stalls += outcome.stalls
            worst_cycles = max(worst_cycles, outcome.cycles)
            array_reports.append(
                ArrayReport(
                    mode=array.mode.value,
                    tiles=array.tiles_used,
                    cycles=outcome.cycles,
                    stalls=outcome.stalls,
                    throughput_gchps=(
                        n / outcome.cycles * self.params.clock_ghz
                        if outcome.cycles
                        else 0.0
                    ),
                )
            )
        # Array-level structures: area/leakage proportional to occupied
        # tiles; one global controller runs per physical array (NFA and
        # LNFA tiles consolidate into shared arrays per Section 3.3,
        # NBVA arrays stay dedicated because their stalls are array-wide).
        self.charge_overhead_units(ledger, mapping.total_tiles)
        groups = mapping.physical_arrays()
        if n:
            ledger.charge(
                "global-control", self.params.global_ctrl_pj, n * groups
            )

        metrics = ledger.metrics(
            cycles=worst_cycles,
            input_symbols=n,
            clock_ghz=self.params.clock_ghz,
        )
        return SimulationResult(
            architecture=self.params.name,
            metrics=metrics,
            matches=merge_lnfa_matches(matches),
            energy_breakdown_pj=ledger.energy_breakdown(),
            area_breakdown_um2=ledger.area_breakdown(),
            stall_cycles=total_stalls,
            arrays=mapping.total_arrays,
            tiles=mapping.total_tiles,
            array_reports=tuple(array_reports),
        )

    # -- NBVA arrays --------------------------------------------------------

    def _charge_nbva_array(
        self,
        ledger: EnergyLedger,
        array: ArrayBuilder,
        activities,
        compiled_by_id,
        cycles: int,
    ) -> _ArrayOutcome:
        p = self.params
        cam_cols = self.hw.cam_cols
        stall_cycles: set[int] = set()
        depth = None
        for tile in array.tiles:
            act = self.tile_switch_activity(tile, activities, compiled_by_id)
            # State matching activates only the columns that hold CCs (and
            # the set1 columns routed during transitions).
            cc_frac = (tile.columns - tile.bv_columns) / cam_cols
            ledger.charge("state-matching", p.match_pj * cc_frac, cycles)
            ledger.charge("state-transition", p.switch_pj(act), cycles)
            ledger.charge("local-control", p.local_ctrl_pj, cycles)
            if tile.depth is not None:
                depth = tile.depth

        ports_used = sum(t.ports for t in array.tiles)
        if ports_used:
            from repro.simulators.asic_base import _array_mean_activity

            port_frac = ports_used / self.hw.global_switch_dim
            mean_act = _array_mean_activity(array, activities, compiled_by_id)
            ledger.charge(
                "global-switch", p.gswitch_pj(port_frac * mean_act), cycles
            )
            ledger.charge("global-wire", p.wire_pj * ports_used * mean_act, cycles)

        # Bit-vector-processing phase: depth pipeline iterations of
        # BV-word read, switch routing, and write-back per triggering
        # cycle, for each regex with live counters.
        for rid in array.regex_ids:
            activity = activities[rid]
            compiled = compiled_by_id[rid]
            regex_depth = depth or self.hw.bv_depth_choices[0]
            bv_cols = sum(t.bv_columns for t in compiled.tile_requests)
            bv_frac = min(1.0, bv_cols / cam_cols)
            per_phase = regex_depth * (
                2 * p.match_pj * bv_frac  # CAM word read + write-back
                + p.switch_pj(bv_frac)  # routing and BV actions
                + p.local_ctrl_pj
            )
            ledger.charge("bv-processing", per_phase, activity.bv_phase_cycles)
            stall_cycles.update(activity.bv_cycle_indices)

        stalls = (depth or 0) * len(stall_cycles)
        return _ArrayOutcome(cycles=cycles + stalls, stalls=stalls)

    # -- LNFA arrays ---------------------------------------------------------

    def _charge_lnfa_array(
        self,
        ledger: EnergyLedger,
        array: ArrayBuilder,
        activities: list[BinActivity],
        cycles: int,
        matches: dict[int, list[int]],
        shares: list[float],
    ) -> None:
        p = self.params
        # Tile area is physical; tile leakage follows the power-gating
        # duty cycle (a gated tile retains its configuration at ~10% of
        # active leakage).
        tiles = array.tiles_used
        ledger.add_area("tile", p.tile_area_um2, tiles)
        possible = sum(a.bin.tiles for a in activities) * cycles
        woken = sum(a.woken_tile_cycles for a in activities)
        duty = min(1.0, woken / possible) if possible else 1.0
        retention = 0.1
        effective_leak = p.tile_leak_uw * (retention + (1 - retention) * duty)
        ledger.add_leakage("tile", effective_leak, tiles)
        for bin_obj, activity, tile_share in zip(array.bins, activities, shares):
            for rid, ends in activity.matches.items():
                if ends:
                    merged = matches.setdefault(rid, [])
                    merged.extend(ends)
            capacity = (
                self.hw.cam_cols
                if bin_obj.kind is BinKind.CAM
                else self.hw.local_switch_dim // 2
            )
            for t in range(bin_obj.tiles):
                active_cycles = activity.tile_active_cycles[t]
                if not active_cycles:
                    continue
                # Enabled columns follow the active vector; the initial
                # column of tile 0 is always enabled.
                enabled = activity.tile_active_bits[t] + active_cycles
                col_frac = min(1.0, enabled / (active_cycles * capacity))
                if bin_obj.kind is BinKind.CAM:
                    ledger.charge(
                        "state-matching", p.match_pj * col_frac, active_cycles
                    )
                else:
                    ledger.charge(
                        "state-matching", p.switch_pj(col_frac), active_cycles
                    )
                ledger.charge(
                    "local-control",
                    p.local_ctrl_pj * tile_share,
                    active_cycles,
                )
            # Ring network: one short hop per tile boundary per cycle the
            # downstream tile is awake.
            boundary_hops = sum(activity.tile_active_cycles[1:])
            ring_pj = (
                self.circuits.global_wire_mm.energy()
                * self.hw.ring_hop_wire_mm
                * bin_obj.size
            )
            ledger.charge("ring-network", ring_pj, boundary_hops)
        # Ring wiring area: ring_width wires linking adjacent tiles.
        ring_area = (
            self.hw.ring_width_bits
            * self.hw.ring_hop_wire_mm
            * self.circuits.global_wire_mm.area_um2
            * max(array.tiles_used - 1, 0)
        )
        ledger.add_area("ring-network", ring_area, 1)

    # -- post-run dedup -----------------------------------------------------


def merge_lnfa_matches(matches: dict[int, list[int]]) -> dict[int, list[int]]:
    """Sort and deduplicate per-regex match lists (bins may report the
    same end position via several union members)."""
    return {rid: sorted(set(ends)) for rid, ends in matches.items()}
