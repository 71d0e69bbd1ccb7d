"""The RAP simulator (Section 3): three tile modes, stalls, power gating.

The simulator executes a mapped ruleset over an input stream:

* **NFA-mode tiles** run the CAMA-style two-phase loop plus RAP's
  reconfiguration controllers.
* **NBVA-mode tiles** activate only the CAM columns holding character
  classes during state matching; when a BV-STE fires, the array enters
  the bit-vector-processing phase for ``depth`` cycles (read / route /
  update of every BV word), stalling the other tiles of the array (whose
  CAM and switch are disabled meanwhile).  Array throughput is derived
  from the array's stall count: the cycles in which any of its regexes
  triggers a BV phase, counted by the scan that stepped them.
* **LNFA-mode tiles** execute bins with the bit-serial Shift-And path:
  the active vector gates CAM columns, the local switch (CAM bins) or
  CAM (switch bins) is power-gated, and non-initial tiles of a bin wake
  up only on cycles where they hold a live state (Fig. 7).

Areas and leakage come from the Table 1 components; the global switch of
an LNFA array is present (area, leakage) but never accessed (power-gated,
replaced by the ring network).

Everything pricing needs but the event counts — tile occupancy and
shares, BV depths, bin capacities, array totals — is a binding's
:class:`ChargePlan`, derived once.  A run replays it: the same ledger
calls in the same order, on operands computed by the same expressions,
so every float is what pricing from scratch would produce.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Callable, Collection
from dataclasses import dataclass
from functools import cached_property

from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.core.registry import resolve_backend
from repro.core.trace import ActivityTrace
from repro.hardware.circuits import TABLE1, CircuitLibrary
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig, TileMode
from repro.hardware.energy import EnergyLedger, Metrics
from repro.io.serialize import scan_fingerprint
from repro.mapping.binning import BinKind
from repro.mapping.mapper import Mapping, map_ruleset
from repro.simulators.activity import BinActivity, RegexActivity
from repro.simulators.asic_base import (
    ApStyleSimulator,
    ArrayGeometry,
    rap_nfa_params,
    shared_trace,
)
from repro.simulators.result import ArrayReport, SimulationResult


@dataclass
class RunActivity:
    """All functional activity of one run over one input stream.

    This is the integer-exact intermediate the parallel engine merges:
    ``regex`` holds per-regex event counts for NFA/NBVA modes, and
    ``lnfa_bins`` the per-bin wake-up statistics of every LNFA array,
    and ``stalls`` per NBVA array its stall count — the cycles in which
    any of its regexes triggers a BV phase — both keyed by the array's
    index in the mapping.  Pricing a merged ``RunActivity`` performs the
    same float operations as pricing a sequential run, so parallel
    results are bit-identical.
    """

    regex: dict[int, RegexActivity]
    lnfa_bins: dict[int, list[BinActivity]]
    input_symbols: int
    stalls: dict[int, int]

    @classmethod
    def in_collection_order(
        cls,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        regex_of: Callable[[CompiledRegex], RegexActivity],
        bin_of: Callable[[int, int], BinActivity],
        input_symbols: int,
        stalls: dict[int, int],
    ) -> "RunActivity":
        """Assemble per-unit activity exactly as a sequential collection
        lays it out: regexes in ruleset order, bins per LNFA array in
        mapping order.  Every collection path (serial, fused,
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
            stalls=stalls,
        )


class ChargePlan:
    """Everything :meth:`RAPSimulator.run_from_activity` computes from
    ``(ruleset, mapping, hw)`` alone, derived once per :class:`Binding`.
    ``arrays``: per array in mapping order ``(index, mode, geometry,
    detail)`` — an NFA/NBVA array's :class:`ArrayGeometry`, and as detail
    per NBVA regex ``(id, BV depth, its vectors' share of the CAM)``, or
    for LNFA ``(tiles, the bins' tiles, per bin (tiles, CAM bin?,
    enabled-column capacity, size, share of the tiles it touches))``."""

    def __init__(
        self, ruleset: CompiledRuleset, mapping: Mapping, hw: HardwareConfig
    ):
        compiled_by_id = {r.regex_id: r for r in ruleset}
        self.hw = hw
        self.lnfa_ids = tuple(
            r.regex_id for r in ruleset if r.mode is CompiledMode.LNFA
        )
        self.arrays: list[tuple] = []
        for index, array in enumerate(mapping.arrays):
            geometry, detail = None, ()
            if array.mode is TileMode.LNFA:
                bins = []
                for b in array.bins:
                    cam = b.kind is BinKind.CAM
                    capacity = hw.cam_cols if cam else hw.local_switch_dim // 2
                    # bins share tiles at region granularity: a bin's
                    # controller charge scales with its share
                    share = min(1.0, b.footprint_columns / (b.tiles * hw.cam_cols))
                    bins.append((b.tiles, cam, capacity, b.size, share))
                detail = (array.tiles_used, sum(b.tiles for b in array.bins), bins)
            else:
                geometry = ArrayGeometry.of(array, compiled_by_id, hw)
            if array.mode is TileMode.NBVA:
                depth = geometry.depth or hw.bv_depth_choices[0]
                bv_cols = {
                    rid: sum(t.bv_columns for t in compiled_by_id[rid].tile_requests)
                    for rid in geometry.regex_ids
                }
                detail = tuple(
                    (rid, depth, min(1.0, cols / hw.cam_cols))
                    for rid, cols in bv_cols.items()
                )
            self.arrays.append((index, array.mode, geometry, detail))
        self.total_tiles = mapping.total_tiles
        self.total_arrays = mapping.total_arrays
        self.physical_arrays = mapping.physical_arrays()
        self._priced: ChargeProgram | None = None

    def priced(self, sim: "RAPSimulator") -> "ChargeProgram":
        """The plan as ``sim`` prices it (its params, circuits and hw, by
        identity): a :class:`ChargeProgram`, built on first use and kept
        for the last simulator that asked."""
        held = self._priced
        if (
            held is None
            or held.params is not sim.params
            or held.circuits is not sim.circuits
            or held.hw is not sim.hw
        ):
            held = self._priced = ChargeProgram(self, sim)
        return held


class _Recorded:
    """A stand-in ledger keeping the structure charges made to it, as
    ``(component, value, count)`` in order, for a replay through a real
    :class:`EnergyLedger` (the same additions, so the same floats)."""

    def __init__(self) -> None:
        self.area: list[tuple] = []
        self.leakage: list[tuple] = []

    def add_area(self, component: str, area_um2: float, count: float = 1.0):
        self.area.append((component, area_um2, count))

    def add_leakage(self, component: str, power_uw: float, count: float = 1.0):
        self.leakage.append((component, power_uw, count))


class ChargeProgram:
    """A :class:`ChargePlan` priced by one simulator: what pricing reads
    besides the counters, derived once.

    * ``prices`` — per array, the prices every replay charges alike: an
      NBVA array's per-tile matching and per-regex BV-phase pJ (an NFA
      array's: ``(None, ())``, full-column matching and no BV phase),
      an LNFA array's per-bin control and ring pJ;
    * ``area`` / ``area_mm2`` — the area breakdown and total, which read
      no counter;
    * ``leakage`` — every leakage charge in order, as the shared
      structure helpers make it; an LNFA array's tiles, whose power
      follows the gating duty, as ``(component, None, (index, tiles, its
      bins' tiles))``.  Without LNFA arrays ``leakage_w`` is the total.
    """

    def __init__(self, plan: ChargePlan, sim: "RAPSimulator"):
        p, hw, circuits = sim.params, plan.hw, sim.circuits
        self.plan, self.params, self.circuits, self.hw = plan, p, circuits, sim.hw
        wire = circuits.global_wire_mm
        hop_pj = wire.energy() * hw.ring_hop_wire_mm
        self.prices: list = []
        charged = _Recorded()
        for index, mode, geometry, detail in plan.arrays:
            if mode is TileMode.LNFA:
                tiles, bin_tiles, bins = detail
                self.prices.append(
                    [(p.local_ctrl_pj * b[4], hop_pj * b[3]) for b in bins]
                )
                # Tile area is physical; tile leakage follows the power-
                # gating duty cycle (leakage_w).
                charged.add_area("tile", p.tile_area_um2, tiles)
                charged.leakage.append(("tile", None, (index, tiles, bin_tiles)))
                # ring_width wires linking adjacent tiles
                ring = (
                    hw.ring_width_bits
                    * hw.ring_hop_wire_mm
                    * wire.area_um2
                    * max(tiles - 1, 0)
                )
                charged.add_area("ring-network", ring, 1)
                continue
            sim.charge_array_structure(charged, geometry, include_overhead=False)
            if mode is TileMode.NBVA:
                self.prices.append((
                    # an NBVA tile's matching activates only the columns
                    # that hold CCs (and the set1 columns routed during
                    # transitions)
                    [p.match_pj * tile.cc_frac for tile in geometry.tiles],
                    [
                        regex_depth * (
                            2 * p.match_pj * bv_frac  # CAM read + write-back
                            + p.switch_pj(bv_frac)  # routing and BV actions
                            + p.local_ctrl_pj
                        )
                        for _, regex_depth, bv_frac in detail
                    ],
                ))
            else:
                self.prices.append((None, ()))
        # Array-level structures: area/leakage proportional to occupied
        # tiles (Section 3.3).
        sim.charge_overhead_units(charged, plan.total_tiles)
        area = EnergyLedger()
        for component, area_um2, count in charged.area:
            area.add_area(component, area_um2, count)
        self.area, self.area_mm2 = area.area_breakdown(), area.area_mm2
        self.leakage = charged.leakage
        self.static_leakage_w = None
        if all(power is not None for _, power, _ in self.leakage):
            self.static_leakage_w = self.leakage_w({}, 0)

    def leakage_w(self, lnfa_bins, n: int) -> float:
        """Static power in watts of a run over ``n`` symbols: a gated LNFA
        tile leaks by its duty cycle (Fig. 7; it retains its
        configuration at ~10% of active leakage), the rest as built."""
        if self.static_leakage_w is not None:
            return self.static_leakage_w
        ledger = EnergyLedger()
        for component, power, count in self.leakage:
            if power is None:
                index, count, bin_tiles = count
                possible = bin_tiles * n
                woken = sum(a.woken_tile_cycles for a in lnfa_bins[index])
                duty = min(1.0, woken / possible) if possible else 1.0
                retention = 0.1
                power = self.params.tile_leak_uw * (retention + (1 - retention) * duty)
            ledger.add_leakage(component, power, count)
        return ledger.leakage_w

    def reports(self, n: int, stalls: dict[int, int]) -> tuple:
        """``(array reports, stall cycles, worst array's cycles)`` of a
        run over ``n`` symbols with per NBVA array (by index) ``stalls``
        trigger cycles: a BV phase stalls the whole array, ``depth``
        cycles for each."""
        clock = self.params.clock_ghz
        total_stalls, worst_cycles, reports = 0, n, []
        for index, mode, geometry, detail in self.plan.arrays:
            if mode is TileMode.LNFA:
                throughput = clock if n else 0.0
                reports.append(ArrayReport(mode.value, detail[0], n, 0, throughput))
                continue
            array_stalls = 0
            if mode is TileMode.NBVA:
                array_stalls = (geometry.depth or 0) * stalls[index]
            cycles = n + array_stalls
            total_stalls += array_stalls
            worst_cycles = max(worst_cycles, cycles)
            throughput = n / cycles * clock if cycles else 0.0
            tiles = geometry.tiles_used
            reports.append(
                ArrayReport(mode.value, tiles, cycles, array_stalls, throughput)
            )
        return tuple(reports), total_stalls, worst_cycles


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
        self,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        hw: HardwareConfig,
        backend: str | None = None,
    ):
        self.ruleset = ruleset
        self.mapping = mapping
        self.hw = hw
        self.backend = backend  # what the plan runs on (None: the ambient one)
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
        (requires NumPy; the ``python`` backend never asks for it), on
        the binding's backend whatever scope first asks for it."""
        from repro.simulators.fused import FusedPlan

        return FusedPlan(self.ruleset, self.mapping, self.hw, backend=self.backend)

    @cached_property
    def charges(self) -> ChargePlan:
        """What pricing reads of the mapped ruleset besides the activity
        (:class:`ChargePlan`): derived once, replayed by every
        :meth:`RAPSimulator.run_from_activity` of the binding."""
        return ChargePlan(self.ruleset, self.mapping, self.hw)


# Bindings a ruleset keeps at once (distinct hw / bin_size / backend /
# caller-supplied mapping); the oldest is dropped beyond this.
MAX_BINDINGS = 4

# One lookup-or-build at a time: scans on other threads (two split
# scans, a served session beside a bulk scan) bind rulesets concurrently.
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
    adopted = mapping is not None
    # the last binding found by key, as (hw, backend, bin_size, binding)
    last = vars(ruleset).get("_last_bound")
    if not adopted and last and last[0] is hw and last[1:3] == (backend, bin_size):
        return last[3]
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
            found = bound[key] = Binding(ruleset, mapping, hw, backend)
        if not adopted:
            vars(ruleset)["_last_bound"] = hw, backend, bin_size, found
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
        binding: Binding | None = None,
    ) -> RunActivity:
        """Phase 1: run the functional engines and count every event.

        With a shared ``trace``, scans memoized by another architecture's
        collection over the same input are reused instead of re-run.
        Without one, the ``fused`` backend collects the whole ruleset in
        a single lockstep pass (bit-identical by contract); a shared
        trace keeps the per-unit path so its memoized scans stay
        reusable across architectures.  ``binding``: the ruleset's, when
        the caller holds it.
        """
        backend = backend or resolve_backend()
        if trace is None and backend in ("fused", "native"):
            from repro.simulators.fused import FusedRun

            run = FusedRun(ruleset, mapping, self.hw, binding=binding)
            return run.collect(data, backend)
        trace = shared_trace(data, trace)
        by_id = {r.regex_id: r for r in ruleset}
        return RunActivity.in_collection_order(
            ruleset,
            mapping,
            trace.regex_activity,
            lambda index, bin_index: trace.bin_activity(
                mapping.arrays[index].bins[bin_index], self.hw
            ),
            len(data),
            {  # the oracle's positions, unioned per array
                index: trace.stall_cycles(by_id[r] for r in rids)
                for index, rids in mapping.nbva_arrays()
            },
        )

    def run(
        self,
        ruleset: CompiledRuleset,
        data: bytes,
        mapping: Mapping | None = None,
        bin_size: int | None = None,
        trace: ActivityTrace | None = None,
        backend: str | None = None,
        binding: Binding | None = None,
    ) -> SimulationResult:
        """Simulate the mapped ruleset on RAP over ``data`` (``backend``
        and ``binding``: the resolved backend and the ruleset's binding,
        when the caller holds them)."""
        backend = backend or resolve_backend()
        if binding is None:
            binding = bind(
                ruleset, self.hw, bin_size, mapping=mapping, backend=backend
            )
        activity = self.collect_activities(
            ruleset, data, binding.mapping, trace, backend, binding
        )
        return self.run_from_activity(
            ruleset, activity, binding.mapping, backend, binding
        )

    def run_from_activity(
        self,
        ruleset: CompiledRuleset,
        activity: RunActivity,
        mapping: Mapping,
        backend: str | None = None,
        binding: Binding | None = None,
    ) -> SimulationResult:
        """Phase 2: price a run's collected activity with the Table 1
        circuit models.  Deterministic given ``activity`` — the parallel
        engine merges per-chunk activities and prices them here once.

        Energy is :meth:`replay_charges`; area, the array reports and
        leakage replay the binding's :class:`ChargeProgram`, so a run
        adds only merged matches, each NBVA array's stalls (its stall
        count, which the scan kept, times its BV depth) and the LNFA
        tiles' gated leakage — each float bit-identical to pricing from
        scratch."""
        if binding is None:
            binding = bind(ruleset, self.hw, mapping=mapping, backend=backend)
        plan = binding.charges
        program = plan.priced(self)
        p = self.params
        regexes = activity.regex
        lnfa_bins = activity.lnfa_bins
        n = activity.input_symbols
        ledger = self.replay_charges(plan, regexes, lnfa_bins, n)
        matches = {a.regex_id: a.matches for a in regexes.values()}
        for rid in plan.lnfa_ids:
            matches[rid] = []
        for bins in lnfa_bins.values():
            for bin_activity in bins:
                for rid, ends in bin_activity.matches.items():
                    if ends:
                        matches.setdefault(rid, []).extend(ends)
        reports, total_stalls, worst_cycles = program.reports(n, activity.stalls)
        return SimulationResult(
            architecture=p.name,
            metrics=Metrics(
                energy_uj=ledger.energy_uj,
                area_mm2=program.area_mm2,
                cycles=worst_cycles,
                input_symbols=n,
                clock_ghz=p.clock_ghz,
                leakage_w=program.leakage_w(lnfa_bins, n),
            ),
            matches=merge_lnfa_matches(matches, plan.lnfa_ids),
            energy_breakdown_pj=ledger.energy_breakdown(),
            area_breakdown_um2=dict(program.area),
            stall_cycles=total_stalls,
            arrays=plan.total_arrays,
            tiles=plan.total_tiles,
            array_reports=reports,
        )

    def replay_charges(
        self, plan: ChargePlan, regexes, lnfa_bins, n: int
    ) -> EnergyLedger:
        """The :class:`ChargePlan` replay: every energy charge of a run
        over ``n`` input symbols, in order, into a fresh ledger.

        Reads only counters — per regex (by id) ``mean_activity`` and,
        for NBVA, ``bv_phase_cycles``; per LNFA array (by mapping index)
        each bin's ``tile_active_cycles`` / ``tile_active_bits`` — so a
        :class:`RunActivity` and a live scan's collectors both serve.
        A run's energy is the sum of these charges alone: a quote from
        the collectors is the priced result's ``energy_uj`` exactly."""
        p = self.params
        ledger = EnergyLedger()
        mean = {rid: a.mean_activity for rid, a in regexes.items()}
        for (index, mode, geometry, detail), prices in zip(
            plan.arrays, plan.priced(self).prices
        ):
            if mode is TileMode.LNFA:
                self._charge_lnfa_array(ledger, detail, prices, lnfa_bins[index])
                continue
            matching, phases = prices
            self.charge_nfa_array_energy(
                ledger, geometry, mean, n, charge_gctrl=False, match_pj=matching
            )
            # Bit-vector-processing phase: depth pipeline iterations of
            # BV-word read, switch routing, and write-back per triggering
            # cycle, for each NBVA regex with live counters.
            for (rid, _, _), per_phase in zip(detail, phases):
                ledger.charge("bv-processing", per_phase, regexes[rid].bv_phase_cycles)
        # One global controller runs per physical array (NFA and LNFA
        # tiles consolidate into shared arrays per Section 3.3, NBVA
        # arrays stay dedicated because their stalls are array-wide).
        if n:
            ledger.charge(
                "global-control", p.global_ctrl_pj, n * plan.physical_arrays
            )
        return ledger

    # -- LNFA arrays ---------------------------------------------------------

    def _charge_lnfa_array(self, ledger: EnergyLedger, detail, prices, bins) -> None:
        p = self.params
        for (tile_count, cam, capacity, _, _), (ctrl_pj, ring_pj), activity in zip(
            detail[2], prices, bins
        ):
            active = activity.tile_active_cycles
            for t in range(tile_count):
                active_cycles = active[t]
                if not active_cycles:
                    continue
                # Enabled columns follow the active vector; the initial
                # column of tile 0 is always enabled.
                enabled = activity.tile_active_bits[t] + active_cycles
                col_frac = min(1.0, enabled / (active_cycles * capacity))
                ledger.charge(
                    "state-matching",
                    p.match_pj * col_frac if cam else p.switch_pj(col_frac),
                    active_cycles,
                )
                ledger.charge("local-control", ctrl_pj, active_cycles)
            # Ring network: one short hop per tile boundary per cycle the
            # downstream tile is awake.
            ledger.charge("ring-network", ring_pj, sum(active[1:]))

    # -- post-run dedup -----------------------------------------------------


def merge_lnfa_matches(matches: dict, lnfa_ids: Collection[int]) -> dict:
    """Per regex its match ends, a new list: the ``lnfa_ids``' sorted and
    deduplicated (bins may report one end via several union members),
    the rest copied (every path hands them over strictly increasing)."""
    lnfa = set(lnfa_ids)
    return {r: sorted(set(e)) if r in lnfa else list(e) for r, e in matches.items()}
