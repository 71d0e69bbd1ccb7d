"""The greedy mapper (Section 4.3, "Hardware Mapping").

The mapper determines the mode of each RAP array and which regexes it
hosts.  NFA and NBVA regexes are placed with a first-fit-decreasing greedy
pass (each regex's tile requests must all land in one array — RAP has no
inter-array routing).  LNFAs are first grouped into bins (see
:mod:`repro.mapping.binning`); each bin is then placed like a regex, with
CAM bins and switch bins overlaying the same physical tiles where
possible.

The paper reports average utilization above 90% across benchmarks and
modes; :class:`Mapping` exposes the same metric.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.compiler.program import CompiledMode, CompiledRegex, CompiledRuleset
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig, TileMode
from repro.mapping.binning import Bin, BinItem, BinKind, plan_bins
from repro.mapping.resources import ArrayBuilder


class MappingError(ValueError):
    """Raised when a regex cannot be placed on the hardware at all."""


@dataclass
class Mapping:
    """The result of mapping one compiled ruleset onto RAP arrays."""

    arrays: list[ArrayBuilder]
    hw: HardwareConfig
    bins: list[Bin] = field(default_factory=list)

    def arrays_in_mode(self, mode: TileMode) -> list[ArrayBuilder]:
        """The arrays configured to one mode."""
        return [a for a in self.arrays if a.mode is mode]

    def lnfa_bins(self) -> Iterator[tuple[int, int, Bin]]:
        """``(array index, bin index, bin)`` for every LNFA bin, in
        mapping order — the order every collector and plan keeps."""
        for index, array in enumerate(self.arrays):
            if array.mode is TileMode.LNFA:
                for bin_index, bin_obj in enumerate(array.bins):
                    yield index, bin_index, bin_obj

    @property
    def total_arrays(self) -> int:
        """Arrays allocated during placement."""
        return len(self.arrays)

    @property
    def total_tiles(self) -> int:
        """Tiles occupied across all arrays."""
        return sum(a.tiles_used for a in self.arrays)

    @property
    def banks_needed(self) -> int:
        """Banks required for the physical arrays."""
        return -(-self.physical_arrays() // self.hw.arrays_per_bank)

    def physical_arrays(self) -> int:
        """Arrays after consolidating co-schedulable modes.

        Section 3.3: each tile of an array is configured independently,
        so NFA and LNFA tiles can share one physical array (both run one
        symbol per cycle, no stalls).  NBVA arrays stay dedicated — the
        bit-vector-processing phase stalls every tile of its array, and
        mixing would drag the co-located regexes.  The greedy pairing
        below packs partially-filled non-NBVA arrays together; the count
        it returns drives the array-overhead (global switch, controller)
        area and energy charges.
        """
        nbva = [a for a in self.arrays if a.mode is TileMode.NBVA]
        others = sorted(
            (a.tiles_used for a in self.arrays if a.mode is not TileMode.NBVA),
            reverse=True,
        )
        groups: list[int] = []
        for tiles in others:
            for i, used in enumerate(groups):
                if used + tiles <= self.hw.tiles_per_array:
                    groups[i] += tiles
                    break
            else:
                groups.append(tiles)
        return len(nbva) + len(groups)

    def column_utilization(self) -> float:
        """Used CAM columns / provisioned CAM columns (NFA/NBVA arrays)."""
        used = 0
        capacity = 0
        for array in self.arrays:
            if array.mode is TileMode.LNFA:
                continue
            for tile in array.tiles:
                used += tile.columns
                capacity += self.hw.cam_cols
        return used / capacity if capacity else 1.0

    def bin_utilization(self) -> float:
        """Real LNFA states / padded region states across all bins."""
        real = sum(b.real_states for b in self.bins)
        padded = sum(b.padded_states for b in self.bins)
        return real / padded if padded else 1.0

    def utilization(self) -> float:
        """Blended utilization over all modes (the paper's >90% metric)."""
        parts = []
        weights = []
        for array in self.arrays:
            if array.mode is TileMode.LNFA:
                continue
            for tile in array.tiles:
                parts.append(tile.columns / self.hw.cam_cols)
                weights.append(1.0)
        for b in self.bins:
            parts.append(b.utilization)
            weights.append(b.tiles)
        if not parts:
            return 1.0
        return sum(p * w for p, w in zip(parts, weights)) / sum(weights)


def map_ruleset(
    ruleset: CompiledRuleset,
    hw: HardwareConfig = DEFAULT_CONFIG,
    *,
    bin_size: int | None = None,
) -> Mapping:
    """Map every compiled regex onto arrays; raises on impossible regexes."""
    mapping = Mapping(arrays=[], hw=hw)

    _place_tiled(
        mapping,
        [r for r in ruleset if r.mode is CompiledMode.NBVA],
        TileMode.NBVA,
    )
    # The mode plan's tile_mode folds the DFA software tier onto NFA
    # hardware tiles: a DFA-mode regex carries the same automaton and
    # tile requests as its NFA compilation.
    _place_tiled(
        mapping,
        [r for r in ruleset if r.mode.tile_mode is TileMode.NFA],
        TileMode.NFA,
    )
    _place_lnfa(
        mapping,
        [r for r in ruleset if r.mode is CompiledMode.LNFA],
        bin_size=bin_size,
    )
    return mapping


def _place_tiled(
    mapping: Mapping, regexes: list[CompiledRegex], mode: TileMode
) -> None:
    hw = mapping.hw
    # First-fit decreasing: big regexes first to avoid fragmentation.
    ordered = sorted(regexes, key=lambda r: -r.total_columns)
    candidates = [a for a in mapping.arrays if a.mode is mode]
    for regex in ordered:
        if len(regex.tile_requests) > hw.tiles_per_array:
            raise MappingError(
                f"regex {regex.regex_id} needs {len(regex.tile_requests)} "
                f"tiles; an array has {hw.tiles_per_array}"
            )
        placed = False
        for array in candidates:
            if array.can_place_requests(regex.tile_requests):
                array.place_requests(regex.regex_id, regex.tile_requests)
                placed = True
                break
        if not placed:
            array = ArrayBuilder(mode=mode, hw=hw)
            if not array.can_place_requests(regex.tile_requests):
                raise MappingError(
                    f"regex {regex.regex_id} does not fit an empty array"
                )
            array.place_requests(regex.regex_id, regex.tile_requests)
            mapping.arrays.append(array)
            candidates.append(array)


def _place_lnfa(
    mapping: Mapping, regexes: list[CompiledRegex], *, bin_size: int | None
) -> None:
    hw = mapping.hw
    items = [
        BinItem(
            regex_id=regex.regex_id,
            lnfa_index=k,
            lnfa=lnfa,
            cam_eligible=eligible,
            anchored_start=regex.anchored_start,
            anchored_end=regex.anchored_end,
        )
        for regex in regexes
        for k, (lnfa, eligible) in enumerate(
            zip(regex.lnfas, regex.lnfa_cam_eligible)
        )
    ]
    if not items:
        return
    bins = plan_bins(items, hw=hw, bin_size=bin_size)
    candidates = [a for a in mapping.arrays if a.mode is TileMode.LNFA]
    # Big bins first.  Each bin is placed on whichever side (CAM or local
    # switch) keeps the array's physical footprint max(cam, switch)
    # smaller — one-hot encoding makes the switch side universal, so
    # CAM-eligible bins can fill otherwise-idle switches (the "2x in
    # theory" density of Section 3.2).
    placed_bins: list[Bin] = []
    for bin_obj in sorted(bins, key=lambda b: -b.footprint_columns):
        variants = [bin_obj]
        if bin_obj.kind is BinKind.CAM:
            variants.append(bin_obj.retargeted(BinKind.SWITCH, hw))
        chosen = None
        chosen_array = None
        best_cost = None
        for array in candidates:
            for variant in variants:
                is_cam = variant.kind is BinKind.CAM
                cols = variant.footprint_columns
                if not array.can_place_bin(cols, is_cam):
                    continue
                cam = array.lnfa_cam_columns + (cols if is_cam else 0)
                sw = array.lnfa_switch_columns + (0 if is_cam else cols)
                cost = max(cam, sw)
                if best_cost is None or cost < best_cost:
                    best_cost, chosen, chosen_array = cost, variant, array
        if chosen is None:
            chosen_array = ArrayBuilder(mode=TileMode.LNFA, hw=hw)
            chosen = bin_obj
            if not chosen_array.can_place_bin(
                chosen.footprint_columns, chosen.kind is BinKind.CAM
            ):
                raise MappingError(
                    f"bin of {chosen.footprint_columns} columns does not "
                    f"fit an array"
                )
            mapping.arrays.append(chosen_array)
            candidates.append(chosen_array)
        chosen_array.place_bin(chosen)
        placed_bins.append(chosen)
    mapping.bins.extend(placed_bins)
