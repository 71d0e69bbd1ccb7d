"""Architectural configuration of RAP (Section 3.3).

All geometry and capacity parameters of the bank / array / tile hierarchy
live here so the compiler, mapper, and simulators share one source of
truth.  Defaults reproduce the paper's design point:

* tile: 32x128 8T-CAM (128 STE columns, 32-bit CC codes) + 128x128 FCB
  local switch + local controller, clocked at 2.08 GHz;
* array: 16 tiles + one 256x256 FCB global switch + global controller;
* bank: 4 arrays + two-level input buffering (128-entry ping-pong bank
  buffer, 8-entry array FIFOs) and output buffering (64-entry bank
  buffer, 2-entry array FIFOs).

One published tension is parameterized rather than resolved: Section 3.3
says each tile lets 32 STEs reach the global switch, yet a 256-port global
switch shared by 16 tiles leaves 16 ports per tile.  ``global_ports_per_
tile`` defaults to the value consistent with the switch size; the mapper
treats it as the inter-tile fan-out budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.circuits import RAP_CLOCK_GHZ


class TileMode(enum.Enum):
    """Operating mode of a RAP tile; each tile is configured independently."""

    NFA = "nfa"
    NBVA = "nbva"
    LNFA = "lnfa"


@dataclass(frozen=True)
class HardwareConfig:
    """Geometry and capacity of the simulated RAP design point."""

    # -- tile ------------------------------------------------------------
    cam_rows: int = 32  # also the CC code width in bits
    cam_cols: int = 128  # STE / BV columns per tile
    local_switch_dim: int = 128  # FCB: local_switch_dim x local_switch_dim

    # -- array -----------------------------------------------------------
    tiles_per_array: int = 16
    global_switch_dim: int = 256

    # -- bank ------------------------------------------------------------
    arrays_per_bank: int = 4
    bank_input_buffer_entries: int = 128  # ping-pong
    array_input_fifo_entries: int = 8
    bank_output_buffer_entries: int = 64  # ping-pong
    array_output_fifo_entries: int = 2

    # -- mode-specific capacities -----------------------------------------
    max_bin_size: int = 32  # LNFAs per bin (Section 3.3)
    ring_width_bits: int = 64  # LNFA ring network width
    bv_depth_choices: tuple[int, ...] = (4, 8, 16, 32)

    # -- timing -----------------------------------------------------------
    clock_ghz: float = RAP_CLOCK_GHZ

    # -- estimated physical layout ----------------------------------------
    # Average global-wire span charged per inter-tile transition; RAP's
    # tile pitch matches CAMA's, whose reported wire delay corresponds to
    # sub-millimetre hops.
    mean_global_wire_mm: float = 0.5
    ring_hop_wire_mm: float = 0.1  # adjacent-tile ring hop (short wires)

    def __post_init__(self) -> None:
        if self.cam_cols != self.local_switch_dim:
            raise ValueError(
                "the local switch must span exactly the CAM columns "
                f"({self.cam_cols} vs {self.local_switch_dim})"
            )
        if self.global_switch_dim % self.tiles_per_array:
            raise ValueError(
                "global switch ports must divide evenly across tiles"
            )

    # -- derived capacities (Section 3.3 quotes these) ---------------------

    @property
    def global_ports_per_tile(self) -> int:
        """Inter-tile connections available to each tile."""
        return self.global_switch_dim // self.tiles_per_array

    @property
    def stes_per_array(self) -> int:
        """STE columns available per array."""
        return self.cam_cols * self.tiles_per_array

    @property
    def max_regex_states(self) -> int:
        """Largest NFA/LNFA regex: one full array (no inter-array routing)."""
        return self.stes_per_array

    @property
    def max_bv_bits(self) -> int:
        """Largest single bit vector: all CAM columns but one CC column and
        one set1 column, at the deepest setting (127 columns x 32 rows =
        4064 bits in the default geometry)."""
        return (self.cam_cols - 1) * self.cam_rows

    @property
    def max_nbva_unfolded_states(self) -> int:
        """Largest regex supported in NBVA mode, measured in unfolded STEs
        (the paper quotes 64528 for the default geometry)."""
        # Per tile: one CC column and one set1 column leave cam_cols - 2
        # columns of cam_rows bits of counting, plus the CC state itself;
        # 16 tiles x (126 x 32 + 1) = 64528 in the default geometry.
        per_tile = (self.cam_cols - 2) * self.cam_rows + 1
        return per_tile * self.tiles_per_array

    @property
    def cycle_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1.0 / self.clock_ghz

    # -- (de)serialization for custom design points -----------------------

    def to_json(self) -> dict:
        """All configuration fields as a plain dict (CLI ``--hw`` files)."""
        import dataclasses

        doc = dataclasses.asdict(self)
        doc["bv_depth_choices"] = list(self.bv_depth_choices)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "HardwareConfig":
        """Inverse of :meth:`to_json`; unknown keys are rejected loudly."""
        import dataclasses

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown hardware-config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "bv_depth_choices" in kwargs:
            kwargs["bv_depth_choices"] = tuple(kwargs["bv_depth_choices"])
        return cls(**kwargs)

    def bv_columns(self, bv_bits: int, depth: int) -> int:
        """CAM columns (width) needed for a ``bv_bits``-long vector at the
        given depth (rows per column), per the row-first mapping."""
        if depth not in self.bv_depth_choices:
            raise ValueError(
                f"depth {depth} not in supported choices {self.bv_depth_choices}"
            )
        if bv_bits < 1:
            raise ValueError(f"bit vector needs at least one bit, got {bv_bits}")
        return -(-bv_bits // depth)  # ceil division


DEFAULT_CONFIG = HardwareConfig()
