"""Compiled-program intermediate representation.

A :class:`CompiledRegex` carries two coupled views of one regex:

* the **functional** view — the automaton (NFA/NBVA modes) or the union of
  LNFAs (LNFA mode) that the simulators execute to get exact match
  positions and activity statistics;
* the **structural** view — a sequence of :class:`TileRequest` records
  describing the hardware resources the regex occupies (CAM columns for
  character classes and bit vectors, set1 columns, read kinds, global
  ports).  The mapper packs these requests into arrays and the energy
  model prices them.

Keeping the functional automaton whole (rather than physically splitting
it per tile) does not change any observable behaviour — the split-tile
hardware computes the same transition relation — while the structural
plan preserves the per-tile activity accounting the energy model needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.automata.glushkov import Automaton, ReadKind
from repro.automata.lnfa import LNFA

# Re-exported from the repo-wide taxonomy: CompileError moved to
# repro.errors so the execution layer can classify failures without
# importing the compiler; existing `from repro.compiler.program import
# CompileError` call sites keep working.
from repro.errors import CapacityError, CompileError
from repro.hardware.config import TileMode


class CompiledMode(enum.Enum):
    """Which RAP execution mode the cost-model pipeline chose for a regex."""

    NFA = "NFA"
    NBVA = "NBVA"
    LNFA = "LNFA"
    # Subset-constructed DFA tier: executes as one table lookup per byte
    # on the fused backend, but occupies NFA-mode tiles on the hardware
    # (the DFA is a software execution strategy for the same automaton).
    DFA = "DFA"

    @property
    def tile_mode(self) -> TileMode:
        """The TileMode this compiled mode configures."""
        if self is CompiledMode.DFA:
            return TileMode.NFA
        return TileMode(self.value.lower())


@dataclass(frozen=True)
class TileRequest:
    """Hardware resources one regex needs from one tile.

    Column accounting follows Section 3.1 / Example 4.3: each state costs
    its character-class code columns; a counted state additionally costs
    its bit-vector width in columns plus one ``set1`` (initial vector)
    column.  ``read`` records the read action of the BVs in this tile —
    the hardware forbids mixing ``r(m)`` and ``rAll`` within a tile.
    """

    mode: TileMode
    states: int
    cc_columns: int
    bv_columns: int = 0
    set1_columns: int = 0
    depth: int | None = None
    read: ReadKind | None = None
    global_ports: int = 0

    @property
    def total_columns(self) -> int:
        """CAM columns consumed in total."""
        return self.cc_columns + self.bv_columns + self.set1_columns

    def validate(self, cam_cols: int) -> None:
        """Check the request against the tile capacity."""
        if self.total_columns > cam_cols:
            raise CapacityError(
                f"tile request needs {self.total_columns} columns "
                f"(capacity {cam_cols})"
            )
        if self.states < 0 or min(
            self.cc_columns, self.bv_columns, self.set1_columns
        ) < 0:
            raise CompileError("negative resource request")
        if self.bv_columns and self.depth is None:
            raise CompileError("BV columns allocated without a depth")


@dataclass(frozen=True)
class CompiledRegex:
    """One regex after compilation: functional model + structural plan."""

    regex_id: int
    pattern: str
    mode: CompiledMode
    automaton: Automaton | None = None
    lnfas: tuple[LNFA, ...] = ()
    lnfa_cam_eligible: tuple[bool, ...] = ()
    tile_requests: tuple[TileRequest, ...] = ()
    source_states: int = 0  # Glushkov positions of the regex as written
    unfolded_states: int = 0  # positions after full unfolding
    # ^ / $ anchors (start-of-data STEs and end-of-data reporting)
    anchored_start: bool = False
    anchored_end: bool = False

    def __post_init__(self) -> None:
        if self.mode is CompiledMode.LNFA:
            if not self.lnfas:
                raise CompileError("LNFA-mode regex without sequences")
            if len(self.lnfas) != len(self.lnfa_cam_eligible):
                raise CompileError("LNFA eligibility flags out of sync")
        elif self.automaton is None:
            raise CompileError(f"{self.mode.value}-mode regex without automaton")

    @property
    def states(self) -> int:
        """States actually programmed on the hardware in the chosen mode."""
        if self.mode is CompiledMode.LNFA:
            return sum(len(l) for l in self.lnfas)
        assert self.automaton is not None
        return self.automaton.state_count

    @property
    def total_columns(self) -> int:
        """CAM columns consumed in total."""
        return sum(t.total_columns for t in self.tile_requests)

    @property
    def tiles_needed(self) -> int:
        """Number of tile requests."""
        return len(self.tile_requests)

    @property
    def bv_bits(self) -> int:
        """Total bit-vector storage in bits."""
        if self.automaton is None:
            return 0
        return sum(
            g.width * len(g.positions) for g in self.automaton.groups
        )


@dataclass(frozen=True)
class CompiledRuleset:
    """All regexes of a workload, compiled, plus ruleset-level statistics."""

    regexes: tuple[CompiledRegex, ...]
    rejected: tuple[tuple[str, str], ...] = ()  # (pattern, reason)
    # The exception objects behind `rejected`, aligned index-for-index,
    # so the execution layer can classify failures (CapacityError vs
    # plain CompileError) without re-parsing reason strings.  Excluded
    # from equality and not serialized: a cache round trip drops them,
    # in which case classification falls back to CompileError.
    rejected_errors: tuple[CompileError, ...] = field(
        default=(), compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        # Only the declared fields travel (worker payloads, copies):
        # what a process attaches to the instance — its scan bindings,
        # which hold dlopen'ed kernels — stays behind.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __len__(self) -> int:
        return len(self.regexes)

    def __iter__(self):
        return iter(self.regexes)

    def by_mode(self, mode: CompiledMode) -> tuple[CompiledRegex, ...]:
        """The regexes compiled to one mode."""
        return tuple(r for r in self.regexes if r.mode is mode)

    def mode_counts(self) -> dict[CompiledMode, int]:
        """Number of regexes per compiled mode."""
        counts = {mode: 0 for mode in CompiledMode}
        for regex in self.regexes:
            counts[regex.mode] += 1
        return counts

    def mode_fractions(self) -> dict[CompiledMode, float]:
        """Fraction of regexes per compiled mode."""
        counts = self.mode_counts()
        total = max(len(self.regexes), 1)
        return {mode: count / total for mode, count in counts.items()}

    @property
    def total_states(self) -> int:
        """Hardware states across the whole ruleset."""
        return sum(r.states for r in self.regexes)
