"""Simulation of nondeterministic bit vector automata (NBVA).

The configuration of an NBVA assigns each counted state a bit vector whose
set bits are the iteration counts currently in progress — the "set of
counter values" of Section 2.1.  One simulation step, driven by one input
byte, performs:

1. **state-transition**: from the previous configuration, compute every
   contribution to the next one — plain activations, ``set1`` entries into
   counter groups (gated by the source's read predicate when the source is
   itself counted), ``copy`` propagation within a group, and ``shift``
   loop-backs that advance the iteration count (bits shifted past the
   group width overflow and disappear, exactly like the hardware's
   overflow checker deactivating an exhausted BV-STE);
2. **state-matching**: zero out every target whose character class does
   not match the input byte (a BV is reset along with its inactive STE);
3. **reporting**: a match ends at this byte if a plain final state is
   active or a counted final state's read predicate holds.

Plain states are tracked in one integer bitset; live counted states in a
dict from position id to vector, so cost scales with actual BV activity —
the same event counts the hardware energy model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from repro.automata.glushkov import Automaton, EdgeAction
from repro.regex.charclass import ALPHABET_SIZE, interned_label_masks, members


@dataclass
class NBVAStats:
    """Activity counters for one run (feed the hardware energy model)."""

    cycles: int = 0
    active_states: int = 0  # plain active + live counted, summed over cycles
    matched_states: int = 0
    reports: int = 0
    bv_phase_cycles: int = 0  # cycles that trigger the bit-vector phase
    bv_updates: int = 0  # total counted-state vector updates performed
    set1_events: int = 0
    shift_events: int = 0
    copy_events: int = 0
    read_events: int = 0
    # counts of the Section 3.1 overflow checker firing: a shift pushed a
    # vector's last live bit past its width, deactivating the BV-STE
    overflow_events: int = 0
    # When set to a list before the run, the indices of cycles that
    # trigger the bit-vector-processing phase are recorded here (the
    # array-level stall model needs the union across co-located regexes).
    bv_cycle_indices: list[int] | None = None

    @property
    def bv_activation_rate(self) -> float:
        """Fraction of cycles that trigger the BV phase."""
        return self.bv_phase_cycles / self.cycles if self.cycles else 0.0

    def merge(self, other: "NBVAStats") -> "NBVAStats":
        """Associative combination of two consecutive spans of one run:
        counters add, recorded ``bv_cycle_indices`` concatenate (``None``
        only when neither side recorded)."""
        merged = NBVAStats(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)[:-1]
            )
        )
        if (self.bv_cycle_indices, other.bv_cycle_indices) != (None, None):
            merged.bv_cycle_indices = (self.bv_cycle_indices or []) + (
                other.bv_cycle_indices or []
            )
        return merged


class NBVASimulator:
    """Unanchored multi-match simulation of an automaton with counters.

    Also accepts plain automata (it degenerates to NFA simulation), which
    the integration tests use to cross-check the two engines.
    """

    def __init__(self, automaton: Automaton):
        self._automaton = automaton
        positions = automaton.positions
        counted = [p.pid for p in positions if p.is_counted]
        self._counted = counted
        self._width_mask = {
            pid: automaton.groups[positions[pid].group].vector_mask
            for pid in counted
        }
        self._read = {
            pid: automaton.groups[positions[pid].group].read_predicate
            for pid in counted
        }

        # Per-source routing tables.
        n = automaton.state_count
        self._plain_act = [0] * n  # src -> plain-target bitmask
        self._set1_targets: list[tuple[int, ...]] = [()] * n
        self._copy_targets: list[tuple[int, ...]] = [()] * n
        self._shift_targets: list[tuple[int, ...]] = [()] * n
        set1_tmp: list[list[int]] = [[] for _ in range(n)]
        copy_tmp: list[list[int]] = [[] for _ in range(n)]
        shift_tmp: list[list[int]] = [[] for _ in range(n)]
        for edge in automaton.edges:
            if edge.action is EdgeAction.ACTIVATE:
                self._plain_act[edge.src] |= 1 << edge.dst
            elif edge.action is EdgeAction.SET1:
                set1_tmp[edge.src].append(edge.dst)
            elif edge.action is EdgeAction.COPY:
                copy_tmp[edge.src].append(edge.dst)
            else:
                shift_tmp[edge.src].append(edge.dst)
        self._set1_targets = [tuple(t) for t in set1_tmp]
        self._copy_targets = [tuple(t) for t in copy_tmp]
        self._shift_targets = [tuple(t) for t in shift_tmp]

        self._initial_plain = 0
        self._initial_counted: list[int] = []
        for pid in automaton.initial:
            if positions[pid].is_counted:
                self._initial_counted.append(pid)
            else:
                self._initial_plain |= 1 << pid
        self._final_plain = 0
        self._final_counted: list[int] = []
        for pid in automaton.finals:
            if positions[pid].is_counted:
                self._final_counted.append(pid)
            else:
                self._final_plain |= 1 << pid

        # Per-byte tables over plain positions (one shared expansion) and
        # counted positions (sets — the BV loop below walks live vectors
        # and stays pure-Python regardless of the selected backend: its
        # per-state counter dataflow is not a bitset program).
        self._labels = interned_label_masks(
            (pos.pid, pos.cc) for pos in positions if not pos.is_counted
        )
        self._counted_match = [set() for _ in range(ALPHABET_SIZE)]
        for pos in positions:
            if pos.is_counted:
                for byte in members(pos.cc):
                    self._counted_match[byte].add(pos.pid)

    @property
    def automaton(self) -> Automaton:
        """The automaton this simulator executes."""
        return self._automaton

    def find_matches(
        self,
        data: bytes,
        stats: NBVAStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ) -> list[int]:
        """All end positions of non-empty matches in ``data``."""
        return list(
            self.iter_matches(
                data,
                stats,
                anchored_start=anchored_start,
                anchored_end=anchored_end,
            )
        )

    def iter_matches(
        self,
        data: bytes,
        stats: NBVAStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ):
        """Generator over match end positions (and stats, if given)."""
        return self.scanner(
            anchored_start=anchored_start, anchored_end=anchored_end
        ).iter_feed(data, stats, at_end=True)

    def count_matches(self, data: bytes) -> int:
        """Number of non-empty matches in ``data``."""
        return sum(1 for _ in self.iter_matches(data))

    def scanner(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> "NBVAScanner":
        """A streaming scanner with snapshot/restore for this NBVA."""
        return NBVAScanner(
            self, anchored_start=anchored_start, anchored_end=anchored_end
        )


# Version of the serialized NBVA frontier encoding.
NBVA_STATE_VERSION = 1


class NBVAState(NamedTuple):
    """An NBVA scanner's mid-stream frontier as one hashable value —
    exactly what :meth:`NBVAScanner.snapshot` serializes (``vectors`` is
    the live ``(pid, vector)`` pairs in ascending pid order)."""

    offset: int = 0
    active: int = 0
    vectors: tuple[tuple[int, int], ...] = ()


class NBVAScanner:
    """Streaming NBVA scan: feed segments, snapshot/restore mid-stream.

    The frontier is the plain active-state bitset plus every live
    counted-state bit vector — exactly what the simulation step carries
    between symbols — so a scanner restored from :meth:`snapshot`
    continues the counter dataflow bit-identically.  Match positions
    (and recorded ``bv_cycle_indices``) are *global* stream offsets.
    """

    def __init__(
        self,
        sim: NBVASimulator,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ):
        self._sim = sim
        self._anchored_start = anchored_start
        self._anchored_end = anchored_end
        self._offset = 0
        self._active = 0
        self._vectors: dict[int, int] = {}

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._offset

    @property
    def state(self) -> NBVAState:
        """The mid-stream frontier (settable: the fused plan steps the
        unit itself and writes the continuation back)."""
        return NBVAState(
            self._offset, self._active, tuple(sorted(self._vectors.items()))
        )

    @state.setter
    def state(self, state: NBVAState) -> None:
        self._offset, self._active = state.offset, state.active
        self._vectors = dict(state.vectors)

    def feed(
        self,
        segment: bytes,
        stats: NBVAStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global."""
        return list(self.iter_feed(segment, stats, at_end=at_end))

    def iter_feed(
        self,
        segment: bytes,
        stats: NBVAStats | None = None,
        *,
        at_end: bool = True,
    ):
        """Lazy :meth:`feed`: yields global match positions as found.

        The frontier advances per consumed symbol, so abandoning the
        generator mid-segment leaves the scanner at the last consumed
        position (the whole-stream ``iter_matches`` relies on this).
        """
        sim = self._sim
        plain_act = sim._plain_act
        set1_targets = sim._set1_targets
        copy_targets = sim._copy_targets
        shift_targets = sim._shift_targets
        width_mask = sim._width_mask
        read = sim._read
        labels = sim._labels
        counted_match = sim._counted_match
        anchored_start = self._anchored_start
        anchored_end = self._anchored_end

        offset = self._offset
        last = len(segment) - 1
        active = self._active
        vectors = self._vectors
        for i, byte in enumerate(segment):
            if anchored_start and (offset + i):
                avail = 0
                set1: set[int] = set()
            else:
                avail = sim._initial_plain
                set1 = set(sim._initial_counted)
            contrib: dict[int, int] = {}
            matching = counted_match[byte]

            a = active
            while a:
                low = a & -a
                src = low.bit_length() - 1
                a ^= low
                avail |= plain_act[src]
                set1.update(set1_targets[src])

            for src, vec in vectors.items():
                for dst in copy_targets[src]:
                    contrib[dst] = contrib.get(dst, 0) | vec
                shifted = None
                for dst in shift_targets[src]:
                    if shifted is None:
                        shifted = vec << 1 & width_mask[dst]
                        if (
                            stats is not None
                            and not shifted
                            and dst in matching
                        ):
                            # the Section 3.1 overflow checker: the BV-STE
                            # matched but every live count shifted past the
                            # vector width, so it is deactivated
                            stats.overflow_events += 1
                    contrib[dst] = contrib.get(dst, 0) | shifted
                if stats is not None:
                    stats.copy_events += len(copy_targets[src])
                    stats.shift_events += len(shift_targets[src])
                if read[src](vec):
                    if stats is not None:
                        stats.read_events += 1
                    avail |= plain_act[src]
                    set1.update(set1_targets[src])

            for dst in set1:
                contrib[dst] = contrib.get(dst, 0) | 1

            # state-matching gate
            active = avail & labels[byte]
            vectors = {
                dst: vec for dst, vec in contrib.items() if vec and dst in matching
            }
            self._active = active
            self._vectors = vectors
            self._offset = offset + i + 1

            if stats is not None:
                stats.cycles += 1
                stats.active_states += active.bit_count() + len(vectors)
                stats.matched_states += labels[byte].bit_count() + len(matching)
                stats.set1_events += len(set1)
                stats.bv_updates += len(vectors)
                if vectors:
                    stats.bv_phase_cycles += 1
                    if stats.bv_cycle_indices is not None:
                        stats.bv_cycle_indices.append(offset + i)

            matched = bool(active & sim._final_plain)
            if not matched:
                for pid in sim._final_counted:
                    vec = vectors.get(pid, 0)
                    if vec and read[pid](vec):
                        matched = True
                        break
            if matched and (not anchored_end or (at_end and i == last)):
                if stats is not None:
                    stats.reports += 1
                yield offset + i

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state (vectors in sorted pid order —
        dict order never affects results, but determinism keeps the
        serialized bytes, and hence checkpoint checksums, stable)."""
        return {
            "version": NBVA_STATE_VERSION,
            "offset": self._offset,
            "active": f"{self._active:x}",
            "vectors": [
                [pid, f"{vec:x}"]
                for pid, vec in sorted(self._vectors.items())
            ],
        }

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        try:
            version = doc["version"]
            if version != NBVA_STATE_VERSION:
                raise ValueError(
                    f"NBVA-state version {version!r} "
                    f"(this build reads {NBVA_STATE_VERSION})"
                )
            offset = int(doc["offset"])
            active = int(doc["active"], 16)
            vectors = {
                int(pid): int(vec, 16) for pid, vec in doc["vectors"]
            }
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed NBVA-state document: {err}") from err
        if offset < 0:
            raise ValueError("state offset must be non-negative")
        self._offset = offset
        self._active = active
        self._vectors = vectors
