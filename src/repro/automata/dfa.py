"""DFA via subset construction — blowup foil, oracle, and execution tier.

Section 2.1 motivates NFAs and NBVAs by the cost of determinization:
unfolding ``r{n}`` "results in an NFA of size linear in n (and therefore
can produce a DFA of size exponential in n)".  This module makes that
claim executable: lazy subset construction over the homogeneous automata
of :mod:`repro.automata.glushkov`, with a state budget so the
exponential cases fail loudly instead of eating the machine.

It also serves as a third independent matching oracle (after the
Glushkov bitset engine and the Thompson reference): determinization and
simulation go through entirely different code than either.

Since the cost-model compiler grew a DFA execution tier, this module
additionally provides the tier's machinery: :func:`determinize_classes`
subset-constructs over ``k`` alphabet-equivalence classes instead of 256
bytes (the fused backend's representation), producing a :class:`ClassDFA`
whose states remember the NFA subset they stand for.  That memory is
what keeps the tier bit-identical to the NFA engines: the scanning
construction bakes the unanchored restart into every subset, so for a
plain unanchored automaton the DFA state after byte ``i`` *is* the NFA
active set after byte ``i`` — same match events, same exact activity
counters, and snapshots that serialize as the very same
:class:`~repro.core.state.KernelState` documents.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

from repro.automata.glushkov import Automaton, EdgeAction
from repro.core.kernel import StepStats
from repro.core.state import KernelState
from repro.regex.charclass import ALPHABET_SIZE, interned_label_masks


class DFABlowupError(RuntimeError):
    """Raised when determinization exceeds its state budget."""

    def __init__(self, states: int, budget: int):
        super().__init__(
            f"subset construction exceeded {budget} states "
            f"(reached {states}); this automaton exhibits the DFA blowup "
            "the paper's Section 2.1 warns about"
        )
        self.states = states
        self.budget = budget


@dataclass(frozen=True)
class DFA:
    """A dense-table DFA for unanchored multi-match scanning.

    ``transitions[s * 256 + b]`` is the successor of state ``s`` on byte
    ``b``; ``accepting`` flags states containing a final NFA position.
    State 0 is the scan start (the closure of "nothing matched yet").
    """

    transitions: tuple[int, ...]
    accepting: tuple[bool, ...]

    @property
    def state_count(self) -> int:
        """Number of states (Glushkov positions)."""
        return len(self.accepting)

    def find_matches(self, data: bytes) -> list[int]:
        """End positions of non-empty matches (same convention as every
        other engine in this package)."""
        transitions = self.transitions
        accepting = self.accepting
        state = 0
        out = []
        for i, byte in enumerate(data):
            state = transitions[(state << 8) + byte]
            if accepting[state]:
                out.append(i)
        return out

    def count_matches(self, data: bytes) -> int:
        """Number of non-empty matches in ``data``."""
        return len(self.find_matches(data))


def determinize(automaton: Automaton, *, max_states: int = 1 << 16) -> DFA:
    """Subset-construct the scanning DFA of a plain homogeneous automaton.

    The construction bakes the unanchored semantics in: every subset
    implicitly re-includes the always-available initial positions, so the
    DFA consumes the stream directly with no restart logic.
    """
    if not automaton.is_plain:
        raise ValueError(
            "determinization requires a plain automaton; unfold counters "
            "first (that blowup is precisely the point)"
        )
    n = automaton.state_count
    succ = [0] * n
    for edge in automaton.edges:
        assert edge.action is EdgeAction.ACTIVATE
        succ[edge.src] |= 1 << edge.dst
    initial = 0
    for pid in automaton.initial:
        initial |= 1 << pid
    final = 0
    for pid in automaton.finals:
        final |= 1 << pid
    labels = interned_label_masks(
        (pos.pid, pos.cc) for pos in automaton.positions
    )

    # Lazy BFS over reachable subsets.  A subset here is the set of
    # *active* positions after consuming some input suffix.
    index: dict[int, int] = {0: 0}
    order: list[int] = [0]
    transitions: list[int] = []
    accepting: list[bool] = [False]
    frontier = 0
    while frontier < len(order):
        subset = order[frontier]
        frontier += 1
        # avail = transition targets of the active set, plus restarts
        avail = initial
        a = subset
        while a:
            low = a & -a
            avail |= succ[low.bit_length() - 1]
            a ^= low
        for byte in range(ALPHABET_SIZE):
            target = avail & labels[byte]
            target_index = index.get(target)
            if target_index is None:
                target_index = len(order)
                if target_index >= max_states:
                    raise DFABlowupError(target_index + 1, max_states)
                index[target] = target_index
                order.append(target)
                accepting.append(bool(target & final))
            transitions.append(target_index)
    return DFA(transitions=tuple(transitions), accepting=tuple(accepting))


# -- the DFA execution tier ---------------------------------------------------


@dataclass(frozen=True)
class ClassDFA:
    """A scanning DFA over ``k`` alphabet-equivalence classes.

    ``transitions[s * k + cls]`` is the successor of state ``s`` on
    class ``cls``.  ``subsets[s]`` is the NFA active-set bitmask state
    ``s`` stands for (state 0 is the empty set — "nothing live"), which
    gives the exact counters the energy model prices: ``pops[s]`` is the
    live-state count and ``flags[s]`` says whether the state reports — 1
    = it holds a final that fires anywhere, 2 = one that fires only on
    the stream's last byte (the hit integer the NFA kernels emit is then
    ``subsets[s] & final``).  A stream enters at ``start``: state 0, or
    — when the first byte's injection differs from every later one's —
    one extra last row (id ``state_count``, no subset, never a target)
    holding the stream-start successors.  Rows are flat arrays, not
    lists of ints: the table travels in pickled plans, and only these
    six fields do — the subset index and :attr:`walk_view` are per process.
    """

    k: int
    transitions: array
    subsets: tuple[int, ...]
    pops: array
    flags: bytes
    start: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {subset: i for i, subset in enumerate(self.subsets)}
        )

    def __getstate__(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @cached_property
    def walk_view(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``(rows, pops)`` as tuples — ``rows[s][cls]`` is
        ``transitions[s * k + cls]`` — for the Python steppers, which
        index tuples faster than arrays; built on first use."""
        k, flat = self.k, tuple(self.transitions)
        return (
            tuple(flat[at : at + k] for at in range(0, len(flat), k)),
            tuple(self.pops),
        )

    @property
    def state_count(self) -> int:
        """Number of reachable subsets (including the empty state 0)."""
        return len(self.subsets)

    def state_of(self, subset: int) -> int:
        """The DFA state standing for an NFA active set.

        Raises ``ValueError`` for subsets the construction never
        reached — a snapshot produced by this DFA (or by the equivalent
        NFA scan) always decodes, anything else is a foreign state.
        """
        index = self._index.get(subset)
        if index is None:
            raise ValueError(
                f"active set {subset:#x} is not a reachable DFA subset"
            )
        return index


def determinize_classes(
    class_labels: Sequence[int],
    succ: Sequence[int],
    initial: int,
    final: int,
    *,
    first: int | None = None,
    end_anchored: int = 0,
    max_states: int = 1 << 16,
) -> ClassDFA:
    """Subset-construct a scanning :class:`ClassDFA` over class labels.

    ``class_labels[c]`` is the state-matching mask of equivalence class
    ``c``; ``succ``/``initial``/``final`` are the plain automaton's
    bitmask tables.  Like :func:`determinize`, every subset implicitly
    re-includes the always-available initial positions (unanchored
    scanning), so the reachable subsets — and their count — are exactly
    those of the byte-alphabet construction.  ``first`` is the injection
    of the stream's first byte when it is not ``initial`` (a start
    anchor: the table gains its stream-start row), ``end_anchored`` the
    finals that fire on the stream's last byte only.  Ids are discovery
    order, breadth-first with classes in index order — the same in every
    process.
    """
    k = len(class_labels)
    succ = tuple(succ)
    # Most classes of a shared alphabet exist for some *other* unit's
    # sake: step each subset once per distinct label, then spread.
    distinct = list(dict.fromkeys(class_labels))
    column = [distinct.index(label) for label in class_labels]
    index: dict[int, int] = {0: 0}
    order: list[int] = [0]
    transitions = array("H" if max_states <= 1 << 16 else "I")

    def row(avail: int) -> list[int]:
        targets = []
        for label in distinct:
            target = avail & label
            target_index = index.get(target)
            if target_index is None:
                target_index = len(order)
                if target_index >= max_states:
                    raise DFABlowupError(target_index + 1, max_states)
                index[target] = target_index
                order.append(target)
            targets.append(target_index)
        return [targets[col] for col in column]

    start_row = None if first is None or first == initial else row(first)
    frontier = 0
    while frontier < len(order):
        subset = order[frontier]
        frontier += 1
        avail = initial
        a = subset
        while a:
            low = a & -a
            avail |= succ[low.bit_length() - 1]
            a ^= low
        transitions.extend(row(avail))
    mid, end = final & ~end_anchored, final & end_anchored
    pops = array("I", (s.bit_count() for s in order))
    flags = bytes(bool(s & mid) | bool(s & end) << 1 for s in order)
    if start_row is not None:
        transitions.extend(start_row)
        pops.append(0)
        flags += b"\0"
    return ClassDFA(
        k=k,
        transitions=transitions,
        subsets=tuple(order),
        pops=pops,
        flags=flags,
        start=len(order) if start_row is not None else 0,
    )


def automaton_bitmasks(
    automaton: Automaton,
) -> tuple[tuple[int, ...], int, int, tuple[int, ...]]:
    """The plain automaton's ``(succ, initial, final, labels)`` tables —
    the inputs both determinizations and the NFA kernel programs share."""
    if not automaton.is_plain:
        raise ValueError(
            "determinization requires a plain automaton; unfold counters "
            "first (that blowup is precisely the point)"
        )
    n = automaton.state_count
    succ = [0] * n
    for edge in automaton.edges:
        assert edge.action is EdgeAction.ACTIVATE
        succ[edge.src] |= 1 << edge.dst
    initial = 0
    for pid in automaton.initial:
        initial |= 1 << pid
    final = 0
    for pid in automaton.finals:
        final |= 1 << pid
    labels = interned_label_masks(
        (pos.pid, pos.cc) for pos in automaton.positions
    )
    return tuple(succ), initial, final, labels


@dataclass(frozen=True)
class DFAPlan:
    """One automaton's complete DFA execution plan.

    ``table`` maps bytes onto the automaton's *own* equivalence classes
    (distinct label masks) for C-speed ``bytes.translate``;
    ``label_pops[b]`` is the popcount of byte ``b``'s label mask (the
    ``matched_states`` proxy, a pure function of the input exactly as in
    the NFA kernels); ``labeled_bytes`` lists the bytes with non-zero
    label masks for the ``bytes.count`` sweep.
    """

    dfa: ClassDFA
    table: bytes
    label_pops: tuple[int, ...]
    labeled_bytes: tuple[int, ...]


def dfa_plan(automaton: Automaton, *, max_states: int = 1 << 16) -> DFAPlan:
    """Build the per-regex execution plan over the automaton's own classes.

    The byte alphabet is first collapsed to the automaton's distinct
    label masks: any ruleset-wide class map refines per-automaton to at
    most these classes, so the subset construction here reaches exactly
    the states a coarser-alphabet construction would.
    """
    succ, initial, final, labels = automaton_bitmasks(automaton)
    class_of: dict[int, int] = {}
    table = bytearray(ALPHABET_SIZE)
    for byte in range(ALPHABET_SIZE):
        mask = labels[byte]
        cls = class_of.get(mask)
        if cls is None:
            cls = len(class_of)
            class_of[mask] = cls
        table[byte] = cls
    class_labels = [0] * len(class_of)
    for mask, cls in class_of.items():
        class_labels[cls] = mask
    dfa = determinize_classes(
        class_labels, succ, initial, final, max_states=max_states
    )
    label_pops = tuple(mask.bit_count() for mask in labels)
    return DFAPlan(
        dfa=dfa,
        table=bytes(table),
        label_pops=label_pops,
        labeled_bytes=tuple(b for b, p in enumerate(label_pops) if p),
    )


# Above this many label-carrying byte values, per-value ``bytes.count``
# sweeps cost more than one map over the whole segment (same heuristic
# as the python step kernel).
_COUNT_SWEEP_LIMIT = 32


def _matched_states(plan: DFAPlan, data: bytes, start: int) -> int:
    """Sum of ``popcount(labels[b])`` over ``data[start:]``, exactly."""
    if len(plan.labeled_bytes) <= _COUNT_SWEEP_LIMIT:
        return sum(
            plan.label_pops[b] * data.count(b, start)
            for b in plan.labeled_bytes
        )
    return sum(map(plan.label_pops.__getitem__, memoryview(data)[start:]))


class DFAScanner:
    """Streaming DFA execution of one plain unanchored automaton.

    The drop-in peer of :class:`~repro.automata.nfa.NFAScanner` for
    DFA-mode regexes: same ``feed``/``snapshot``/``restore`` surface,
    bit-identical match positions and :class:`StepStats`, and — because
    each DFA state remembers its NFA subset — snapshots that serialize
    as the *same* :class:`KernelState` documents an NFA scan of the
    same stream would write.  Durable-scan checkpoints therefore stay
    byte-identical across the two modes.
    """

    def __init__(self, automaton: Automaton, *, max_states: int = 1 << 16):
        self._plan = dfa_plan(automaton, max_states=max_states)
        self._offset = 0
        self._state = 0  # DFA state index (0 = nothing live)

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._offset

    def feed(
        self,
        segment: bytes,
        stats: StepStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global.

        ``at_end`` is accepted for interface parity but irrelevant: the
        DFA tier never executes end-anchored regexes (eligibility
        excludes them), so no final needs last-byte masking.
        """
        del at_end
        plan = self._plan
        rows, pops = plan.dfa.walk_view
        flags = plan.dfa.flags
        base = self._offset
        s = self._state
        active = 0
        matches: list[int] = []
        for i, cls in enumerate(segment.translate(plan.table)):
            s = rows[s][cls]
            if s:
                active += pops[s]
                if flags[s]:
                    matches.append(base + i)
        self._state = s
        self._offset = base + len(segment)
        if stats is not None:
            stats.cycles += len(segment)
            stats.active_states += active
            stats.matched_states += _matched_states(plan, segment, 0)
            stats.reports += len(matches)
        return matches

    def find_matches(
        self,
        data: bytes,
        stats: StepStats | None = None,
        *,
        stats_from: int = 0,
    ) -> list[int]:
        """Whole-stream scan with the NFA simulator's warm-up contract.

        The first ``stats_from`` bytes drive the state but contribute
        neither matches nor counters; starts fresh regardless of any
        streaming state this scanner carries.
        """
        plan = self._plan
        rows, pops = plan.dfa.walk_view
        flags = plan.dfa.flags
        n = len(data)
        stats_from = min(max(stats_from, 0), n)
        s = 0
        active = 0
        matches: list[int] = []
        translated = data.translate(plan.table)
        for cls in memoryview(translated)[:stats_from]:
            s = rows[s][cls]
        for i, cls in enumerate(
            memoryview(translated)[stats_from:], stats_from
        ):
            s = rows[s][cls]
            if s:
                active += pops[s]
                if flags[s]:
                    matches.append(i)
        if stats is not None:
            stats.cycles += n - stats_from
            stats.active_states += active
            stats.matched_states += _matched_states(plan, data, stats_from)
            stats.reports += len(matches)
        return matches

    @property
    def state(self) -> KernelState:
        """The NFA active set the current DFA state stands for — the
        exact ``KernelState`` the equivalent NFA scan would hold here."""
        return KernelState(
            offset=self._offset, states=self._plan.dfa.subsets[self._state]
        )

    @state.setter
    def state(self, state: KernelState) -> None:
        index = self._plan.dfa.state_of(state.states)
        self._offset = state.offset
        self._state = index

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state (:attr:`state` as a document)."""
        return self.state.to_json()

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot` (or by the
        equivalent NFA scanner over the same stream prefix)."""
        self.state = KernelState.from_json(doc)
