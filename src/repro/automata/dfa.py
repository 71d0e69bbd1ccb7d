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

The DFA *execution tier* is not built here: :class:`DFAScanner`, the
``python`` backend's DFA-mode stepper, is a streaming adapter over a
:class:`~repro.core.table.StepTable` — the one lazily determinised
table class every backend steps — on the automaton's own byte classes.
A table state remembers the NFA active set it stands for, so the
scanner reports the same match events and exact activity counters as
the NFA engines, and its snapshots serialize as the very same
:class:`~repro.core.state.KernelState` documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.glushkov import Automaton, EdgeAction
from repro.automata.nfa import NFASimulator
from repro.core.kernel import StepStats
from repro.core.pykernel import _matched_states
from repro.core.state import KernelState
from repro.core.table import StepTable
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

class DFAScanner:
    """Streaming DFA execution of one plain unanchored automaton.

    The drop-in peer of :class:`~repro.automata.nfa.NFAScanner` for
    DFA-mode regexes: same ``feed``/``snapshot``/``restore`` surface,
    bit-identical match positions and :class:`StepStats`, and — because
    each table state remembers its NFA active set — snapshots that
    serialize as the *same* :class:`KernelState` documents an NFA scan
    of the same stream would write.  Durable-scan checkpoints therefore
    stay byte-identical across the two modes.

    The byte alphabet is first collapsed to the automaton's distinct
    label masks (one C-speed ``bytes.translate``); the table over those
    classes is filled as the stream demands and holds at most
    ``max_states`` states before it restarts.
    """

    def __init__(self, automaton: Automaton, *, max_states: int = 1 << 16):
        self._program = program = NFASimulator(automaton).program()
        own = list(dict.fromkeys(program.labels))  # the automaton's own classes
        self._class_of = bytes(map(own.index, program.labels))
        self._table = StepTable(program, own, masks=(-1,), cap=max_states)
        self._offset = 0
        self._states = 0  # the NFA active set the table state stands for

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._offset

    def _walk(
        self, data: bytes, states: int, stats: StepStats | None, stats_from: int
    ) -> tuple[list[int], int]:
        """Span-local match positions and the exit active set of
        ``data`` entered at ``states``.  The DFA tier never executes
        anchored regexes (eligibility excludes them), so no span is a
        stream start and no final needs last-byte masking."""
        _, (active,), hits, states = self._table.walk(
            data.translate(self._class_of),
            states,
            fresh=False,
            at_end=False,
            stats_from=stats_from,
        )
        if stats is not None:
            stats.cycles += len(data) - stats_from
            stats.active_states += active
            # a pure function of the input, exactly as in the NFA kernel
            stats.matched_states += _matched_states(self._program, data, stats_from)
            stats.reports += len(hits)
        return [i for i, _ in hits], states

    def feed(
        self,
        segment: bytes,
        stats: StepStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global
        (``at_end`` is accepted for interface parity only)."""
        del at_end
        base = self._offset
        matches, self._states = self._walk(segment, self._states, stats, 0)
        self._offset = base + len(segment)
        return [base + i for i in matches]

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
        stats_from = min(max(stats_from, 0), len(data))
        return self._walk(data, 0, stats, stats_from)[0]

    @property
    def state(self) -> KernelState:
        """The NFA active set the current table state stands for — the
        exact ``KernelState`` the equivalent NFA scan would hold here."""
        return KernelState(offset=self._offset, states=self._states)

    @state.setter
    def state(self, state: KernelState) -> None:
        self._offset = state.offset
        self._states = state.states

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state (:attr:`state` as a document)."""
        return self.state.to_json()

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot` (or by the
        equivalent NFA scanner over the same stream prefix)."""
        self.state = KernelState.from_json(doc)
