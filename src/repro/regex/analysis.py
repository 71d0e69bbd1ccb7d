"""Structural regex analysis feeding the Fig. 9 compilation decision graph.

The compiler chooses between NBVA, LNFA, and NFA per regex; that choice is
driven by cheap structural facts computed here: the bounded-repetition
census (how many repetitions survive unfolding, how large their bit vectors
would be), counting compatibility (can a surviving repetition actually be
tracked with a bit vector), and linearizability (can the regex be rewritten
into character-class sequences within the 2x state blowup allowance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.regex.ast import (
    Alt,
    Concat,
    Empty,
    Epsilon,
    Lit,
    Opt,
    Plus,
    Regex,
    Repeat,
    Star,
)
from repro.regex.rewrite import Linearization, linearize, unfold


@dataclass(frozen=True)
class BoundedRep:
    """One bounded repetition surviving the unfolding rewriting."""

    lo: int
    hi: int
    body_positions: int
    body_is_charclass: bool
    counting_compatible: bool

    @property
    def bv_size(self) -> int:
        """Bit-vector width needed to track this repetition (its upper
        bound; the ``r{m} r{0,n-m}`` rewrite splits it into two vectors of
        combined size ``n``)."""
        return self.hi

    @property
    def unfolded_positions(self) -> int:
        """Positions a pure NFA needs for this repetition."""
        return self.body_positions * self.hi


@dataclass(frozen=True)
class RegexProfile:
    """Everything the decision graph needs to know about one regex."""

    literal_count: int
    unfolded_size: int
    nullable: bool
    has_unbounded: bool
    bounded_reps: tuple[BoundedRep, ...] = field(default_factory=tuple)
    linearization: Linearization | None = None

    @property
    def total_bv_bits(self) -> int:
        """Bit-vector storage the countable repetitions need."""
        return sum(r.bv_size for r in self.bounded_reps if r.counting_compatible)

    @property
    def is_linearizable(self) -> bool:
        """True iff linearization succeeded within budget."""
        return self.linearization is not None


def analyze(
    regex: Regex,
    *,
    unfold_threshold: int,
    lnfa_blowup: float = 2.0,
    max_lnfa_sequences: int = 4096,
) -> RegexProfile:
    """Compute the :class:`RegexProfile` of ``regex``.

    ``unfold_threshold`` is the NBVA compiler's unfolding threshold
    (Section 4.1); ``lnfa_blowup`` is the Fig. 9 allowance: a regex is
    LNFA-eligible only if linearization keeps the state count within
    ``lnfa_blowup`` times the unfolded Glushkov size.
    """
    unfolded = unfold(regex, unfold_threshold)
    reps = _census(unfolded)
    base_states = max(regex.unfolded_size(), 1)
    lin = linearize(
        regex,
        max_states=int(base_states * lnfa_blowup),
        max_sequences=max_lnfa_sequences,
    )
    return RegexProfile(
        literal_count=regex.literal_count(),
        unfolded_size=regex.unfolded_size(),
        nullable=regex.nullable(),
        has_unbounded=has_unbounded(regex),
        bounded_reps=tuple(reps),
        linearization=lin,
    )


def has_unbounded(regex: Regex) -> bool:
    """True iff the regex contains ``*``, ``+``, or ``r{m,}``."""
    for node in regex.walk():
        if isinstance(node, (Star, Plus)):
            return True
        if isinstance(node, Repeat) and node.hi is None:
            return True
    return False


def max_finite_bound(regex: Regex) -> int:
    """Largest finite repetition upper bound anywhere in the tree (0 if
    there is no bounded repetition)."""
    best = 0
    for node in regex.walk():
        if isinstance(node, Repeat) and node.hi is not None:
            best = max(best, node.hi)
    return best


def counting_compatible(rep: Repeat) -> bool:
    """Can ``rep`` be tracked with a bit-vector counter group?

    The NBVA construction requires (a) a non-nullable body — a nullable
    body lets the counter stall, which neither the shift-based hardware nor
    the classical NCA restriction supports — and (b) no *nested* surviving
    repetition or unbounded loop crossing iteration boundaries in a way the
    single shift action cannot express.  Stars strictly inside the body are
    fine (they become copy self-loops within the iteration); nested counted
    repetitions are not (no nested counter groups in the hardware).
    """
    if rep.inner.nullable():
        return False
    for node in rep.inner.walk():
        if isinstance(node, Repeat):
            return False  # nested surviving bounded repetition
    return True


def _census(unfolded: Regex) -> list[BoundedRep]:
    """Collect every repetition that survived unfolding, outermost-first.

    The body of a surviving counted repetition is not descended into for
    further census entries: nested repetitions make the outer one
    non-countable and are accounted for by its ``counting_compatible``
    flag.
    """
    out: list[BoundedRep] = []
    _census_walk(unfolded, out)
    return out


def _census_walk(node: Regex, out: list[BoundedRep]) -> None:
    if isinstance(node, Repeat):
        assert node.hi is not None, "unfolding must remove unbounded repeats"
        out.append(
            BoundedRep(
                lo=node.lo,
                hi=node.hi,
                body_positions=node.inner.literal_count(),
                body_is_charclass=isinstance(node.inner, Lit),
                counting_compatible=counting_compatible(node),
            )
        )
        return
    for child in node.children():
        _census_walk(child, out)


def describe(regex: Regex) -> str:
    """One-line human-readable structural summary (used in reports)."""
    kinds = {type(n).__name__ for n in regex.walk()}
    reps = max_finite_bound(regex)
    return (
        f"positions={regex.literal_count()} unfolded={regex.unfolded_size()} "
        f"max_bound={reps} unbounded={has_unbounded(regex)} "
        f"nodes={','.join(sorted(kinds))}"
    )


# Re-export the node types analysis callers commonly need alongside profiles.
__all__ = [
    "Alt",
    "BoundedRep",
    "Concat",
    "Empty",
    "Epsilon",
    "Lit",
    "Opt",
    "Plus",
    "RegexProfile",
    "Repeat",
    "Star",
    "analyze",
    "counting_compatible",
    "describe",
    "has_unbounded",
    "max_finite_bound",
]
