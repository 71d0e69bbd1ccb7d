"""Shared test helpers: oracles and regex/input strategies."""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import itertools
import os
import re
import tempfile

from hypothesis import strategies as st

from repro.regex import ast
from repro.regex.charclass import CharClass


def re_end_positions(pattern: str, text: str) -> list[int]:
    """Ground-truth end positions of non-empty matches via Python's re.

    Position ``i`` is reported iff some non-empty substring ending at
    ``i`` (inclusive) matches the whole pattern — the unanchored
    multi-match convention every engine in this project follows.
    """
    compiled = re.compile(pattern)
    out = []
    for end in range(len(text)):
        for start in range(end + 1):
            if compiled.fullmatch(text, start, end + 1):
                out.append(end)
                break
    return out


# -- hypothesis strategies -----------------------------------------------------

SAFE_ALPHABET = "abcd"


def charclasses() -> st.SearchStrategy[CharClass]:
    single = st.sampled_from(SAFE_ALPHABET).map(CharClass.of)
    multi = st.sets(
        st.sampled_from(SAFE_ALPHABET), min_size=1, max_size=3
    ).map(CharClass.from_iterable)
    return st.one_of(single, multi, st.just(CharClass.any()))


def regex_trees(
    max_leaves: int = 8, with_unbounded: bool = True, max_bound: int = 4
) -> st.SearchStrategy:
    """Random ASTs over a small alphabet, built via the smart constructors."""
    leaf = charclasses().map(ast.lit)

    def extend(sub):
        options = [
            st.tuples(sub, sub).map(lambda t: ast.concat(*t)),
            st.tuples(sub, sub).map(lambda t: ast.alt(*t)),
            sub.map(ast.opt),
            st.tuples(
                sub,
                st.integers(0, max_bound),
                st.integers(0, max_bound),
            ).map(lambda t: ast.repeat(t[0], t[1], t[1] + t[2])),
        ]
        if with_unbounded:
            options.append(sub.map(ast.star))
            options.append(sub.map(ast.plus))
        return st.one_of(options)

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def scannable_trees(max_leaves: int = 6) -> st.SearchStrategy:
    """Random trees behind a literal: never nullable, so every draw
    compiles (and almost every one is DFA-eligible)."""
    return regex_trees(max_leaves=max_leaves).map(
        lambda t: ast.concat(ast.lit(CharClass.of("a")), t)
    )


def inputs(alphabet: str = SAFE_ALPHABET + "x", max_size: int = 24):
    return st.text(alphabet=alphabet, max_size=max_size).map(
        lambda s: s.encode("ascii")
    )


def segments_of(data: bytes, cuts: list[int]) -> list[bytes]:
    """``data`` cut at every offset of ``cuts``, each taken modulo
    ``len(data) + 1`` (so any integers will do)."""
    bounds = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def assert_results_identical(got, want) -> None:
    """Two ``SimulationResult`` s agree on matches, energy and metrics
    (what two labels of one automaton share; their array reports differ)."""
    assert got.matches == want.matches
    assert got.energy_breakdown_pj == want.energy_breakdown_pj
    assert dataclasses.asdict(got.metrics) == dataclasses.asdict(want.metrics)


# -- crash points of the persistence code -------------------------------------
#
# Everything that puts bytes on disk goes through ``repro.io.envelope``
# and (for checkpoints) a directory ``flock``; these are the calls that
# path makes.  Shimming them lets a test record their order and kill a
# writer — as under SIGKILL: no ``finally`` runs — entering any one.

PERSISTENCE_CALLS = [
    (os, "mkdir"),
    (os, "open"),
    (fcntl, "flock"),
    (tempfile, "mkstemp"),
    (os, "fdopen"),
    (os, "pread"),
    (os, "pwrite"),
    (os, "ftruncate"),
    (os, "fsync"),
    (os, "fdatasync"),
    (os, "replace"),
    (os, "unlink"),
    (os, "utime"),
    (os, "close"),
]


@contextlib.contextmanager
def shimmed_persistence(on_call):
    """Call ``on_call(index, name, args)`` ahead of every persistence call."""
    counter = itertools.count()

    def wrap(name, real):
        def call(*args, **kwargs):
            on_call(next(counter), name, args)
            return real(*args, **kwargs)

        return call

    saved = [(mod, name, getattr(mod, name)) for mod, name in PERSISTENCE_CALLS]
    for mod, name, real in saved:
        setattr(mod, name, wrap(name, real))
    try:
        yield
    finally:
        for mod, name, real in saved:
            setattr(mod, name, real)


def persistence_trace(action) -> list[tuple[str, tuple]]:
    """The ``(name, args)`` of each persistence call ``action()`` makes."""
    calls: list[tuple[str, tuple]] = []
    with shimmed_persistence(lambda _i, name, args: calls.append((name, args))):
        action()
    return calls


def killed_at(k: int, action) -> None:
    """Run ``action()`` in a forked child that dies entering call ``k``."""
    pid = os.fork()
    if pid == 0:
        status = 1  # the action raised: not the death that was asked for
        try:
            with shimmed_persistence(lambda i, _n, _a: i == k and os._exit(9)):
                action()
            status = 0  # fewer than k + 1 calls
        finally:
            os._exit(status)
    assert os.WEXITSTATUS(os.waitpid(pid, 0)[1]) == 9, (k, "child outlived it")
