"""The generated cells of the conformance matrix (axes, oracles and how
to add a cell: the package docstring)."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_ruleset

from tests.conformance import cells
from tests.conformance.cells import (
    BACKENDS,
    HOST,
    INPUT_JOBS,
    MODES,
    PINNED,
    SWEEPS,
    Case,
    pinned,
)
from tests.helpers import scannable_trees

needs_native = pytest.mark.skipif(
    "native" not in HOST, reason="native backend unavailable on this host"
)


def test_the_host_runs_every_backend():
    missing = sorted(set(BACKENDS) - set(HOST))
    if missing:
        pytest.skip(f"matrix cells of {', '.join(missing)} do not run here")


# -- drawn rulesets: the four Fig. 9 structures -------------------------------

ATOMS = ["a", "b", "c", "x", "[ab]", "[^a]", "."]


def linear():
    """LNFA: literals and classes in a row."""
    return st.lists(st.sampled_from(ATOMS), min_size=2, max_size=6).map("".join)


def general():
    """NFA: a random tree behind a literal (never nullable)."""
    return scannable_trees(max_leaves=5).map(lambda tree: tree.to_pattern())


def counted():
    """NBVA: a counter too wide for the compiler to unfold."""
    body = st.sampled_from(["b", "[bc]", "(ab|c)", "[^x]"])
    return st.tuples(body, st.booleans(), st.integers(9, 13)).map(
        lambda t: f"a{t[0]}{{{0 if t[1] else t[2]},{t[2]}}}x"
    )


def anchored(pattern: str):
    return st.tuples(st.booleans(), st.booleans()).map(
        lambda ends: "^" * ends[0] + pattern + "$" * ends[1]
    )


def rulesets():
    pattern = st.one_of(linear(), general(), counted()).flatmap(anchored)
    return st.lists(pattern, min_size=1, max_size=4)


# Witnesses for every structure, counters' included.
TOKENS = [b"a", b"b", b"c", b"x", b"ab", b"abc", b"abbbbbbbbbbx", b"acbcbcbcbcx"]


def streams():
    return st.lists(st.sampled_from(TOKENS), min_size=2, max_size=10).map(
        lambda tokens: b"".join(tokens)[:48]
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    patterns=rulesets(),
    data=streams(),
    knob=st.sampled_from(SWEEPS),
    knob_mode=st.sampled_from(list(MODES)),
)
def test_every_path(patterns, data, knob, knob_mode, tmp_path_factory):
    """One drawn ruleset and stream through every entry path, in every
    setting, plus one native knob turned."""
    assume(not compile_ruleset(patterns).rejected)
    case = Case(patterns, data)
    for pattern in patterns:  # the two oracles agree
        assert case.oracle[pattern] == cells.re_matches(pattern, data), pattern
    root = tmp_path_factory.mktemp("served")
    for mode in MODES:
        for backend in HOST:
            for input_jobs in INPUT_JOBS:
                cells.bulk(case, mode, backend, input_jobs)
            cells.served(case, mode, backend, root)
        cells.durable(case, mode, backends=HOST)
    cells.labels_agree(case)
    if "native" in HOST:
        cells.sweep(case, knob_mode, knob)


# -- pinned rulesets ----------------------------------------------------------

# Seams of a durable scan: the first byte, both sides of the end of the
# lane kernel's first lockstep block, one byte before the end.
SEAMS = (1, 512, 513, 1999)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PINNED)
def test_pinned(name, mode, tmp_path):
    """Every setting, bulk (``auto``: through the engine's worker pool),
    durable and served."""
    case = pinned(name)
    for backend in HOST:
        for input_jobs in INPUT_JOBS:
            cells.bulk(case, mode, backend, input_jobs, pool=mode == "auto")
        cells.served(case, mode, backend, tmp_path, segment=512)
    cells.durable(case, mode, SEAMS, backends=HOST)
    if mode == "dfa":
        cells.labels_agree(case)


@needs_native
@pytest.mark.parametrize(
    "name, knob",
    [  # each knob where it bites hardest
        ("keywords64", "lane cap 8"),
        ("snort_nfa64", "unit cap 8"),
        ("snort_nfa64", "forest of one"),
        ("snort_mix16", "hit buffer 1"),
        ("snort_mix16", "event slack 1"),
    ],
)
def test_pinned_sweep(name, knob):
    cells.sweep(pinned(name), "auto", knob, seams=(513, 1000))


@needs_native
@pytest.mark.parametrize(
    "name, writer, readers, input_jobs",
    [  # every ordered pair of backends, once
        ("keywords64", "native", ("fused", "python"), 2),
        ("snort_nfa64", "fused", ("native", "python"), 2),
        ("snort_mix16", "python", ("native", "fused"), 1),
    ],
)
def test_sigkill_resume(name, writer, readers, input_jobs, tmp_path):
    cells.sigkill_resume(pinned(name), tmp_path, writer, readers, input_jobs=input_jobs)
