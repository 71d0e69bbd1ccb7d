"""An NBVA array's stalls are a count: on every backend and entry path,
each array's ``stalls`` is its BV depth times the union of its regexes'
BV-cycle positions, as the python oracle computes it from the positions
it alone keeps (:class:`~repro.core.trace.ActivityTrace`)."""

import dataclasses
import json
import random

import pytest

from repro.compiler import compile_ruleset
from repro.core import available_backends, codegen, use_backend
from repro.core.trace import ActivityTrace
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import DurableScan
from repro.hardware.config import DEFAULT_CONFIG, TileMode
from repro.simulators.rap import ChargePlan, RAPSimulator, bind

BACKENDS = available_backends()
PLANNED = [b for b in BACKENDS if b != "python"]

# Two-tile arrays: regexes 0, 1, 3 and 4 share the first, regex 2 (regex
# 0 again: one unit, two arrays) sits alone in the second; 0, 1 and 4
# count on the same runs of [ab], so the first array's union is smaller
# than the sum of its regexes' BV cycles.
HW = dataclasses.replace(DEFAULT_CONFIG, tiles_per_array=2)
PATTERNS = [
    "x[ab]{60,900}y", "z[ab]{60,900}w", "x[ab]{60,900}y", "k[ab]{10,20}m",
    "[ab]{12,30}w",
]
# 77 states, past the C kernel's 64: its unit is stepped by the oracle,
# and so is every unit of its array.
WIDE = (
    "(foo|bar|baz|qux|quux|corge|grault|garply|waldo|fred|plugh|xyzzy|"
    "thud|wibble|wobble|wubble)[ab]{10,20}c"
)


def stream(size: int, seed: int = 3) -> bytes:
    """Runs of [ab] behind the patterns' openers, some closed."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        out += rng.choice([b"x", b"z", b"k", b"foo", b"q"])
        out += bytes(rng.choice(b"ab") for _ in range(rng.randrange(5, 120)))
        out += rng.choice([b"y", b"w", b"m", b"c", b""])
    return bytes(out[:size])


def oracle(ruleset, mapping, hw, data) -> tuple[list[int], list[int]]:
    """Per NBVA array: depth x the union of its regexes' BV cycles, and
    the sum of their BV cycles, from the python oracle's positions."""
    trace = ActivityTrace(data)
    by_id = {r.regex_id: r for r in ruleset}
    unions, sums = [], []
    for _, mode, geometry, _ in ChargePlan(ruleset, mapping, hw).arrays:
        if mode is TileMode.NBVA:
            cycles = [trace.bv_cycle_indices(by_id[rid]) for rid in geometry.regex_ids]
            unions.append((geometry.depth or 0) * len(set().union(*cycles)))
            sums.append((geometry.depth or 0) * sum(map(len, cycles)))
    return unions, sums


def stalls(result) -> list[int]:
    return [r.stalls for r in result.array_reports if r.mode == "nbva"]


def durable(ruleset, hw, data, sizes, backend) -> list[int]:
    """A durable scan fed segments of ``sizes`` in turn, restored from
    its snapshot at every seam, priced."""
    with use_backend(backend):
        mapping = bind(ruleset, hw).mapping
        scan, at, k = DurableScan(ruleset, mapping, hw), 0, 0
        while at < len(data):
            end = min(len(data), at + sizes[k % len(sizes)])
            scan.feed(data[at:end], at_end=end == len(data))
            doc = json.loads(json.dumps(scan.snapshot()))
            scan = DurableScan(ruleset, mapping, hw)
            scan.restore(doc, data)
            at, k = end, k + 1
        priced = RAPSimulator(hw).run_from_activity(ruleset, scan.finish(), mapping)
    return stalls(priced)


@pytest.fixture(scope="module")
def ruleset():
    return compile_ruleset(PATTERNS)


@pytest.fixture(scope="module")
def data():
    return stream(6000)


@pytest.fixture(scope="module")
def want(ruleset, data):
    with use_backend("python"):
        return oracle(ruleset, bind(ruleset, HW).mapping, HW, data)


def test_overlapping_regexes_stall_their_union(ruleset, data, want):
    unions, sums = want
    assert len(unions) == 2 and unions[0] < sums[0] and unions[1] > 0
    for backend in BACKENDS:
        with use_backend(backend):
            result = RAPSimulator(HW).run(ruleset, data)
        assert stalls(result) == unions, backend
        assert result.stall_cycles == sum(unions), backend
    if PLANNED:  # regex 0's unit is a cursor of both arrays
        with use_backend(PLANNED[0]):
            groups = bind(ruleset, HW).plan.stall_groups
        assert [units for _, units in groups] == [(0, 1, 2, 3), (0,)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_durable_seams_add_up(ruleset, data, want, backend):
    """Segments of 1, 127, 129 and 4097 bytes, each seam a restore: BV
    cycles fall on both sides of some seam, and the counts add."""
    sizes = [1, 127, 129, 4097]
    seams, at = set(), 0
    for k in range(8):
        at += sizes[k % 4]
        seams.add(at)
    trace = ActivityTrace(data)
    cycles = set().union(*map(trace.bv_cycle_indices, ruleset))
    assert any(s - 1 in cycles and s in cycles for s in seams)
    assert durable(ruleset, HW, data, sizes, backend) == want[0]


@pytest.mark.skipif("native" not in BACKENDS, reason="needs a C compiler")
def test_block_edges_and_refills(monkeypatch, data, want):
    """Native, 64-byte blocks and a one-entry event buffer: BV cycles on
    both sides of block edges, a refill after every match — bulk and
    durable count what the oracle unions."""
    monkeypatch.setattr(codegen, "NBVA_BLOCK", 64)
    trace = ActivityTrace(data)
    cycles = set().union(*map(trace.bv_cycle_indices, compile_ruleset(PATTERNS)))
    assert any(p % 64 == 63 and p + 1 in cycles for p in cycles)
    fresh = compile_ruleset(PATTERNS)  # a binding built under the patch
    with use_backend("native"):
        plan = bind(fresh, HW).plan
        native = plan.fused._native_scanner()
        assert "#define NBVA_BLOCK 64\n" in native._source
        assert native.native_groups == {0, 1}
        native._cap = 1  # every match refills the buffer
        calls, fn = [], native._span_fn
        monkeypatch.setattr(native, "_span_fn", lambda *a: calls.append(1) or fn(*a))
        result = RAPSimulator(HW).run(fresh, data)
    assert stalls(result) == want[0]
    # one crossing per match (regex 0's unit is two cursors, like 0 and 2)
    reports = sum(map(len, result.matches.values()))
    assert reports and len(calls) == 1 + reports
    assert durable(fresh, HW, data, [1, 127, 129, 4097], "native") == want[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_input_jobs_two(ruleset, data, want, backend):
    """The split engine deals the two stall groups to two tasks; the
    python backend's engine scan ignores ``input_jobs`` and runs serial."""
    with use_backend(backend):
        binding = bind(ruleset, HW)
        if backend == "python":
            config = EngineConfig(input_jobs=2, backend="python", use_cache=False)
            result = BatchEngine(config, hw=HW).scan(ruleset, data)
        else:
            from repro.engine.split import split_collect

            activity = split_collect(binding, data, input_jobs=2, min_chunk_bytes=1)
            assert activity is not None
            result = RAPSimulator(HW).run_from_activity(
                ruleset, activity, binding.mapping
            )
    assert stalls(result) == want[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_array_holding_a_walked_unit(backend):
    """A 77-state unit beside a narrow one in one array: on native the
    narrow unit is compiled, yet the whole group runs on the oracle."""
    patterns = [WIDE, "k[ab]{10,20}m"]
    ruleset = compile_ruleset(patterns)
    data = stream(3000, seed=5)
    with use_backend("python"):
        mapping = bind(ruleset, DEFAULT_CONFIG).mapping
        unions, _ = oracle(ruleset, mapping, DEFAULT_CONFIG, data)
    assert len(unions) == 1 and unions[0] > 0
    with use_backend(backend):
        if backend == "native":
            native = bind(ruleset, DEFAULT_CONFIG).plan.fused._native_scanner()
            assert not native.has_nbva(0) and native.has_nbva(1)
            assert native.native_groups == frozenset()
        result = RAPSimulator().run(ruleset, data)
    assert stalls(result) == unions
    sizes = [1, 127, 129, 4097]
    assert durable(ruleset, DEFAULT_CONFIG, data, sizes, backend) == unions
