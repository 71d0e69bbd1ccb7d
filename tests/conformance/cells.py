"""Cases, settings and entry paths of the conformance matrix.

Every path function takes a :class:`Case`, a mode and (where it runs on
one) a backend, runs the case's stream through that entry point, and
asserts the two oracles of the package docstring.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

from repro.automata.reference import ReferenceMatcher
from repro.compiler import CompilerConfig, compile_ruleset
from repro.compiler.program import CompiledMode
from repro.core import (
    available_backends,
    codegen,
    resolve_backend_with_reason,
    use_backend,
)
from repro.engine import BatchEngine, EngineConfig
from repro.engine.checkpoint import CheckpointStore, DurableScan
from repro.hardware.config import DEFAULT_CONFIG as HW
from repro.regex.parser import parse_anchored
from repro.serve.registry import TenantEntry
from repro.serve.session import ScanSession
from repro.simulators.rap import RAPSimulator, bind
from repro.workloads.inputs import generate_input

from tests.helpers import assert_results_identical, re_end_positions

MODES = {"auto": None, "nfa": CompiledMode.NFA, "dfa": CompiledMode.DFA}
BACKENDS = ("python", "fused", "native")
# Cells run where their backend does (``test_the_host_runs_every_backend``
# says when that is not all three).
HOST = tuple(backend for backend in BACKENDS if backend in available_backends())
INPUT_JOBS = (1, 2)
# Feed sizes of the streamed durable and served cells: ending inside one
# of the lane kernel's lockstep sub-spans (``codegen.LANE_SUBSPAN_BYTES``
# is 128) or one byte past 4 KiB, with a quote, a drain and a restore
# between feeds.
SEGMENTS = (1, 127, 129, 4097)
REPO = Path(__file__).resolve().parents[2]


@functools.cache
def reference_matches(pattern: str, data: bytes) -> list[int]:
    """``pattern``'s match end positions by the reference matcher (once
    per pattern and stream: the cursor cases share theirs)."""
    parsed = parse_anchored(pattern)
    return ReferenceMatcher(
        parsed.regex,
        anchored_start=parsed.anchored_start,
        anchored_end=parsed.anchored_end,
    ).find_matches(data)


def re_matches(pattern: str, data: bytes) -> list[int]:
    """The same by Python's ``re`` (``$`` binds to the stream's end)."""
    ends = re_end_positions(pattern, data.decode("latin-1"))
    if parse_anchored(pattern).anchored_end:
        ends = [end for end in ends if end == len(data) - 1]
    return ends


class Case:
    """One pattern list and one stream: compiled once per mode, run once
    per mode on the serial ``python`` backend (the reference result),
    matched once by the reference matcher.  ``compiler`` pins a tier
    (``forced_mode`` beats every mode's soft override)."""

    def __init__(
        self,
        patterns,
        data: bytes,
        *,
        bin_size: int | None = None,
        compiler: CompilerConfig | None = None,
    ):
        self.patterns = list(patterns)
        self.data = data
        self.bin_size = bin_size
        self.compiler = compiler or CompilerConfig()
        self.oracle = {p: reference_matches(p, data) for p in self.patterns}
        self._rulesets: dict = {}
        self._references: dict = {}

    def ruleset(self, mode: str = "auto"):
        if mode not in self._rulesets:
            config = self.compiler.with_mode_override(MODES[mode])
            ruleset = compile_ruleset(self.patterns, config)
            assert not ruleset.rejected, ruleset.rejected
            self._rulesets[mode] = ruleset
        return self._rulesets[mode]

    def expected(self, mode: str) -> dict[int, list[int]]:
        """The oracle's matches, keyed as a result of ``ruleset(mode)``."""
        return {r.regex_id: self.oracle[r.pattern] for r in self.ruleset(mode)}

    def reference(self, mode: str = "auto"):
        """The serial ``python``-backend ``SimulationResult``."""
        if mode not in self._references:
            with use_backend("python"):
                result = RAPSimulator(HW).run(
                    self.ruleset(mode), self.data, bin_size=self.bin_size
                )
            assert result.matches == self.expected(mode)
            self._references[mode] = result
        return self._references[mode]

    def twin(self) -> "Case":
        """The same case with new ruleset objects — hence new bindings —
        sharing this one's oracle and reference results."""
        twin = Case.__new__(Case)
        vars(twin).update(vars(self), _rulesets={})
        return twin


# The ledger's rulesets: 64 keywords (LNFA), 64 Snort-profile NFA
# regexes, and the paper's Fig. 1 mix (NBVA + NFA + LNFA).
PINNED = ("keywords64", "snort_nfa64", "snort_mix16")


@functools.cache
def pinned(name: str) -> Case:
    """One of ``PINNED`` over 2 000 bytes of traffic planting a witness
    of its first eight patterns every 25 — so one pattern fires in
    several sub-spans of one lockstep block of the lane kernel.  One case
    per process: bindings and references are shared by every cell."""
    from benchmarks.ledger.workloads import RULESETS

    patterns = RULESETS[name]()
    data = generate_input(
        "network", 2000, seed=9, patterns=patterns[:8], plant_every=25
    )
    return Case(patterns, data)


# Fresh cursor counts of a native unit forest: state vectors whose last
# vector holds 15, 16, 1, 15, 16 or 4 units of 16.
CURSORS = (31, 32, 33, 47, 64, 100)
# The durable feed of the cursor cases: a span that ends on the unit
# kernel's 65 536-byte flush of its live sums.
FEED = 64 << 10


@functools.cache
def cursors(count: int) -> Case:
    """The first ``count`` of 100 Snort-profile NFA regexes (the first 64
    are ``snort_nfa64``), one fresh cursor each, over 66 000 bytes of
    traffic planting a witness of one of the 100 every 600 — the
    ``bulk_nfa_hot`` density."""
    from repro.workloads.datasets import generate_mode_patterns
    from repro.workloads.profiles import PROFILES

    patterns = generate_mode_patterns(
        PROFILES["Snort"], CompiledMode.NFA, CURSORS[-1], seed=0
    )
    data = generate_input(
        "network", 66_000, seed=9, patterns=patterns, plant_every=600
    )
    return Case(patterns[:count], data)


# The state-vector step's edge cases, run under ``--mode nfa`` (every
# regex a GATHER unit): a start- and an end-anchored unit; edges of
# distances other than 0, +1 and +2; a unit of exactly 32 positions,
# which packs, and one of 33, whose binding steps scalar.  Each stream
# starts and ends on a witness.
_TAIL = "efghijklmnopqrstuvwxyzEFGHIJK"
VECTORS = {
    "anchored": (
        ["^ab[cd]*e", "x[yz]+w$", "q(r|s)*t"],
        b"abcdce qrst abce xyw qt abe xzzyw",
    ),
    "distances": (
        ["a(bc)*d", "(ab|cd)*ef", "x(yz|w)*yv"],
        b"abcbcd ad abcdabef ef xyzwyv adcd cdef abcd",
    ),
    "32 positions": (
        ["(ab|cd)*" + _TAIL[:28], "a(bc)*d"],
        f"cdab{_TAIL[:28]} abcd {_TAIL} ab{_TAIL[:28]}".encode(),
    ),
    "33 positions": (
        ["(ab|cd)*" + _TAIL, "a(bc)*d"],
        f"cdab{_TAIL} abcd {_TAIL[:28]} ab{_TAIL}".encode(),
    ),
}


@functools.cache
def vectors(name: str) -> Case:
    """One of ``VECTORS``."""
    return Case(*VECTORS[name])


def reordered(case: Case, mode: str) -> None:
    """Every GATHER unit of ``ruleset(mode)`` as one span's cursors, in
    unit order (the state-vector step) and reversed (as many cursors,
    not unit ``u`` in lane ``u``: the scalar path), over two spans, the
    second entered at the first's exit words: on ``native`` each
    cursor's events, counters and exit equal the walker's
    (``fused``)."""
    cut = len(case.data) // 2
    got = {}
    for backend in ("fused", "native"):
        with on(backend):
            fused = bound(case, mode, backend).plan.fused
        units = list(range(fused.unit_count))
        for order in (units, units[::-1]):
            head = fused.scan_span(
                fused.translate(case.data[:cut]),
                [(n, None) for n in order],
                at_end=False,
            )[1]
            entries = [(n, word) for n, (_, _, word) in zip(order, head)]
            tail = fused.scan_span(fused.translate(case.data[cut:]), entries)[1]
            got.setdefault(backend, []).append((head, tail))
    assert got["native"] == got["fused"]


def assert_conforms(case: Case, mode: str, got) -> None:
    """The two oracles: matches, then the whole result."""
    assert got.matches == case.expected(mode)
    assert got == case.reference(mode)


def labels_agree(case: Case) -> None:
    """One automaton, two labels: when every regex of the ``dfa``-mode
    ruleset took NFA or DFA, it matches, counts and prices as the
    ``nfa``-mode one."""
    nfa_or_dfa = (CompiledMode.NFA, CompiledMode.DFA)
    if all(r.mode in nfa_or_dfa for r in case.ruleset("dfa")):
        assert_results_identical(case.reference("dfa"), case.reference("nfa"))


@contextlib.contextmanager
def on(backend: str):
    """Run on ``backend`` and nowhere else: a cell never passes on a
    fallback."""
    with use_backend(backend):
        assert resolve_backend_with_reason() == (backend, None), backend
        yield


def assert_compiled(plan) -> None:
    """On ``native``: every lane group and every unit table under its
    cap runs generated C — no silent drop to the walker."""
    if plan.scanner is not None:
        tier = plan.scanner.lane_tier
        cap = f" closure > {codegen.LANE_DFA_MAX_STATES})"
        assert tier.startswith("dfa (") or tier.endswith(cap), tier
    fused = plan.fused
    tiers = [fused.unit_tier(n) for n in range(fused.unit_count)]
    cap = f"interpreted (closure > {codegen.UNIT_DFA_MAX_STATES})"
    assert all(t.startswith("table (") or t == cap for t in tiers), tiers
    if any(t.startswith("table (") for t in tiers) or codegen.native_nbva_indices(
        fused
    ):
        assert fused.native_active


def bound(case: Case, mode: str, backend: str):
    """The binding every path of ``backend`` scans ``ruleset(mode)`` with
    (call under :func:`on`)."""
    binding = bind(case.ruleset(mode), HW, case.bin_size)
    if backend == "native":
        assert_compiled(binding.plan)
    return binding


# -- entry paths ------------------------------------------------------------


def bulk(case: Case, mode: str, backend: str, input_jobs: int, *, min_chunk=1):
    """``BatchEngine.scan``.  Split scans own ``min_chunk`` bytes or more
    per chunk (by default seams fall on arbitrary bytes)."""
    with on(backend):
        bound(case, mode, backend)
        config = EngineConfig(
            jobs=1, backend=backend, input_jobs=input_jobs,
            min_chunk_bytes=min_chunk, use_cache=False,
        )
        got = BatchEngine(config).scan(case.ruleset(mode), case.data, case.bin_size)
    assert_conforms(case, mode, got)


def canonical(doc: dict) -> bytes:
    """A snapshot's canonical bytes, fingerprint included: no field of
    it may differ across backends."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def durable(
    case: Case, mode: str, seams=None, backends=BACKENDS, segments=()
) -> None:
    """A durable scan on each backend, cut at ``seams`` (default: every
    byte) with a snapshot at each: the documents byte-identical across
    backends at every seam, each restored on every backend — its writer
    rotating over the others, so every ordered pair runs — and finished
    equal to the uninterrupted scan; and ``BatchEngine.durable_scan``.
    Then, per size of ``segments``, :func:`streamed`."""
    ruleset, data = case.ruleset(mode), case.data
    seams = list(range(1, len(data)) if seams is None else seams)
    docs, finals = {}, {}
    for backend in backends:
        with on(backend):
            mapping = bound(case, mode, backend).mapping
            scan = DurableScan(ruleset, mapping, HW, bin_size=case.bin_size)
            docs[backend], at = [], 0
            for seam in seams:
                scan.feed(data[at:seam], at_end=False)
                docs[backend].append(canonical(scan.snapshot()))
                at = seam
            scan.feed(data[at:], at_end=True)
            finals[backend] = scan.finish()
            config = EngineConfig(
                jobs=1, checkpoint_every_bytes=max(1, len(data) // 3), use_cache=False
            )
            outcome = BatchEngine(config).durable_scan(ruleset, data, case.bin_size)
        assert_conforms(case, mode, outcome.result)
    first = backends[0]
    for backend in backends:
        for seam, doc, want in zip(seams, docs[backend], docs[first]):
            assert doc == want, (backend, seam)
        assert finals[backend] == finals[first], backend
    # (every backend maps a ruleset alike: any binding's mapping prices)
    priced = RAPSimulator(HW).run_from_activity(ruleset, finals[first], mapping)
    assert_conforms(case, mode, priced)
    for b, backend in enumerate(backends):
        with on(backend):
            mapping = bound(case, mode, backend).mapping
            for k, seam in enumerate(seams):
                writer = backends[(b + 1 + k % 2) % len(backends)]
                resumed = DurableScan(ruleset, mapping, HW, bin_size=case.bin_size)
                resumed.restore(json.loads(docs[writer][k]), data)
                resumed.feed(data[seam:], at_end=True)
                assert resumed.finish() == finals[first], (writer, backend, seam)
    for size in segments:
        streamed(case, mode, size, backends)


def streamed(case: Case, mode: str, size: int, backends=BACKENDS) -> None:
    """A durable scan fed ``size`` bytes at a time on each backend, as a
    served stream is: after each feed the energy quote and the drain,
    and after every other one its snapshot restored into a second scan
    that carries on.  Per feed the document (by SHA-256) and the quote
    (by ``float.hex``) are the same on every backend; the drains add up
    to the oracle's matches and the finish prices to the reference."""
    ruleset, data = case.ruleset(mode), case.data
    trails, finals = {}, {}
    for backend in backends:
        with on(backend):
            mapping = bound(case, mode, backend).mapping
            sim = RAPSimulator(HW)
            scans = [
                DurableScan(ruleset, mapping, HW, bin_size=case.bin_size)
                for _ in range(2)
            ]
            trail, drained = [], {}
            for k, at in enumerate(range(0, len(data), size)):
                scan = scans[0]
                scan.feed(data[at : at + size], at_end=at + size >= len(data))
                quote = sim.replay_charges(scan.binding.charges, *scan.counters())
                for rid, ends in scan.drain().items():
                    drained.setdefault(rid, []).extend(ends)
                doc = canonical(scan.snapshot())
                trail.append((hashlib.sha256(doc).hexdigest(), quote.energy_uj.hex()))
                if k % 2:
                    scans[1].restore(json.loads(doc), data)
                    scans.reverse()
            finals[backend] = scans[0].finish()
        want = {rid: ends for rid, ends in case.expected(mode).items() if ends}
        assert drained == want, (backend, size)
        trails[backend] = trail
    first = backends[0]
    for backend in backends:
        assert trails[backend] == trails[first], (backend, size)
        assert finals[backend] == finals[first], (backend, size)
    priced = RAPSimulator(HW).run_from_activity(ruleset, finals[first], mapping)
    assert_conforms(case, mode, priced)


def served(case: Case, mode: str, backend: str, root, segment: int = 7) -> None:
    """A served ``ScanSession`` fed ``segment`` bytes at a time, quoted
    after every frame and its scan restored from its own snapshot after
    every other one: its events, deduplicated by ``(end, rid)``, are the
    reference matches; its totals the reference totals; its quotes and
    its durable offset never move back."""
    ruleset = case.ruleset(mode)
    want = case.reference(mode)
    with on(backend):
        binding = bound(case, mode, backend)
        entry = TenantEntry(
            "t", 1, tuple(case.patterns), ruleset, binding.mapping,
            binding.fingerprint(case.bin_size),
        )
        store = CheckpointStore(root, session=f"{mode}-{backend}")
        session = ScanSession("t", "s", entry, store, HW, bin_size=case.bin_size)
        events, offset, quote = [], 0, 0.0
        for k, at in enumerate(range(0, len(case.data), segment)):
            events += session.feed(case.data[at : at + segment])
            assert session.offset >= offset and session.total_energy_uj() >= quote
            offset, quote = session.offset, session.total_energy_uj()
            if k % 2:  # as a resume does (ScanSession.from_envelope)
                resumed = DurableScan(
                    ruleset, binding.mapping, HW, bin_size=case.bin_size
                )
                resumed.restore_detached(session.scan.snapshot())
                session.scan = resumed
        events += session.end()
    ends = {(end, rid) for rid, found in want.matches.items() for end in found}
    assert sorted(map(tuple, events)) == sorted(ends)
    assert session.offset == len(case.data)
    assert session.total_matches() == len(ends)
    assert session.total_energy_uj() == want.energy_uj


# -- native knob sweeps -----------------------------------------------------


def _hit_buffer(plan, entries: int) -> None:
    """Every event buffer of the bound kernels ``entries`` long (a unit
    call still holds one entry per cursor: the kernel emits whole
    bytes)."""
    if plan.fused.native_active:
        plan.fused._native_scanner()._cap = entries


SWEEPS = ("hit buffer 1", "event slack 1", "lane cap 8", "unit cap 8", "forest of one")


def sweep(case: Case, mode: str, knob: str, seams=None) -> None:
    """``native`` with one knob of ``SWEEPS`` turned — bulk at both
    ``input_jobs`` and a durable scan cut at ``seams`` — on new ruleset
    objects (a cap is read when a table is built), against the same
    references; and the tier the knob aims at: a table past a cap is
    walked, one within it is not, a table the forest has no room for is
    walked."""
    with on("native"):
        plan = bound(case, mode, "native").plan
    lanes = plan.scanner.lane_dfas() if plan.scanner is not None else []
    count = plan.fused.unit_count
    units = [plan.fused.unit_tier(n) for n in range(count)]
    bases = plan.fused._native_scanner().bases if plan.fused.native_active else []
    placed = [base for base in bases if isinstance(base, int)]
    caps = {"lane cap 8": "LANE_DFA_MAX_STATES", "unit cap 8": "UNIT_DFA_MAX_STATES"}
    with contextlib.ExitStack() as patches:
        if knob in caps:
            patches.enter_context(mock.patch.object(codegen, caps[knob], 8))
        forest = knob == "forest of one" and len(placed) > 1
        if forest:  # room for the first placed table only
            room = placed[1] * plan.fused.classes.k
            patches.enter_context(mock.patch.object(codegen, "FOREST_ENTRIES", room))
        patches.enter_context(on("native"))
        twin = case.twin()
        turned = bound(twin, mode, "native").plan
        if knob == "hit buffer 1":
            _hit_buffer(turned, 1)
        elif knob == "event slack 1":
            _hit_buffer(turned, count + 1)
        if lanes:
            walked = plan.scanner.lane_tier.startswith("interpreted") or (
                knob == "lane cap 8" and any(table.closed > 8 for table in lanes)
            )
            tier = turned.scanner.lane_tier
            assert tier.startswith("interpreted (" if walked else "dfa ("), tier
        for n, before in enumerate(units):
            closed = re.fullmatch(r"table \((\d+) states\)", before)
            walked = knob == "unit cap 8" and (not closed or int(closed[1]) > 8)
            after = turned.fused.unit_tier(n)
            assert after == ("interpreted (closure > 8)" if walked else before), n
        if forest:
            assert turned.fused._native_scanner().bases == [
                "forest full" if isinstance(base, int) and base else base
                for base in bases
            ]
        for input_jobs in INPUT_JOBS:
            bulk(twin, mode, "native", input_jobs)
        durable(twin, mode, seams, backends=("python", "native"))


# -- SIGKILL resume (subprocesses) --------------------------------------------


def sigkill_resume(
    case: Case, tmp_path, writer: str, readers, *, input_jobs: int = 1
) -> None:
    """``rap scan --checkpoint-dir`` SIGKILLed (``kill@2``, halfway: a
    checkpoint every quarter of the stream) on ``writer`` under
    ``--input-jobs input_jobs``, its directory copied and resumed on each
    of ``readers`` (a backend, or ``(backend, input_jobs)``): stdout and
    the ``# RAP`` line are the reference run's."""
    every = len(case.data) // 4
    tmp_path.mkdir(parents=True, exist_ok=True)
    rules, stream = tmp_path / "rules.txt", tmp_path / "input.bin"
    rules.write_text("\n".join(case.patterns) + "\n")
    stream.write_bytes(case.data)
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("RAP_") or k == "RAP_CACHE_DIR"
    }
    env["PYTHONPATH"] = str(REPO / "src")

    def scan(backend, ckpts, *extra, fault=""):
        argv = [
            sys.executable, "-m", "repro", "scan", "--patterns", str(rules),
            str(stream), "--no-cache", "--metrics", "--backend", backend,
            "--checkpoint-dir", str(ckpts), "--checkpoint-every", str(every), *extra,
        ]
        return subprocess.run(
            argv, capture_output=True, text=True, cwd=REPO,
            env=dict(env, RAP_FAULT_PLAN=fault),
        )

    killed = tmp_path / f"killed-{writer}"
    run = scan(writer, killed, "--input-jobs", str(input_jobs), fault="kill@2")
    assert run.returncode in (-signal.SIGKILL, 137), run.stderr
    assert CheckpointStore(killed)._paths(), "no checkpoint survived"
    ruleset, want = case.ruleset("auto"), case.reference("auto")
    golden = "".join(
        f"{end}\t{r.regex_id}\t{r.pattern}\n"
        for r in ruleset
        for end in want.matches[r.regex_id]
    )
    for reader in readers:
        reader, jobs = (reader, 1) if isinstance(reader, str) else reader
        ckpts = tmp_path / f"{writer}-to-{reader}-{jobs}"
        shutil.copytree(killed, ckpts)
        resumed = scan(reader, ckpts, "--resume", "--input-jobs", str(jobs))
        assert resumed.returncode == 0, resumed.stderr
        said = resumed.stderr.splitlines()
        assert f"# resumed from checkpoint at byte {2 * every}" in said
        assert f"# {want.summary()}" in said, (writer, reader)
        assert resumed.stdout == golden, (writer, reader)
