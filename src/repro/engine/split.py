"""Input-parallel scanning: one stream, many workers, exact stitching.

Ruleset sharding (:meth:`BatchEngine.scan`'s per-regex/per-bin units)
cannot help when one large stream meets many cores.  This module splits
the *input* instead, using the Simultaneous-Finite-Automata construction
(:mod:`repro.core.sfa`): each worker scans its chunk over the fused
backend from every reachable start configuration, and the parent
composes the per-chunk state mappings associatively, so matches,
wake-ups, and the energy ledger are bit-identical to the serial fused
path.

Each compiled unit rides the cheapest sound mechanism:

* **Lane-packed Shift-And / LNFA bins** — a chunk's
  :class:`~repro.core.sfa.ShiftMap` turns *constant* once the chunk
  outlives the widest member, so evaluating it degenerates to a
  warm-up-window scan from the zero word: single pass, near-linear
  speedup.  Chunks too short for their window replay from the stream
  start instead (exact, merely slower), so any split point is sound.
* **Bounded NFA mask stacks** (acyclic Glushkov automata) — the same
  warm-up argument with window ``longest_activation_path + 1``.
* **Cyclic NFA mask stacks** — no window exists, so chunks build a
  bounded :class:`~repro.core.sfa.FrontierMap` table (round one), the
  parent composes entry states through it, and a second round rescans
  each chunk from its exact entry state.  Frontier tables cost one
  frontier per state bit, so units wider than
  :data:`MAX_FRONTIER_STATES` fall back to one serial whole-stream
  task.
* **DFA-mode tables** — acyclic automata ride the bounded warm-up
  window exactly like NFA mask stacks; cyclic ones use the same
  two-round scheme with a :class:`~repro.core.sfa.StateMap` instead of
  a frontier table.  A DFA chunk mapping is plain function composition
  over the unit's closed table, so only a unit whose closure blew the
  table cap (it is never closed) falls back to a serial task.
* **NBVA counter units** — counter vectors carry unbounded history;
  they always run as serial whole-stream tasks (in parallel with the
  chunk tasks, deduped by functional fingerprint).

The parent merges per-chunk activity in chunk order with the same
associative ``merge`` discipline the ruleset-sharding path uses, then
rebuilds containers in sequential collection order — dict iteration,
match ordering, and every counter equal the serial fused run exactly.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from dataclasses import dataclass

from repro.compiler.program import CompiledMode, CompiledRuleset
from repro.core import use_backend
from repro.engine.partition import longest_activation_path, plan_chunks
from repro.engine.pool import parallel_map
from repro.hardware.config import HardwareConfig
from repro.mapping.mapper import Mapping
from repro.simulators.activity import (
    BinActivity,
    RegexActivity,
    nbva_activity,
)
from repro.simulators.fused import unit_activity
from repro.simulators.rap import RunActivity, bind

# Frontier-map tables cost one frontier per state bit; beyond this width
# a cyclic unit is cheaper as one serial whole-stream task.
MAX_FRONTIER_STATES = 64

# Unit mechanisms (see module docstring).
BOUNDED = "bounded"
FRONTIER = "frontier"
STATEMAP = "statemap"
SERIAL = "serial"


@dataclass(frozen=True)
class SplitLayout:
    """The deterministic split policy of one input-parallel scan.

    Everything the chunk plan depends on — and nothing else — so equal
    layouts guarantee equal seams.  ``token`` is the canonical string
    hashed into durable-scan fingerprints.
    """

    input_jobs: int
    warm: int
    min_owned: int

    @property
    def token(self) -> str:
        return (
            f"split:v1:jobs={self.input_jobs}"
            f":warm={self.warm}:min={self.min_owned}"
        )


class SplitCompilation:
    """One ruleset's bound fused plan, classified for input-parallel
    scanning.

    Adds the split classification to the plan's unit layout: each NFA
    and DFA unit's mechanism (``unit_kind`` / ``dfa_kind``, indexed like
    ``nfa_units`` / ``dfa_units``; ``kinds`` is the two end to end, by
    cursor number) and the ruleset-wide warm-up window.
    Everything else (``bins``, ``fused``, ``scanner``, the unit lists,
    ``run_activity``) reads through to ``plan``.
    """

    def __init__(
        self, ruleset: CompiledRuleset, mapping: Mapping, hw: HardwareConfig
    ):
        self.plan = bind(ruleset, hw, mapping=mapping).plan
        warm = self.scanner.warm if self.scanner is not None else 1
        self.unit_kind: list[str] = []
        for compiled in self.nfa_units:
            bound = longest_activation_path(compiled.automaton)
            if bound is not None:
                self.unit_kind.append(BOUNDED)
                warm = max(warm, bound + 1)
            elif compiled.automaton.state_count <= MAX_FRONTIER_STATES:
                self.unit_kind.append(FRONTIER)
            else:
                self.unit_kind.append(SERIAL)
        self.dfa_kind: list[str] = []
        for unit, compiled in enumerate(self.dfa_units):
            bound = longest_activation_path(compiled.automaton)
            # A cyclic DFA unit's chunk mapping is a StateMap over its
            # closed table; only one whose closure blew the cap has none.
            if bound is not None:
                self.dfa_kind.append(BOUNDED)
                warm = max(warm, bound + 1)
            elif self.fused.dfa_table(unit) is not None:
                self.dfa_kind.append(STATEMAP)
            else:
                self.dfa_kind.append(SERIAL)
        # By cursor number, as the plan's span call numbers its units:
        # the NFA-mode ones, then the DFA-mode ones.
        self.kinds = self.unit_kind + self.dfa_kind
        self.warm = warm

    def __getattr__(self, name: str):
        return getattr(self.plan, name)

    @property
    def splittable(self) -> bool:
        """Whether any unit benefits from input chunking at all."""
        if self.scanner is not None:
            return True
        return any(kind is not SERIAL for kind in self.kinds)


def split_collect(
    ruleset: CompiledRuleset,
    mapping: Mapping,
    hw: HardwareConfig,
    data: bytes,
    *,
    bin_size: int | None,
    backend: str,
    input_jobs: int,
    jobs: int,
    min_chunk_bytes: int = 4096,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    fault_plan: str | None = None,
) -> RunActivity | None:
    """Collect one stream's activity with input-parallel chunking.

    Returns the exact :class:`RunActivity` a serial fused
    ``collect_activities`` would produce, or None when splitting is not
    applicable (stream too short for two chunks, or no chunkable units)
    — the caller then falls back to the serial path.  ``jobs`` sizes
    the worker pool; chunk tasks and serial whole-stream tasks (wide
    cyclic NFAs, NBVA counters) share it.
    """
    comp = SplitCompilation(ruleset, mapping, hw)
    n = len(data)
    layout = SplitLayout(
        input_jobs=input_jobs,
        warm=comp.warm,
        min_owned=max(1, min_chunk_bytes),
    )
    chunks = plan_chunks(n, input_jobs, comp.warm, min_owned=layout.min_owned)
    if len(chunks) <= 1 or not comp.splittable:
        return None

    payload = pickle.dumps(
        (ruleset, data, bin_size, hw, backend),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    last = len(chunks) - 1
    tasks: list[tuple] = [
        (
            "chunk",
            ci,
            chunk.start,
            chunk.end,
            chunk.warm_start,
            ci == last,
        )
        for ci, chunk in enumerate(chunks)
    ]
    kinds = comp.kinds
    for number, kind in enumerate(kinds):
        if kind is SERIAL:
            tasks.append(("serial", number))
    for unit in range(len(comp.nbva_units)):
        tasks.append(("nbva", unit))

    pool = dict(
        jobs=jobs,
        initializer=_init_split_worker,
        initargs=(payload,),
        finalizer=_reset_split_worker,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        fault_plan=fault_plan,
    )
    outcomes = parallel_map(_split_task, tasks, **pool)

    chunk_out: dict[int, tuple] = {}
    serial: dict[int, tuple] = {}
    nbva_out: dict[int, RegexActivity] = {}
    for task, outcome in zip(tasks, outcomes):
        if task[0] == "chunk":
            chunk_out[task[1]] = outcome
        elif task[0] == "serial":
            serial[task[1]] = outcome
        else:
            nbva_out[task[1]] = outcome

    # Two-round composition: chunk 0 scanned fresh and reported its exit
    # state; later chunks reported their chunk mapping (FrontierMap over
    # active sets for cyclic NFA units, StateMap over table states for
    # cyclic DFA units), through which the exact entry state of every
    # chunk is composed — then round two rescans those chunks from their
    # true entries, fully in parallel.
    two_round = [
        number for number, kind in enumerate(kinds) if kind in (FRONTIER, STATEMAP)
    ]
    round_two_parts: dict[tuple[int, int], tuple] = {}
    if two_round:
        entries: dict[int, dict[int, int]] = {ci: {} for ci in range(1, len(chunks))}
        for number in two_round:
            state = chunk_out[0][1][number][3]
            table = (
                comp.fused.dfa_table(number - len(comp.unit_kind))
                if kinds[number] is STATEMAP
                else None
            )
            for ci in range(1, len(chunks)):
                entries[ci][number] = state
                if ci == last:
                    break
                mapped = chunk_out[ci][2][number]
                if table is None:
                    state = mapped.apply(state)
                else:  # spans speak active sets, state maps table states
                    state = table.words[mapped.apply(table.ids[state])]
        round_two = [
            ("round2", ci, chunks[ci].start, chunks[ci].end, ci == last, entries[ci])
            for ci in range(1, len(chunks))
        ]
        for (_, ci, *_), result in zip(
            round_two, parallel_map(_split_task, round_two, **pool)
        ):
            for number, part in result.items():
                round_two_parts[(number, ci)] = part

    return _assemble(comp, chunks, chunk_out, serial, nbva_out, round_two_parts, n)


def _assemble(
    comp: SplitCompilation,
    chunks,
    chunk_out,
    serial,
    nbva_out,
    round_two_parts,
    n: int,
) -> RunActivity:
    """Fold per-chunk results, in chunk order, into the sequential run's
    exact :class:`RunActivity` (containers in collection order)."""
    order = range(len(chunks))
    kinds = comp.kinds

    def folded(number: int) -> tuple:
        """One unit's ``(positions, active, cycles)`` over all chunks
        (round two holds the rescans of two-round units' later chunks)."""
        if kinds[number] is SERIAL:
            return serial[number]
        positions: list[int] = []
        active = 0
        cycles = 0
        for ci in order:
            if ci > 0 and kinds[number] in (FRONTIER, STATEMAP):
                part = round_two_parts[(number, ci)]
            else:
                part = chunk_out[ci][1][number]
            positions.extend(part[0])
            active += part[1]
            cycles += part[2]
        return positions, active, cycles

    units: dict[CompiledMode, list[RegexActivity]] = {
        CompiledMode.NFA: [
            unit_activity(compiled, *folded(number))
            for number, compiled in enumerate(comp.nfa_units)
        ],
        CompiledMode.DFA: [
            unit_activity(compiled, *folded(number))
            for number, compiled in enumerate(comp.dfa_units, len(comp.unit_kind))
        ],
        CompiledMode.NBVA: [
            nbva_out[unit] for unit in range(len(comp.nbva_units))
        ],
    }

    # -- LNFA bins: fold lane deltas per chunk --------------------------
    bins: list[BinActivity] = []
    if comp.scanner is not None:
        merged = comp.scanner.merge_deltas([chunk_out[ci][0] for ci in order])
        for j, bin_obj in enumerate(comp.bins):
            matches = {item.regex_id: [] for item in bin_obj.items}
            for rid, ends in merged.matches[j].items():
                matches[rid].extend(ends)
            bins.append(
                BinActivity(
                    bin=bin_obj,
                    cycles=merged.cycles,
                    matches=matches,
                    tile_active_cycles=merged.tile_cycles[j],
                    tile_active_bits=merged.tile_bits[j],
                )
            )
    return comp.run_activity(units, bins, n)


# -- worker-side functions (module level: picklable by the pool) -----------

_SPLIT_STATE: dict = {}


def _init_split_worker(payload: bytes) -> None:
    """Seed one worker with the scan's shared, deterministic state."""
    ruleset, data, bin_size, hw, backend = pickle.loads(payload)
    _SPLIT_STATE["backend_scope"] = scope = ExitStack()
    scope.enter_context(use_backend(backend))
    mapping = bind(ruleset, hw, bin_size).mapping
    _SPLIT_STATE["data"] = data
    _SPLIT_STATE["comp"] = SplitCompilation(ruleset, mapping, hw)


def _reset_split_worker() -> None:
    """Clear the worker globals (the in-process fallback seeds the
    parent, which must not pin the stream — or the backend —
    afterwards)."""
    scope = _SPLIT_STATE.pop("backend_scope", None)
    if scope is not None:
        scope.close()
    _SPLIT_STATE.clear()


def _unit_parts(spans, base: int) -> list[tuple]:
    """Span results as the ``(global positions, active, cycles, exit
    active set)`` parts the parent folds."""
    return [
        (
            [base + i for i, _ in events],
            stats.active_states,
            stats.cycles,
            exit_state,
        )
        for events, stats, exit_state in spans
    ]


def _split_task(task: tuple):
    """Execute one split work unit inside a worker."""
    comp: SplitCompilation = _SPLIT_STATE["comp"]
    data: bytes = _SPLIT_STATE["data"]
    kind = task[0]
    if kind == "chunk":
        _, ci, start, end, warm_start, at_end = task
        return _run_chunk(comp, data, ci, start, end, warm_start, at_end)
    if kind == "round2":
        _, ci, start, end, at_end, entries = task
        spans = comp.fused.scan_units_span(
            list(entries.items()),
            comp.fused.translate(data[start:end]),
            at_end=at_end,
        )
        return dict(zip(entries, _unit_parts(spans, start)))
    if kind == "serial":
        _, number = task
        spans = comp.fused.scan_units_span(
            [(number, None)], comp.fused.translate(data)
        )
        return _unit_parts(spans, 0)[0][:3]
    _, unit = task  # "nbva"
    matches, stats, _ = comp.fused.scan_nbva_unit_span(
        unit, comp.fused.translate(data)
    )
    return nbva_activity(comp.nbva_units[unit], matches, stats)


def _run_chunk(
    comp: SplitCompilation,
    data: bytes,
    ci: int,
    start: int,
    end: int,
    warm_start: int,
    at_end: bool,
):
    """Scan one chunk: lanes plus every non-serial NFA and DFA unit.

    ``warm_start == 0`` replays from the true stream start (``fresh``),
    which keeps short-chunk plans exact; otherwise the warm-up window
    guarantees the zero-entry scan equals the sequential state by
    ``start``.  Frontier and statemap units are scanned directly only
    on chunk 0; later chunks return their owned-span chunk mapping
    (FrontierMap / StateMap) for round two.  Returns ``(lane delta,
    {unit number: part}, {unit number: chunk mapping})``.
    """
    fused = comp.fused
    tin = fused.translate(data[warm_start:end])
    stats_from = start - warm_start
    fresh = warm_start == 0
    lane = None
    if comp.scanner is not None:
        lane = comp.scanner.scan(
            data[warm_start:end],
            entry=0,
            fresh=fresh,
            at_end=at_end,
            base=warm_start,
            stats_from=stats_from,
            tin=tin,
        )
    scanned: list[int] = []
    maps_out: dict[int, object] = {}
    for number, kind in enumerate(comp.kinds):
        if kind is BOUNDED or (kind is not SERIAL and ci == 0):
            scanned.append(number)
        elif kind is FRONTIER:
            maps_out[number] = fused.gather_unit_map(number, tin, start=stats_from)
        elif kind is STATEMAP:
            maps_out[number] = fused.dfa_unit_map(
                number - fused.gather_count, tin, start=stats_from
            )
    spans = fused.scan_units_span(
        [(number, None if fresh else 0) for number in scanned],
        tin,
        stats_from=stats_from,
        at_end=at_end,
    )
    return lane, dict(zip(scanned, _unit_parts(spans, warm_start))), maps_out
