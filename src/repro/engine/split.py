"""Input-parallel scanning: one stream, many workers, exact results.

Ruleset sharding (:meth:`BatchEngine.scan`'s per-regex/per-bin units)
is the ``python`` backend's parallel path; this module is the fused
plan's.  Two rules decide how each compiled unit rides ``input_jobs``
workers, and both are bit-identical to the serial fused scan:

* **Warm-up windows** — a machine with bounded memory forgets its
  entry state after a fixed number of symbols: a lane-packed Shift-And
  / LNFA bin after its widest member, a GATHER unit whose automaton is
  acyclic after ``longest_activation_path + 1``.
  The stream is cut into ``input_jobs`` chunks, each scanned from the
  zero state over the shared window (the widest of them) before its
  first owned byte; warm-up symbols drive state but price nothing.  A
  chunk steps its lanes and its windowed units in one
  :meth:`~repro.core.fused.FusedRuleset.scan_span` call.
  Chunks too short for their window replay from the stream start
  instead (exact, merely slower), so any split point is sound.
* **Whole-stream unit tasks** — every other GATHER unit is cyclic (no
  window exists) and every NBVA unit carries counter vectors of
  unbounded history.  They are scanned over the whole stream from its
  start, exactly as the serial scan steps them: the windowless cursor
  numbers dealt round-robin into at most ``input_jobs`` tasks of one
  ``scan_span`` call each, the NBVA stall groups (per NBVA array, the
  units its regexes share) dealt the same way into tasks of one call,
  so each task counts its groups' stalls whole.
  That is parallelism across units, not across the input — the shape
  of the hardware, and of the ``python`` backend's per-regex sharding.

All tasks share one pool round.  The parent merges per-chunk activity
in chunk order with the same associative ``merge`` discipline the
ruleset-sharding path uses, then rebuilds containers in sequential
collection order — dict iteration, match ordering, and every counter
equal the serial fused run exactly.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack

from repro.automata.nbva import NBVAState
from repro.compiler.program import CompiledRuleset
from repro.core import use_backend
from repro.core.fused import TranslatedSegment
from repro.engine.partition import longest_activation_path, plan_chunks
from repro.engine.pool import parallel_map
from repro.hardware.config import HardwareConfig
from repro.mapping.mapper import Mapping
from repro.simulators.activity import BinActivity, nbva_activity
from repro.simulators.fused import FusedPlan, unit_activity
from repro.simulators.rap import RunActivity, bind


def unit_windows(plan: FusedPlan) -> tuple[list[int | None], int]:
    """How a bound plan's machines split: ``(windows, warm)``.

    ``windows[n]`` is GATHER unit ``n``'s warm-up window (numbered as
    ``plan.units`` lists them, in ruleset order) — the symbols after which
    its entry state is forgotten — or ``None`` for a cyclic unit, which
    has none and is scanned over the whole stream.  ``warm`` is the one
    window every chunk task warms up over: the widest of the units' and
    the lane machine's.
    """
    windows: list[int | None] = []
    for compiled in plan.units:
        bound = longest_activation_path(compiled.automaton)
        windows.append(None if bound is None else bound + 1)
    lanes = plan.scanner.warm if plan.scanner is not None else 1
    return windows, max([lanes] + [w for w in windows if w is not None])


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
    applicable — the stream is too short for two chunks, or nothing
    could run concurrently (no lanes, no windowed unit and fewer than
    two whole-stream tasks) — and the caller falls back to the serial
    path.  ``jobs`` sizes the worker pool; chunk tasks and whole-stream
    tasks (cyclic units, NBVA counters) share it.
    """
    plan = bind(ruleset, hw, mapping=mapping).plan
    windows, warm = unit_windows(plan)
    n = len(data)
    chunks = plan_chunks(n, input_jobs, warm, min_owned=max(1, min_chunk_bytes))
    if len(chunks) <= 1:
        return None
    windowed = tuple(u for u, window in enumerate(windows) if window is not None)
    whole = [u for u, window in enumerate(windows) if window is None]
    if plan.scanner is None and not windowed:
        chunks = []  # nothing rides a window: whole-stream tasks only
    last = len(chunks) - 1
    tasks: list[tuple] = [
        ("chunk", chunk.start, chunk.end, chunk.warm_start, ci == last, windowed)
        for ci, chunk in enumerate(chunks)
    ]
    for kind, numbers in ("whole", whole), ("nbva", range(len(plan.stall_groups))):
        tasks += [
            (kind, tuple(numbers[first::input_jobs]))
            for first in range(min(input_jobs, len(numbers)))
        ]
    if len(tasks) <= 1:
        return None

    payload = pickle.dumps(
        (ruleset, data, bin_size, hw, backend),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    outcomes = parallel_map(
        _split_task,
        tasks,
        jobs=jobs,
        initializer=_init_split_worker,
        initargs=(payload,),
        finalizer=_reset_split_worker,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        fault_plan=fault_plan,
    )
    # tasks are laid out chunks, then whole-stream and NBVA groups
    head = len(chunks)
    unit_out = {
        (task[0], number): part
        for task, parts in zip(tasks[head:], outcomes[head:])
        for number, part in zip(task[1], parts)
    }
    return _assemble(plan, outcomes[:head], unit_out, n)


def _assemble(
    plan: FusedPlan, chunk_out: list, unit_out: dict, n: int
) -> RunActivity:
    """Fold per-chunk results, in chunk order, into the sequential run's
    exact :class:`RunActivity` (containers in collection order);
    ``unit_out`` holds the whole-stream tasks' results by ``(kind,
    number)``."""

    def folded(number: int) -> tuple:
        """One unit's ``(positions, active, cycles)``: its whole-stream
        scan, or its windowed parts over all chunks."""
        if ("whole", number) in unit_out:
            return unit_out["whole", number]
        positions: list[int] = []
        active = 0
        cycles = 0
        for _, parts in chunk_out:
            part = parts[number]
            positions.extend(part[0])
            active += part[1]
            cycles += part[2]
        return positions, active, cycles

    units = [
        unit_activity(compiled, *folded(number))
        for number, compiled in enumerate(plan.units)
    ]
    # per stall group its count and its units' activities
    groups = [unit_out["nbva", g] for g in range(len(plan.stall_groups))]
    nbva = {j: found for _, activities in groups for j, found in activities}
    nbva = [nbva[j] for j in range(len(plan.nbva_units))]

    # -- LNFA bins: fold lane deltas per chunk --------------------------
    bins: list[BinActivity] = []
    if plan.scanner is not None:
        merged = plan.scanner.merge_deltas([lane for lane, _ in chunk_out])
        for j, bin_obj in enumerate(plan.bins):
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
    return plan.run_activity(units, nbva, bins, n, [count for count, _ in groups])


# -- worker-side functions (module level: picklable by the pool) -----------

_SPLIT_STATE: dict = {}


def _init_split_worker(payload: bytes) -> None:
    """Seed one worker with the scan's shared, deterministic state."""
    ruleset, data, bin_size, hw, backend = pickle.loads(payload)
    _SPLIT_STATE["backend_scope"] = scope = ExitStack()
    scope.enter_context(use_backend(backend))
    _SPLIT_STATE["data"] = data
    _SPLIT_STATE["plan"] = bind(ruleset, hw, bin_size).plan


def _reset_split_worker() -> None:
    """Clear the worker globals (the in-process fallback seeds the
    parent, which must not pin the stream — or the backend —
    afterwards)."""
    scope = _SPLIT_STATE.pop("backend_scope", None)
    if scope is not None:
        scope.close()
    _SPLIT_STATE.clear()


def _whole_stream() -> TranslatedSegment:
    """The whole stream translated — once per worker, however many
    whole-stream tasks it runs."""
    tin = _SPLIT_STATE.get("tin")
    if tin is None:
        plan: FusedPlan = _SPLIT_STATE["plan"]
        tin = _SPLIT_STATE["tin"] = plan.fused.translate(_SPLIT_STATE["data"])
    return tin


def _unit_parts(spans, base: int) -> list[tuple]:
    """Span results as the ``(global positions, active, cycles)`` parts
    the parent folds."""
    return [
        ([base + i for i, _ in events], stats.active_states, stats.cycles)
        for events, stats, _ in spans
    ]


def _split_task(task: tuple):
    """Execute one split work unit inside a worker."""
    plan: FusedPlan = _SPLIT_STATE["plan"]
    kind = task[0]
    if kind == "chunk":
        return _run_chunk(plan, _SPLIT_STATE["data"], *task[1:])
    if kind == "whole":
        cursors = [(number, None) for number in task[1]]
        return _unit_parts(plan.fused.scan_span(_whole_stream(), cursors)[1], 0)
    groups = task[1]  # "nbva": per stall group, its count and activities
    cursors = [(j, NBVAState(), g) for g in groups for j in plan.stall_groups[g][1]]
    _, _, spans, stalls = plan.fused.scan_span(_whole_stream(), (), cursors)
    out = {g: (stalls[g], []) for g in groups}
    for (j, _, g), (matches, stats, _) in zip(cursors, spans):
        out[g][1].append((j, nbva_activity(plan.nbva_units[j], matches, stats)))
    return [out[g] for g in groups]


def _run_chunk(
    plan: FusedPlan,
    data: bytes,
    start: int,
    end: int,
    warm_start: int,
    at_end: bool,
    windowed: tuple[int, ...],
):
    """Scan one chunk: lanes plus every windowed GATHER unit, in one
    span.

    ``warm_start == 0`` replays from the true stream start (``fresh``),
    which keeps short-chunk plans exact; otherwise the warm-up window
    guarantees the zero-entry scan equals the sequential state by
    ``start``.  Returns ``(lane delta, {unit number: part})``.
    """
    scanner, segment = plan.scanner, data[warm_start:end]
    tin = plan.fused.translate(segment)
    span = dict(stats_from=start - warm_start, at_end=at_end)
    fresh = warm_start == 0
    lanes = scanner.once(0, fresh) if scanner is not None else None
    scanned, spans, _, _ = plan.fused.scan_span(
        tin, [(number, None if fresh else 0) for number in windowed],
        lanes=lanes, **span,
    )
    lane = None
    if scanner is not None:
        lane = scanner.scan(
            segment, fresh=fresh, base=warm_start, tin=tin, lanes=lanes,
            scanned=scanned, **span,
        )
    return lane, dict(zip(windowed, _unit_parts(spans, warm_start)))
