"""Input-parallel scanning: one stream, many threads, exact results.

This module is a single scan's one parallel path, on the fused plan (a
scan on the ``python`` backend is serial).  Two rules decide how each
compiled unit rides ``input_jobs`` tasks, and both are bit-identical to
the serial fused scan:

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
  so each task counts its groups' stalls whole.  They share one
  translation of the stream.
  That is parallelism across units, not across the input — the shape
  of the hardware.

Every task runs on one thread pool over the caller's binding: nothing
is pickled, mapped, planned or loaded again.  The generated C releases
the GIL for the length of a crossing, so ``native`` tasks run side by
side; the table walker (``fused`` without ``cc``) holds it, so there
the tasks are concurrent but no faster than serial.  The parent merges
per-chunk activity in chunk order, then rebuilds containers in
sequential collection order — dict iteration, match ordering, and
every counter equal the serial fused run exactly.

**Thread safety.**  Tasks share the plan; what they write is either
their own or written the same by every writer:

* a native crossing's out-buffers are per thread
  (:class:`~repro.core.native._Workspace` is a ``threading.local``), and
  so is a chunk's lane stream (:meth:`~repro.simulators.fused.
  FusedLaneScanner.once`);
* a walked table fills its rows under its own lock
  (:class:`~repro.core.table.StepTable`'s ``_walking``);
* the plan and its library are built before the first task starts
  (:func:`split_collect` reads ``plan`` and attaches the kernels in the
  caller), and :func:`~repro.simulators.rap.bind` holds ``_BIND_LOCK``
  for any other scan binding at the same time;
* the lazy caches a task fills — ``FusedRuleset._lanes`` (a bin's
  table, kept by ``setdefault``), ``NativeScanner._fresh`` /
  ``_hit_words`` (a fresh NBVA cursor template, only ever read: each
  thread resets its own table from it; a lane hit's packed word) and a
  translation's class stream — map a key to one value whoever computes
  it, so two threads racing at a miss compute it twice and keep equal
  values.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple

from repro.automata.nbva import NBVAState
from repro.core.fused import TranslatedSegment
from repro.engine.partition import longest_activation_path, plan_chunks
from repro.simulators.fused import FusedPlan
from repro.simulators.rap import Binding, RunActivity


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
    bound: Binding, data: bytes, *, input_jobs: int, min_chunk_bytes: int = 4096
) -> RunActivity | None:
    """Collect one stream's activity with input-parallel chunking.

    Returns the exact :class:`RunActivity` a serial fused
    ``collect_activities`` of ``bound`` would produce, or None when
    splitting is not applicable — the stream is too short for two
    chunks, or nothing could run concurrently (no lanes, no windowed
    unit and fewer than two whole-stream tasks) — and the caller falls
    back to the serial path.  ``input_jobs`` plans the tasks; the pool
    is as wide as the host's CPUs or the task count, whichever is
    smaller, so no result depends on the host.
    """
    plan = bound.plan
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

    plan.fused._native_scanner()  # attach the kernels before any task races to
    tin = plan.fused.translate(data)  # one translation for every whole task
    workers = min(len(tasks), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = [pool.submit(_split_task, plan, data, tin, task) for task in tasks]
        outcomes = [future.result() for future in running]
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
    exact :class:`RunActivity` (:meth:`FusedPlan.run_activity`);
    ``unit_out`` holds the whole-stream tasks' results by ``(kind,
    number)``."""

    def folded(number: int) -> tuple:
        """One unit's ``(positions, active)``: its whole-stream scan, or
        its windowed parts over all chunks."""
        if ("whole", number) in unit_out:
            return unit_out["whole", number]
        positions: list[int] = []
        active = 0
        for _, parts in chunk_out:
            part = parts[number]
            positions.extend(part[0])
            active += part[1]
        return positions, active

    found, active = [], []
    for number in range(len(plan.units)):
        positions, unit_active = folded(number)
        found.append(positions)
        active.append(unit_active)
    # per stall group its count and, per cursor, its matches and counters
    groups = [unit_out["nbva", g] for g in range(len(plan.stall_groups))]
    counters = []
    for _, cursors in groups:
        for matches, stats in cursors:
            found.append(matches)
            counters.append(stats)

    bins: list = []
    if plan.scanner is not None:
        merged = plan.scanner.merge_deltas([lane for lane, _ in chunk_out])
        bins = plan.bin_activities(
            merged.cycles, merged.matches, merged.tile_cycles, merged.tile_bits
        )
    stalls = [count for count, _ in groups]
    return plan.run_activity(found, active, counters, bins, n, stalls)


def _unit_parts(spans, base: int) -> list[tuple]:
    """Span results as the ``(global positions, active)`` parts the
    parent folds."""
    return [
        ([base + i for i, _ in events], stats.active_states)
        for events, stats, _ in spans
    ]


def _split_task(plan: FusedPlan, data: bytes, tin: TranslatedSegment, task: tuple):
    """Execute one split work unit: a chunk of ``data``, or whole-stream
    cursors over ``tin``, its translation."""
    kind = task[0]
    if kind == "chunk":
        return _run_chunk(plan, data, *task[1:])
    if kind == "whole":
        cursors = [(number, None) for number in task[1]]
        return _unit_parts(plan.fused.scan_span(tin, cursors)[1], 0)
    groups = task[1]  # "nbva": per stall group, its count and its cursors'
    cursors = [(j, NBVAState(), g) for g in groups for j in plan.stall_groups[g][1]]
    _, _, spans, stalls = plan.fused.scan_span(tin, (), cursors)
    out = {g: (stalls[g], []) for g in groups}
    for (_, _, g), (matches, stats, _) in zip(cursors, spans):
        out[g][1].append((list(matches), astuple(stats)))
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
