"""Input-stream chunking with overlap-window stitching.

A long stream can be split into chunks and matched in parallel, provided
every chunk is preceded by a *warm-up window* long enough that the
automaton state at the chunk's first owned byte equals the state a
sequential run would have there.  Warm-up bytes drive the state but are
excluded from statistics and match reporting, so summing per-chunk
activity reproduces the sequential run exactly.  The window is only
sound when state memory is bounded:

* **NFA mode** — an active Glushkov position at cycle ``i`` sits at the
  end of an activation chain of at most :func:`longest_activation_path`
  edges, so it depends on at most the last ``longest_path + 1``
  symbols.  A cyclic automaton (unbounded repetition) has no such bound.
* **LNFA mode** — a Shift-And bit ``j`` requires the last ``j + 1``
  symbols to have matched, bounded by the sequence length.
* **NBVA mode** — counter vectors carry history across arbitrarily long
  gaps, so no window exists.

:func:`repro.engine.split.unit_windows` applies these rules to a fused
plan, and :func:`plan_chunks` cuts the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.glushkov import Automaton


@dataclass(frozen=True)
class Chunk:
    """One chunk of a stream: owned range plus its warm-up prefix."""

    start: int  # first owned byte (global offset)
    end: int  # one past the last owned byte
    warm_start: int  # where the simulated slice begins (<= start)


def longest_activation_path(automaton: Automaton) -> int | None:
    """Longest chain of activations in edges, or None if cyclic."""
    n = automaton.state_count
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for edge in automaton.edges:
        succ[edge.src].append(edge.dst)
        indegree[edge.dst] += 1
    # Kahn's algorithm, tracking the longest distance to each node.
    queue = [v for v in range(n) if indegree[v] == 0]
    distance = [0] * n
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            distance[w] = max(distance[w], distance[v] + 1)
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if seen != n:
        return None  # cycle: unbounded repetition
    return max(distance, default=0)


def plan_chunks(
    n: int, pieces: int, overlap: int, min_owned: int = 1
) -> list[Chunk]:
    """Split ``[0, n)`` into up to ``pieces`` contiguous owned ranges.

    Each chunk's simulated slice starts ``overlap`` bytes early (clamped
    at 0).  Chunks own at least ``min_owned`` bytes, so fewer than
    ``pieces`` chunks come back for short streams.  The plan depends
    only on the arguments — never on worker scheduling — so the merge
    order downstream is deterministic.
    """
    if n <= 0:
        return []
    pieces = max(1, min(pieces, n // max(min_owned, 1)) or 1)
    base, extra = divmod(n, pieces)
    chunks: list[Chunk] = []
    start = 0
    for index in range(pieces):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        end = start + size
        chunks.append(
            Chunk(start=start, end=end, warm_start=max(0, start - overlap))
        )
        start = end
    return chunks
