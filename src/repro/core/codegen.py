"""C source emission for the ``native`` backend.

Each compiled ruleset becomes its *own* C: every table is baked in as a
``static const`` array — the lane machine's per-bin DFAs, the GATHER
units' forest of DFAs, the NBVA units' rows — under kernel texts that
are the same for every ruleset.  The loops compute exactly what the
portable scans in :mod:`repro.core.fused` compute — same warm-up
(``stats_from``) gating, same end-anchored masking, same counters — so
the bit-identity contract holds by construction rather than by
translation-layer luck.

Two translation units per ruleset:

* :func:`lane_scan_source` — the lane-packed SHIFT_LEFT machine plus
  per-tile wake-up accounting and final-hit extraction (the whole
  :meth:`~repro.simulators.fused.FusedLaneScanner.scan` hot path), as
  **one DFA per group of adjacent bins**.  Each bin's
  :class:`~repro.core.table.StepTable` — the ruleset's own, the one the
  portable walker steps too — is closed breadth-first; a group then
  takes in the next bin while the *joint* machine closes within the
  states it replaces (literal keywords do, the Aho-Corasick regime;
  class-heavy bins keep their own tables).  Per group:

  - ``G<g>[state][class]`` — one ``uint64`` per transition, all a step
    needs of its *target*: the row offset (``id * NCLS``, bits 0-31: the
    next lookup adds a class, no multiply), the id (bits 32-62: the
    visit counter to bump) and whether it carries a hit flag (bit 63);
    an anchored group carries one extra last row, the stream-start
    pseudo-state whose successors are ``inject_first & labels[c]``;
  - ``T<g>[state][tile]`` — how many of the state's bits lie in each of
    the member bins' tiles (a tile is awake iff that is non-zero);
  - ``F<g>[state]`` — hit flags, read on a hit only: 1 = holds a final
    that fires anywhere, 2 = one that fires only on the last byte;
  - its row of ``GROUPS[]`` (table pointers, state and tile counts, the
    start state, where its visit counters and tiles begin).

  Per byte the kernel does one lookup per group and ``visits[id]++``;
  ``tile_cycles`` / ``tile_bits`` are folded once per call as
  ``sum(visits[s] * T[s][tile])`` — exact 64-bit integers, the same
  totals per-byte popcounts would reach.  A table walk is one dependent
  load per byte, so owned bytes go ``K`` sub-spans of ``L`` bytes in
  lockstep (a histogram each), the later ones entered empty ``WARM``
  bytes early — the lanes remember no more; the warm-up prefix, tails
  and a nearly full hit buffer take the serial loop.  State ids never
  leave :mod:`repro.core.native`: callers see packed words.

  :data:`LANE_DFA_MAX_STATES` caps each bin's closure.  A ruleset with
  a bin beyond it (``a`` and twenty ``.``: every subset of twenty
  positions is reachable) gets no lane kernel at all — the walker steps
  it — decided from the closure just measured, never by an option.
* :func:`unit_scan_source` — the scan units, as tables under two fixed
  kernel texts.  Every GATHER unit (NFA-mode and DFA-mode alike) was
  determinised when the plan was built — its subset closure over the
  shared classes, a closed :class:`~repro.core.table.StepTable`, the
  same class the bins use — and the tables are written as **one
  forest**, each unit owning a disjoint range of global state ids
  (:func:`unit_forest`):

  - ``NEXT[row + class]`` — one ``uint32`` per transition, all a step
    needs of its *target*: the target's row offset (``id * NCLS``, bits
    0-22: the next lookup adds a class, no multiply), its live NFA
    positions (bits 23-30; ``active_states`` is their sum over the owned
    bytes) and whether it carries a hit flag (bit 31, so the per-byte
    loop tests one OR of what it just loaded);
  - ``FLAGS[state]`` — 1 = holds a final that fires anywhere, 2 = one
    that fires only on the stream's last byte.  An anchored unit's
    stream-start row is one more state, its last.

  ``rap_units_span`` walks ``m`` *cursors* byte-major.  A cursor is just
  a forest state id, so all units of a bulk scan, the non-serial units
  of one split chunk, round-two entries and two collectors of one unit
  at different states are the same call; a fresh stream enters at the
  unit's start state, so freshness is not a parameter.  Inside, a
  cursor is a row offset and a 32-bit live sum in private arrays — no
  store to caller memory, which may alias — flushed every 65 536 bytes.
  Hit words are decoded from the subset memory on the Python side (they
  can exceed 64 bits).  A unit whose closure passes
  :data:`UNIT_DFA_MAX_STATES`, or with more live positions or rows than
  a ``NEXT`` word can say (:func:`unit_forest`), is not in the forest:
  its cursors are walked in Python on the same table.  NBVA units of at most
  :data:`NBVA_NATIVE_MAX_STATES` states follow as rows of
  ``NBVA_UNITS[]`` under *one* table-driven ``rap_nbva_span`` (wider
  ones stay on ``NBVAScanner``: identical results, just slower).

The NBVA ABI carries exactly what ``NBVAScanner.snapshot()`` holds: the
plain active set and the set of live counted positions as one word each
(bit ``p`` = Glushkov position ``p``), and every live bit vector as
``ceil(width / 64)`` little-endian words at its position's offset in
one flat array (:func:`nbva_vector_layout`).  Per unit, ``static const``
tables give the class-indexed plain-label / counted-match rows and, per
position, the ACTIVATE / SET1 / COPY / SHIFT target masks, vector width,
word offset, read predicate (an EXACT bit, or rAll) and first shift
target (the one the overflow checker tests).  All eleven ``NBVAStats``
counters accumulate in caller memory; match positions and
``bv_cycle_indices`` come back through one event buffer.

Every source begins with a header naming
:data:`~repro.core.registry.NATIVE_FORMAT_VERSION`, so the SHA-256 of
the source text — the shared-object cache key — rolls over whenever the
ABI or the emitted semantics change — and with the 256-entry class map:
kernels take raw bytes and read ``CLS[data[i]]``.

Match events cross the ABI as bounded ``(position, state)`` buffers with
a continuation protocol: when a buffer fills — for the unit kernel, when
it has no room left for a whole byte's ``m`` events — the kernel
returns 1 with the resume index and the exit state, the caller drains
and re-enters.  Counters (state visits, tile cycles/bits, active-state
sums) accumulate in caller memory across continuations, so the drained
stream is identical to an unbounded one.

This module only *writes* C; building and loading live in
:mod:`repro.core.native`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import NamedTuple

from repro.automata.glushkov import EdgeAction, ReadKind
from repro.core.registry import NATIVE_FORMAT_VERSION

# A GATHER unit whose subset closure holds more states than this is not
# closed (its table is walked, and restarts at the same size): measured
# rulesets close in tens of states per unit, a blown closure
# (``(a|b)*a(a|b){11}c`` under ``--mode nfa``) is exponential and not
# worth dumping.
UNIT_DFA_MAX_STATES = 4096

# NBVA units keep one bit per state (plain *and* counted) in a single
# machine word; larger automata stay on ``NBVAScanner``.
NBVA_NATIVE_MAX_STATES = 64

# A lane bin whose determinised closure holds more states than this
# leaves its ruleset to the table walker (which restarts its lazily
# filled table at the same size): ids, and the stream-start row one past
# them, must fit the ``uint16`` tables.
LANE_DFA_MAX_STATES = 32768

# Bounded event buffers (entries) between continuation returns.
HIT_BUFFER_ENTRIES = 4096


def _u64(value: int) -> str:
    return f"0x{value & 0xFFFFFFFFFFFFFFFF:016x}ULL"


def _u64_matrix(name: str, rows: Sequence[Sequence[int]], lanes: int) -> str:
    lines = [f"static const uint64_t {name}[][{lanes}] = {{"]
    for row in rows:
        lines.append("  { " + ", ".join(_u64(v) for v in row) + " },")
    lines.append("};")
    return "\n".join(lines)


def _u8_array(name: str, values: Iterable[int]) -> str:
    body = ", ".join(str(int(v) & 0xFF) for v in values)
    return f"static const uint8_t {name}[] = {{ {body} }};"


def _u16_array(name: str, values: Iterable[int]) -> str:
    body = ", ".join(map(str, values))
    return f"static const uint16_t {name}[] = {{ {body} }};"


def _header(kind: str, fused) -> str:
    """What every translation unit starts with; kernels read raw bytes
    and map them to the ruleset's classes themselves (``CLS[data[i]]``)."""
    return (
        f"/* rap native kernel: {kind}\n"
        f" * native_format_version: {NATIVE_FORMAT_VERSION}\n"
        f" * layout: {fused.signature}\n"
        " * generated; do not edit.\n"
        " */\n"
        "#include <stdint.h>\n"
        "#define POP(x) ((long long)__builtin_popcountll(x))\n"
        f"#define NCLS {fused.classes.k}\n"
        + _u8_array("CLS", fused.classes.class_of)
    )


# -- the lane machine ---------------------------------------------------------


# One state element is a per-group table state id; ``visits`` is
# :data:`LANE_SUBSPANS` zeroed histograms of one counter per state.
LANE_CDEF = (
    "int rap_lane_scan(const uint8_t *data, long long n, long long start_i,\n"
    "    uint32_t *state, int fresh, int at_end, long long stats_from,\n"
    "    long long *tile_cycles, long long *tile_bits, long long *visits,\n"
    "    long long *hit_pos, uint32_t *hit_states, long long hit_cap,\n"
    "    long long *n_hits, long long *resume_i);"
)

# Sub-spans the lane kernel steps in lockstep, each at least this long
# and at least 16 warm-up windows (re-stepping the seams costs < 1/16).
LANE_SUBSPANS = 4
LANE_SUBSPAN_BYTES = 128


class LaneKernel(NamedTuple):
    """What :func:`lane_scan_source` hands the loader: the C text, the
    groups — ``first[g]`` is group ``g``'s first bin, ``closure[g]`` its
    closed :class:`~repro.core.table.StepTable` (``closure[g][sid]`` is
    state ``sid`` as the group's slice of the packed word) — the bytes
    of one lockstep block, and the tier as ``--explain`` names it."""

    source: str
    closure: list
    first: list[int]
    block: int
    tier: str


def lane_scan_source(fused, tile_masks: Sequence[Sequence[int]]) -> LaneKernel:
    """The lane kernel of one ruleset: its bins' closed tables, dumped.

    ``fused`` is a :class:`~repro.core.fused.FusedRuleset` with at least
    one SHIFT_LEFT program (one per bin); ``tile_masks[j]`` are bin
    ``j``'s per-tile masks over its own slice of the packed word.  A bin
    closing over more than :data:`LANE_DFA_MAX_STATES` states is
    reported (``ValueError``): there is no second kernel, the table
    walker steps such a ruleset.  A group takes in the next bin while
    the joint table closes within the states it replaces (tables never
    grow) and within one state per pattern position (a failed attempt
    stays cheap).
    """
    if not fused.bases:
        raise ValueError("lane codegen requires at least one shift program")
    bins = [fused.lane_dfa(j, masks) for j, masks in enumerate(tile_masks)]
    for j, table in enumerate(bins):
        if not table.close():
            raise ValueError(f"bin {j} closure > {table.cap}")
    first, groups = [], []
    for j, table in enumerate(bins):
        if groups:
            at = first[-1]
            replaced = groups[-1].closed + table.closed
            cap = min(replaced, sum(fused.widths[at : j + 1]) + 1)
            joint = fused.lane_group(at, j + 1, tile_masks[at : j + 1], cap)
            if joint.close():
                groups[-1] = joint
                continue
        first.append(j)
        groups.append(table)
    total = sum(table.closed for table in groups)
    block = LANE_SUBSPANS * max(LANE_SUBSPAN_BYTES, 16 * fused.warm)
    return LaneKernel(
        _lane_dfa_source(fused, groups, block),
        groups,
        first,
        block,
        f"dfa ({total} states / {len(groups)} group{'s' * (len(groups) > 1)} "
        f"of {len(bins)} bins)",
    )


# The DFA lane kernel is the same text for every ruleset; the tables
# and ``NGROUPS`` above it are what is generated (a constant trip count,
# so the per-group loops unroll and ``GROUPS[g]`` folds to its literals).
# A cursor is a row offset per group; ``r[0]`` is the stream's.  The hit
# test writes the cursor's state ids to the next free hit slot whether
# or not they stay there.
_LANE_DFA_KERNEL = r"""
static int lane_hit(const uint32_t *r, int end, uint32_t *ids)
{
  int g, f = 0;
  for (g = 0; g < NGROUPS; g++) { ids[g] = r[g] / NCLS; f |= GROUPS[g].flags[ids[g]]; }
  return (f & 1) || (end && (f & 2));
}

RAP_LANE_SCAN
{
  long long i = start_i, last = at_end ? n - 1 : -1, nh = 0, p;
  uint32_t r[K][NGROUPS];
  int g, k;
  for (g = 0; g < NGROUPS; g++)
    r[0][g] = (fresh && i == 0 && n > 0 ? GROUPS[g].start : state[g]) * NCLS;
  while (i < n && nh < hit_cap) {
    if (i >= stats_from && n - i > K * L && hit_cap - nh >= K * L) {
      /* an owned block: K sub-spans of L bytes in lockstep, the later
         ones entered empty WARM bytes early (the lanes remember no more) */
      for (k = 1; k < K; k++) {
        for (g = 0; g < NGROUPS; g++) r[k][g] = 0;
        for (p = i + k * L - WARM; p < i + k * L; p++)
          for (g = 0; g < NGROUPS; g++)
            r[k][g] = (uint32_t)GROUPS[g].next[r[k][g] + CLS[data[p]]];
      }
      for (p = i; p < i + L; p++) {
        uint64_t f = 0;
        for (k = 0; k < K; k++)
          for (g = 0; g < NGROUPS; g++) {
            uint64_t t = GROUPS[g].next[r[k][g] + CLS[data[p + k * L]]];
            r[k][g] = (uint32_t)t; f |= t;
            visits[k * NVISITS + GROUPS[g].visit0 + (t >> 32 & 0x7fffffff)]++;
          }
        if (f >> 63)
          for (k = 0; k < K; k++)
            if (lane_hit(r[k], 0, hit_states + nh * NGROUPS))
              hit_pos[nh++] = p + k * L;
      }
      for (g = 0; g < NGROUPS; g++) r[0][g] = r[K - 1][g];
      i += K * L;
    } else {
      /* the warm-up prefix drives the states but owns no statistics */
      int own = i >= stats_from;
      uint64_t f = 0;
      for (g = 0; g < NGROUPS; g++) {
        uint64_t t = GROUPS[g].next[r[0][g] + CLS[data[i]]];
        r[0][g] = (uint32_t)t; f |= t;
        visits[GROUPS[g].visit0 + (t >> 32 & 0x7fffffff)] += own;
      }
      if (f >> 63 && own && lane_hit(r[0], i == last, hit_states + nh * NGROUPS))
        hit_pos[nh++] = i;
      i++;
    }
  }
  for (g = 0; g < NGROUPS; g++) state[g] = r[0][g] / NCLS;
  *n_hits = nh; *resume_i = i;
  if (i < n) return 1;
  /* tile statistics are a property of the state: fold the visit counts */
  for (g = 0; g < NGROUPS; g++) {
    const lane_group *b = &GROUPS[g];
    int sid, t;
    for (sid = 1; sid < b->states; sid++) {
      long long v = 0;
      for (k = 0; k < K; k++) v += visits[k * NVISITS + b->visit0 + sid];
      for (t = 0; v && t < b->tiles; t++) {
        long long bits = b->bits[sid * b->tiles + t];
        tile_cycles[b->tile0 + t] += bits ? v : 0;
        tile_bits[b->tile0 + t] += v * bits;
      }
    }
  }
  return 0;
}
"""


def _lane_dfa_source(fused, groups, block: int) -> str:
    """Per group the ``G`` / ``T`` / ``F`` tables and ``GROUPS`` row the
    module docstring describes, then the one kernel text."""
    ncls = fused.classes.k
    parts = [_header("lane machine (grouped dfa)", fused)]
    parts.append(
        f"#define NGROUPS {len(groups)}\n"
        f"#define NVISITS {sum(table.closed for table in groups)}\n"
        f"#define K {LANE_SUBSPANS}\n#define L {block // LANE_SUBSPANS}\n"
        f"#define WARM {fused.warm}"
    )
    rows = []
    tile0 = visit0 = 0
    for j, table in enumerate(groups):
        states, tiles = table.closed, len(table.masks)
        anchored = table.start is not None  # one more row, id ``states``
        target = [
            hex(t * ncls | t << 32 | bool(f) << 63)
            for t, f in enumerate(table.flags[:states])
        ]
        entries = map(target.__getitem__, chain(table.flat, table.start or ()))
        parts.append(f"static const uint64_t G{j}[] = {{ {', '.join(entries)} }};")
        parts.append(
            _u16_array(f"T{j}", (n for bits in table.bits[:states] for n in bits))
        )
        parts.append(_u8_array(f"F{j}", table.flags[:states]))
        rows.append(
            f"  {{ G{j}, T{j}, F{j}, {states}, {tiles}, "
            f"{states if anchored else 0}, {visit0}, {tile0} }},"
        )
        tile0 += tiles
        visit0 += states
    parts.append(
        "typedef struct {\n"
        "  const uint64_t *next; const uint16_t *bits; const uint8_t *flags;\n"
        "  int states, tiles; uint32_t start; int visit0, tile0;\n"
        "} lane_group;"
    )
    parts += ["static const lane_group GROUPS[NGROUPS] = {", *rows, "};"]
    parts.append(_LANE_DFA_KERNEL.replace("RAP_LANE_SCAN", LANE_CDEF[:-1]))
    return "\n".join(parts)


# -- GATHER units: one forest of tables ----------------------------------------

UNITS_CDEF = (
    "int rap_units_span(const uint8_t *data, long long n, long long start_i,\n"
    "    uint32_t *state, int m, int at_end, long long stats_from,\n"
    "    long long *active, long long *ev_pos, int32_t *ev_cursor,\n"
    "    uint32_t *ev_state, long long cap, long long *n_ev,\n"
    "    long long *resume_i);"
)

# The unit kernel is the same text for every ruleset.  A *cursor* is one
# forest state id: ``m`` of them — any units, any entries, one unit twice
# — step byte-major over the stream.  It stops at a byte boundary
# once fewer than ``m`` event slots remain, so ``cap >= m`` is the
# caller's side of the continuation protocol.
_UNITS_KERNEL = r"""
{
  long long i = start_i, last = at_end ? n - 1 : -1, ne = 0;
  uint32_t s[MAXM], a[MAXM];  /* row offsets; live sums since the last flush */
  int u;
  for (u = 0; u < m; u++) { s[u] = state[u] * NCLS; a[u] = 0; }
  for (; i < n && cap - ne >= m; i++) {
    const uint32_t *next = NEXT + CLS[data[i]];
    /* the warm-up prefix drives the states but owns no statistics */
    uint32_t own = i >= stats_from ? 0x800000ffu : 0, f = 0;
    for (u = 0; u < m; u++) {
      uint32_t t = next[s[u]];
      f |= t;
      s[u] = t & 0x7fffff;
      a[u] += t >> 23 & own;
    }
    if (f & own & 0x80000000u)
      for (u = 0; u < m; u++) {
        uint32_t sid = s[u] / NCLS;
        if ((FLAGS[sid] & 1) || ((FLAGS[sid] & 2) && i == last)) {
          ev_pos[ne] = i; ev_cursor[ne] = u; ev_state[ne] = sid; ne++;
        }
      }
    if (!(~i & 0xffff))  /* 65 536 bytes of <= 255 live positions fit 32 bits */
      for (u = 0; u < m; u++) { active[u] += a[u]; a[u] = 0; }
  }
  for (u = 0; u < m; u++) { state[u] = s[u] / NCLS; active[u] += a[u]; }
  *n_ev = ne; *resume_i = i;
  return i < n;
}
"""

# ``NEXT`` words a 23-bit row offset reaches; cursors the kernel's arrays hold.
FOREST_ENTRIES = 1 << 23
UNIT_SPAN_CURSORS = 1024


def unit_forest(fused) -> tuple[list[int | str], int]:
    """Where each GATHER unit's table starts in the forest's global
    state ids (units numbered as :meth:`FusedRuleset.scan_units_span
    <repro.core.fused.FusedRuleset.scan_units_span>` does) — or, as a
    ``str``, why the unit is not in it: a table not closed, a live count
    or a row offset past its ``NEXT`` field (either way its cursors walk
    the table in Python) — and the forest's rows in all."""
    bases: list[int | str] = []
    total = 0
    for unit in fused._units:
        table = unit.table
        rows = table.closed + (table.start is not None)  # a start row is a state
        if not table.closed:
            bases.append(f"closure > {table.cap}")
        elif max(live for (live,) in table.bits[: table.closed]) > 255:
            bases.append("live > 255")
        elif (total + rows) * fused.classes.k > FOREST_ENTRIES:
            bases.append("forest full")
        else:
            bases.append(total)
            total += rows
    return bases, total


def _forest_section(fused, bases: Sequence[int | str]) -> str:
    """``NEXT`` / ``FLAGS`` as the module docstring describes them —
    every placed unit's table at its id range — then the one kernel
    text."""
    ncls = fused.classes.k
    nxt: list[str] = []
    flags = b""
    for unit, base in zip(fused._units, bases):
        if isinstance(base, int):
            table = unit.table
            states = table.closed
            anchored = table.start is not None  # the start row: one more state
            unit_flags = bytes(table.flags[:states]) + b"\0" * anchored
            # one string per *state*, looked up per transition: the text
            # is built without a list of every entry as an int
            target = [
                str((base + t) * ncls | live << 23 | bool(f) << 31)
                for t, ((live,), f) in enumerate(zip(table.bits[:states], unit_flags))
            ]
            nxt.append(
                ", ".join(
                    map(target.__getitem__, chain(table.flat, table.start or ()))
                )
            )
            flags += unit_flags
    return "\n".join(
        [
            f"#define MAXM {UNIT_SPAN_CURSORS}",
            f"static const uint32_t NEXT[] = {{ {', '.join(nxt)} }};",
            _u8_array("FLAGS", flags),
            UNITS_CDEF[:-1] + _UNITS_KERNEL,
        ]
    )


# -- NBVA units ---------------------------------------------------------------

NBVA_CDEF = (
    "int rap_nbva_span(const uint8_t *data, long long n, long long start_i,\n"
    "    int unit, uint64_t *active, uint64_t *live,\n"
    "    uint64_t *vecs, uint64_t *scratch, int fresh, int at_end,\n"
    "    long long *counters, long long *ev, long long cap,\n"
    "    long long *n_ev, long long *resume_i);"
)

# The one table-driven stepping function shared by every NBVA unit of a
# translation unit: a line-for-line mirror of ``NBVAScanner.iter_feed``.
# Bit ``p`` of every mask is Glushkov position ``p``; counted position
# ``p``'s vector is little-endian words at ``vecs[pos[p][P_VOFF]]`` (only
# positions in ``*live`` hold meaningful words).  ``counters`` is the
# eleven ``NBVAStats`` integers in field order; each event is
# ``position << 2 | report << 1 | bv_phase``.
_NBVA_KERNEL = r"""
/* Table-driven and branchy: -O3 spends ~0.1 s of cc vectorizing word
   loops that run one or two iterations, for no measurable speed. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize ("O1")
#endif

/* columns of pos[]: ACTIVATE / SET1 / COPY / SHIFT target masks, then
   vector width, word offset, read bit + 1 (0: rAll), first shift target */
enum { P_ACT, P_SET1, P_COPY, P_SHIFT, P_WIDTH, P_VOFF, P_READ, P_SHF };
typedef struct {
  uint64_t init_plain, init_set1, final_plain, final_counted;
  int anchored_start, anchored_end, total_words;
  const uint64_t (*cls)[2];  /* per class: plain labels, counted matches */
  const uint64_t (*pos)[8];
} rap_nbva_unit;
#define NBVA_WORDS(u, p) ((int)((u)->pos[p][P_WIDTH] + 63) >> 6)

static int nbva_any(const uint64_t *v, int words)
{
  int w;
  for (w = 0; w < words; w++) if (v[w]) return 1;
  return 0;
}

static int nbva_read(const rap_nbva_unit *u, int p, const uint64_t *v)
{
  int rb = (int)u->pos[p][P_READ] - 1;
  if (rb >= 0) return (int)(v[rb >> 6] >> (rb & 63)) & 1;
  return nbva_any(v, NBVA_WORDS(u, p));
}

static void nbva_or(const rap_nbva_unit *u, uint64_t targets,
    const uint64_t *v, int words, uint64_t *nxt)
{
  for (; targets; targets &= targets - 1) {
    uint64_t *dst = nxt + u->pos[__builtin_ctzll(targets)][P_VOFF];
    int w;
    for (w = 0; w < words; w++) dst[w] |= v[w];
  }
}
"""

_NBVA_SPAN = r"""
{
  const rap_nbva_unit *u = &NBVA_UNITS[unit];
  long long i = start_i, last = n - 1, ne = 0;
  uint64_t act = *active, lv = *live, *cur = vecs, *nxt = scratch;
  uint64_t shifted[NBVA_MAX_WORDS];
  int w, cur_dirty = 1, nxt_dirty = 1;
  for (; i < n; i++) {
    int c = CLS[data[i]], start = !(u->anchored_start && !(fresh && i == 0));
    uint64_t avail = start ? u->init_plain : 0;
    uint64_t set1 = start ? u->init_set1 : 0;
    uint64_t matching = u->cls[c][1], touched = 0, a, nlv = 0;
    long long flags = 0;
    if (nxt_dirty) for (w = 0; w < u->total_words; w++) nxt[w] = 0;
    for (a = act; a; a &= a - 1) {
      const uint64_t *src = u->pos[__builtin_ctzll(a)];
      avail |= src[P_ACT]; set1 |= src[P_SET1];
    }
    for (a = lv; a; a &= a - 1) {
      int p = __builtin_ctzll(a), words = NBVA_WORDS(u, p);
      const uint64_t *src = u->pos[p], *v = cur + src[P_VOFF];
      nbva_or(u, src[P_COPY], v, words, nxt);
      if (src[P_SHIFT]) {
        uint64_t carry = 0;
        for (w = 0; w < words; w++) {
          shifted[w] = v[w] << 1 | carry; carry = v[w] >> 63;
        }
        if (src[P_WIDTH] & 63)
          shifted[words - 1] &= (1ULL << (src[P_WIDTH] & 63)) - 1;
        /* the overflow checker: matched, but every count shifted out */
        if ((matching >> src[P_SHF] & 1) && !nbva_any(shifted, words))
          counters[10]++;
        nbva_or(u, src[P_SHIFT], shifted, words, nxt);
      }
      touched |= src[P_COPY] | src[P_SHIFT];
      counters[8] += POP(src[P_COPY]);
      counters[7] += POP(src[P_SHIFT]);
      if (nbva_read(u, p, v)) {
        counters[9]++;
        avail |= src[P_ACT]; set1 |= src[P_SET1];
      }
    }
    for (a = set1; a; a &= a - 1)
      nxt[u->pos[__builtin_ctzll(a)][P_VOFF]] |= 1;
    touched |= set1;
    /* state-matching gate */
    act = avail & u->cls[c][0];
    for (a = touched & matching; a; a &= a - 1) {
      int d = __builtin_ctzll(a);
      if (nbva_any(nxt + u->pos[d][P_VOFF], NBVA_WORDS(u, d)))
        nlv |= 1ULL << d;
    }
    lv = nlv;
    { uint64_t *t = cur; cur = nxt; nxt = t; }
    nxt_dirty = cur_dirty; cur_dirty = touched != 0;
    counters[0]++;
    counters[1] += POP(act) + POP(lv);
    counters[2] += POP(u->cls[c][0]) + POP(matching);
    counters[6] += POP(set1);
    counters[5] += POP(lv);
    if (lv) { counters[4]++; flags |= 1; }
    {
      int matched = (act & u->final_plain) != 0;
      for (a = lv & u->final_counted; a && !matched; a &= a - 1) {
        int p = __builtin_ctzll(a);
        matched = nbva_read(u, p, cur + u->pos[p][P_VOFF]);
      }
      if (matched && (!u->anchored_end || (at_end && i == last))) {
        counters[3]++; flags |= 2;
      }
    }
    if (flags) {
      ev[ne++] = i << 2 | flags;
      if (ne >= cap) { i++; break; }
    }
  }
  if (cur != vecs) for (w = 0; w < u->total_words; w++) vecs[w] = cur[w];
  *active = act; *live = lv; *n_ev = ne; *resume_i = i;
  return i < n;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
"""


def nbva_interpreted_reason(automaton) -> str | None:
    """Why an NBVA unit must stay on ``NBVAScanner`` even under the
    native backend, or None when the C kernel can run it."""
    if automaton.state_count <= NBVA_NATIVE_MAX_STATES:
        return None
    return f"state_count {automaton.state_count} > {NBVA_NATIVE_MAX_STATES}"


def native_nbva_indices(fused) -> tuple[int, ...]:
    """The NBVA units narrow enough for the single-word C kernel."""
    return tuple(
        j
        for j in range(fused.nbva_count)
        if nbva_interpreted_reason(fused._nbva[j].automaton) is None
    )


def nbva_vector_layout(automaton) -> tuple[dict[int, tuple[int, int]], int]:
    """``({counted pid: (word offset, words)}, total words)`` — where
    each bit vector sits in the flat ``vecs`` array crossing the ABI
    (ascending pid order, ``ceil(width / 64)`` words each)."""
    layout: dict[int, tuple[int, int]] = {}
    total = 0
    for pos in automaton.positions:
        if pos.is_counted:
            words = -(-automaton.group_of(pos.pid).width // 64)
            layout[pos.pid] = (total, words)
            total += words
    return layout, total


def _nbva_section(fused, indices: Sequence[int]) -> str:
    """The NBVA kernel plus each listed unit's tables and unit-table row."""
    parts, rows, max_words = [_NBVA_KERNEL], [], 1
    # pos[] columns, as the C enum names them: P_ACT..P_SHIFT are the
    # EdgeAction members in order, then P_WIDTH, P_VOFF, P_READ, P_SHF.
    column = {action: k for k, action in enumerate(EdgeAction)}
    for slot, j in enumerate(indices):
        unit = fused._nbva[j]
        automaton = unit.automaton
        layout, total = nbva_vector_layout(automaton)
        pos = [[0] * 8 for _ in automaton.positions]
        for edge in automaton.edges:
            if edge.action is EdgeAction.SHIFT and not pos[edge.src][3]:
                pos[edge.src][7] = edge.dst
            pos[edge.src][column[edge.action]] |= 1 << edge.dst
        for pid, (offset, words) in layout.items():
            group = automaton.group_of(pid)
            exact = group.read is ReadKind.EXACT
            pos[pid][4:7] = group.width, offset, group.read_bound if exact else 0
            max_words = max(max_words, words)
        parts.append(_u64_matrix(f"B{slot}_CLS", zip(unit.labels, unit.cmatch), 2))
        parts.append(_u64_matrix(f"B{slot}_POS", pos, 8))
        masks = [
            sum(1 << p for p in pids if (p in layout) is counted)
            for pids in (automaton.initial, automaton.finals)
            for counted in (False, True)
        ]
        rows.append(
            f"  {{ {', '.join(map(_u64, masks))}, {int(unit.anchored_start)}, "
            f"{int(unit.anchored_end)}, {total}, B{slot}_CLS, B{slot}_POS }},"
        )
    parts += ["static const rap_nbva_unit NBVA_UNITS[] = {", *rows, "};"]
    parts.append(f"#define NBVA_MAX_WORDS {max_words}")
    parts.append(NBVA_CDEF[:-1] + _NBVA_SPAN)
    return "\n".join(parts)


def unit_scan_source(fused) -> str:
    """One translation unit covering every native-eligible scan unit:
    the GATHER units' forest under ``rap_units_span`` and the NBVA
    units' tables under ``rap_nbva_span``.  Returns an empty string when
    nothing is native-eligible, so callers can skip the build entirely.
    """
    bases, rows = unit_forest(fused)
    nbvas = native_nbva_indices(fused)
    if not rows and not nbvas:
        return ""
    parts = [_header("scan units", fused)]
    if rows:
        parts.append(_forest_section(fused, bases))
    if nbvas:
        parts.append(_nbva_section(fused, nbvas))
    return "\n".join(parts)
