"""C source emission for the ``native`` backend.

Each compiled ruleset becomes its *own* C: every table is a ``static
const`` array under kernel texts that are the same for every ruleset,
and the loops compute exactly what the portable scans of
:mod:`repro.core.fused` compute (same ``stats_from`` warm-up gating,
end-anchored masking and counters), so bit-identity holds by
construction.  One translation unit per binding (:func:`binding_source`),
built by one ``cc`` run: whichever tiers compile, then ``rap_scan_span``,
which steps every tier over a span — and counts the histogram of its
owned bytes — in one crossing, the binding's one entry point.  The tiers:

* :func:`lane_scan_source` — the lane-packed SHIFT_LEFT machine as **one
  DFA per group of adjacent bins**: each bin's closed
  :class:`~repro.core.table.StepTable` (the one the portable walker steps
  too), a group taking in the next bin while the *joint* table closes
  within the states it replaces.  Per group ``G<g>[state][class]`` holds
  one ``uint64`` per transition (the target's row offset ``id * NCLS`` in
  bits 0-31, its id in 32-62, a hit flag in 63; an anchored group has one
  more row, the stream start), ``T<g>[state][tile]`` the state's bits per
  tile and ``F<g>[state]`` its hit flags (1: a final that fires anywhere,
  2: one that fires only on the last byte).  Per byte: one lookup per
  group and ``visits[id]++``; tile counters are folded from the visits
  once per call.  Owned bytes go ``K`` sub-spans of ``L`` bytes in
  lockstep, the later ones entered empty ``WARM`` bytes early; a bin
  closing past :data:`LANE_DFA_MAX_STATES` leaves the lanes to the walker.
* :func:`unit_scan_source` — every GATHER unit's closed table as **one
  forest** of disjoint state-id ranges (:func:`unit_forest`):
  ``NEXT[row + class]`` is one ``uint32`` per transition (row offset in
  bits 0-22, live NFA positions in 23-30, a hit flag in 31) and
  ``FLAGS[state]`` the hit flags.  ``rap_units_span`` steps ``m``
  *cursors* — forest state ids: any units, any entries — byte-major, in
  private registers flushed every 65 536 bytes; beside the lanes its body
  is also inlined with ``m`` the binding's fresh cursor count (at most
  :data:`UNIT_FOLD_CURSORS`), so a bulk scan's loops unroll.  A binding
  whose placed units all have at most :data:`VECTOR_LANE_BITS` positions
  also gets the *state-vector* step, compiled where the compiler targets
  AVX-512: RAP's match-then-route step on packed position sets, one
  32-bit lane per unit, sixteen units a vector, for a span of every unit
  in unit order (:data:`FOREST_LANES` says whether it was compiled; the
  closed tables then serve the scalar spans and the ids).  NBVA units
  of at most :data:`NBVA_NATIVE_MAX_STATES` states follow as rows of
  ``NBVA_UNITS[]`` under ``rap_nbva_span``, which steps ``m`` cursors
  block by block (:data:`NBVA_BLOCK` bytes), cursor-outer within a block:
  a row of :data:`NBVA_COLUMNS` words each — the unit's slot, the
  stream-start flag, the offset of its vectors in ``vecs``
  (:func:`nbva_vector_layout`), the plain active set, the live counted
  set, its stall group, its match count and the ``NBVAStats`` counters
  but ``matched_states``, which the caller takes from the span's byte
  histogram.  A cursor ORs its BV cycles into its stall group's bitmap
  of the block; at the block's end each group's bitmap is popcounted
  into the group's stall counter — the cycles one BV phase or more
  stalls the group's array — so no position leaves the kernel, and the
  event buffer carries matches only.  With an empty frontier a byte's
  step depends on its class alone (RAP's power gating): the kernel skips
  to the next byte that can wake the unit — ``memchr`` when one or two
  byte values do (``B<slot>_STAYS`` marks the rest) — counting the cycles
  and SET1s the skipped bytes add.

Every source begins with a header naming
:data:`~repro.io.envelope.PLAN_VERSION` (the SHA-256 of the text is the
shared-object cache key) and the 256-entry class map: kernels read raw
bytes as ``CLS[data[i]]``.  Events cross the ABI as bounded buffers with
a continuation protocol: a full buffer returns 1 with the tier and the
place in it to resume at, the caller drains and re-enters;
counters accumulate in caller memory, so the drained stream is identical
to an unbounded one.  This module only *writes* C; building and loading
live in :mod:`repro.core.native`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import NamedTuple

from repro.automata.glushkov import EdgeAction, ReadKind
from repro.io.envelope import PLAN_VERSION

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

# The NBVA kernel's block (bytes, a multiple of 64): per stall group, a
# bitmap of one bit per byte unions the block's BV cycles.
NBVA_BLOCK = 1 << 16


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
        f" * plan_version: {PLAN_VERSION}\n"
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


def _inlined(name: str) -> str:
    """``rap_units_span``'s declaration as an always-inlined ``name``."""
    return UNITS_CDEF[:-1].replace(
        "int rap_units_span",
        f"static inline __attribute__((always_inline)) int {name}",
    )


# The kernel again, for a binding whose fresh cursor count ``FRESH_M``
# is small: the same body always inlined, once with ``m`` that constant
# (its per-cursor loops unroll into registers), once generic.
_FOLDED = r"""  if (m == FRESH_M)
    return units_body(data, n, start_i, state, FRESH_M, at_end, stats_from,
        active, ev_pos, ev_cursor, ev_state, cap, n_ev, resume_i);
"""
_GENERIC = (
    "  return units_body(data, n, start_i, state, m, at_end, stats_from, active,\n"
    "      ev_pos, ev_cursor, ev_state, cap, n_ev, resume_i);\n}\n"
)
_UNITS_FOLD = (
    "#define FRESH_M %(fold)d\n"
    + _inlined("units_body")
    + "%(body)s"
    + UNITS_CDEF[:-1]
    + "\n{\n"
    + _FOLDED
    + _GENERIC
)

# The forest's vector step, RAP's two moves (§3) for every unit at once,
# with edges as shifts the way Hyperscan's LimEx NFA encodes them: one
# 32-bit lane per unit (bit ``p``: NFA position ``p``), sixteen lanes a
# vector.  A byte's step is
#     S = (⋃_d shift(S & A_d, d) | INJ) & M[CLS[byte]]
# — ``SV_MOVE``, one term per edge distance ``d`` of the binding (a
# negative one shifts right) — its live positions one per-lane popcount
# and its hits one test of ``S`` against the finals (``SV_FINAL`` on the
# stream's last byte, ``SV_MID`` elsewhere).  Forest ids stay the ABI: a
# cursor enters as its state's word (``SV_WORD``) — a start-anchored
# unit's stream-start id stepping its first byte with ``SV_FIRST`` — and
# leaves, at its exit and at each event, as the id of its word (a binary
# search of its unit's ids sorted by word, ``SV_ORDER``).  Inlined for
# ``FRESH_M`` cursors, unit ``u`` in lane ``u``; any other span steps
# scalar.  Lanes read or written one at a time go through ``t``, so the
# stepped vectors never leave registers.
_VECTOR_KERNEL = r"""
static inline __attribute__((always_inline)) rap_v16 sv_pop(rap_v16 x)
{
#ifdef __AVX512VPOPCNTDQ__
  rap_v16 c;  /* one vpopcntd */
  int l;
  for (l = 0; l < 16; l++) c[l] = (uint32_t)__builtin_popcount(x[l]);
  return c;
#else
  x -= x >> 1 & 0x55555555u;
  x = (x & 0x33333333u) + (x >> 2 & 0x33333333u);
  return ((x + (x >> 4)) & 0x0f0f0f0fu) * 0x01010101u >> 24;
#endif
}

/* Whether any lane of ``f`` is set: one vptestmd (Clang has no builtin
   of that name: a reduction). */
static inline __attribute__((always_inline)) int sv_any(rap_v16 f)
{
#ifdef __clang__
  f |= __builtin_shufflevector(f, f, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3,
      4, 5, 6, 7);
  f |= __builtin_shufflevector(f, f, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 14, 15,
      8, 9, 10, 11);
  f |= __builtin_shufflevector(f, f, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,
      15, 12, 13);
  f |= __builtin_shufflevector(f, f, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13,
      12, 15, 14);
  return f[0] != 0;
#else
  return __builtin_ia32_ptestmd512((rap_i16)f, (rap_i16)f, 0xffff) != 0;
#endif
}

/* The id of unit u's closed state ``word``. */
static uint32_t sv_id(int u, uint32_t word)
{
  const uint32_t *words = SV_WORD + SV_UNIT[u][0];
  const uint16_t *order = SV_ORDER + SV_UNIT[u][0];
  uint32_t lo = 0, hi = SV_UNIT[u][1], mid;
  while (hi - lo > 1) {
    mid = (lo + hi) / 2;
    if (words[order[mid]] <= word) lo = mid; else hi = mid;
  }
  return SV_UNIT[u][0] + order[lo];
}

/* Whether every cursor u holds a state (or the stream start) of unit u. */
static int sv_in_order(const uint32_t *state)
{
  int u;
  for (u = 0; u < FRESH_M; u++)
    if (state[u] - SV_UNIT[u][0] >= SV_UNIT[u][2]) return 0;
  return 1;
}

/* One byte, every vector injecting ``inj``; an owned one adds its live
   positions to ``a`` and reports its hits. */
static inline __attribute__((always_inline)) long long sv_byte(rap_v16 *s,
    rap_v16 *a, rap_v16 *t, const rap_v16 *inj, int c, int own, long long i,
    long long last, long long *ev_pos, int32_t *ev_cursor, uint32_t *ev_state,
    long long ne)
{
  const rap_v16 *fin = i == last ? SV_FINAL : SV_MID;
  rap_v16 f = { 0 };
  int u, v;
  for (v = 0; v < SV_NV; v++) {
    s[v] = (SV_MOVE(s[v], v) | inj[v]) & SV_LABEL[c][v];
    if (own) { a[v] += sv_pop(s[v]); f |= s[v] & fin[v]; }
  }
  if (!own || !sv_any(f)) return ne;
  for (v = 0; v < SV_NV; v++) t[v] = s[v];
  for (u = 0; u < FRESH_M; u++)
    if (t[u >> 4][u & 15] & fin[u >> 4][u & 15]) {
      ev_pos[ne] = i; ev_cursor[ne] = u;
      ev_state[ne] = sv_id(u, t[u >> 4][u & 15]); ne++;
    }
  return ne;
}
"""

_VECTOR_BODY = r"""
{
  long long i = start_i, last = at_end ? n - 1 : -1, ne = 0;
  /* live sums since the last flush; the stream start's injections */
  rap_v16 s[SV_NV], a[SV_NV], t[SV_NV], x[SV_NV];
  int u, v, first = 0;
  for (v = 0; v < SV_NV; v++) { t[v] = a[v] = (rap_v16){ 0 }; x[v] = SV_INJ[v]; }
  for (u = 0; u < m; u++) {
    t[u >> 4][u & 15] = SV_WORD[state[u]];
    if (state[u] - SV_UNIT[u][0] == SV_UNIT[u][1]) {
      x[u >> 4][u & 15] = SV_FIRST[u >> 4][u & 15];
      first = 1;
    }
  }
  for (v = 0; v < SV_NV; v++) s[v] = t[v];
  if (first && i < n) {
    ne = sv_byte(s, a, t, x, CLS[data[i]], i >= stats_from, i, last, ev_pos,
        ev_cursor, ev_state, ne);
    i++;
  }
  /* the warm-up prefix drives the states but owns no statistics */
  for (; i < n && i < stats_from; i++)
    sv_byte(s, a, t, SV_INJ, CLS[data[i]], 0, i, last, ev_pos, ev_cursor,
        ev_state, ne);
  for (; i < n && cap - ne >= m; i++) {
    ne = sv_byte(s, a, t, SV_INJ, CLS[data[i]], 1, i, last, ev_pos, ev_cursor,
        ev_state, ne);
    if (!(~i & 0xffff)) {  /* 65 536 bytes of <= 32 live positions fit 32 bits */
      for (v = 0; v < SV_NV; v++) { t[v] = a[v]; a[v] = (rap_v16){ 0 }; }
      for (u = 0; u < m; u++) active[u] += t[u >> 4][u & 15];
    }
  }
  for (v = 0; v < SV_NV; v++) { t[v] = s[v]; x[v] = a[v]; }  /* lanes out */
  for (u = 0; u < m; u++) {
    if (i > start_i) state[u] = sv_id(u, t[u >> 4][u & 15]);
    active[u] += x[u >> 4][u & 15];
  }
  *n_ev = ne; *resume_i = i;
  return i < n;
}
"""

# The forest's library exports this constant: 16 when it compiled the
# state-vector step (the host's ``cc -march=native`` targets AVX-512), 1
# when it steps every span one cursor at a time.
FOREST_LANES = "rap_forest_lanes"

# The NFA positions a lane holds: a binding whose placed units all have
# at most this many gets the state-vector step.
VECTOR_LANE_BITS = 32


def vectors_why(fused, bases: Sequence[int | str]) -> str | None:
    """Why the placed units of ``bases`` (:func:`unit_forest`) do not
    pack into the state-vector step, or None when they do."""
    for number, (unit, base) in enumerate(zip(fused._units, bases)):
        if type(base) is int and unit.program.width > VECTOR_LANE_BITS:
            return (
                f"unit {number} has {unit.program.width} positions "
                f"> {VECTOR_LANE_BITS}"
            )
    return None


def _lanes(values: Sequence[int]) -> str:
    """``values`` (one per placed unit) as a row of sixteen-lane vectors."""
    words = [str(v) for v in values] + ["0"] * (-len(values) % 16)
    rows = (", ".join(words[k : k + 16]) for k in range(0, len(words), 16))
    return "{ { " + " }, { ".join(rows) + " } }"


# ``rap_units_span`` beside the state-vector step: a span of the
# binding's units in unit order takes it, any other span the scalar body
# (with ``%(fold)s``, folded for the fresh count where the step is not
# compiled).
_VECTOR_SPAN = (
    UNITS_CDEF[:-1]
    + r"""
{
#ifdef RAP_VECTORS
  if (m == FRESH_M && sv_in_order(state))
    return vectors_body(data, n, start_i, state, FRESH_M, at_end, stats_from,
        active, ev_pos, ev_cursor, ev_state, cap, n_ev, resume_i);
%(fold)s#endif
"""
    + _GENERIC
)


def _vector_section(fused, bases: Sequence[int | str], fold: bool) -> str:
    """The state-vector step for the placed units (every one packs), its
    tables and ``rap_units_span``, under the AVX-512 guard — GCC 12+ /
    Clang vector extensions and builtins, no intrinsics header (one would
    add ~0.25 s of cc to every build) — and the scalar body for every
    other span (with ``fold``, folded for the fresh count where the
    guard fails)."""
    placed = [(u, b) for u, b in zip(fused._units, bases) if type(b) is int]
    programs = [unit.program for unit, _ in placed]
    # distance -> per unit, the targets of its edges that long (0 always:
    # the self-loops' term, so no binding's table is empty)
    edges: dict[int, list[int]] = {0: [0] * len(placed)}
    for k, program in enumerate(programs):
        for src, succ in enumerate(program.succ):
            for dst in range(program.width):
                if succ >> dst & 1:
                    masks = edges.setdefault(dst - src, [0] * len(placed))
                    masks[k] |= 1 << dst
    distances = sorted(edges)
    shifts = [f" << {d}" if d > 0 else f" >> {-d}" if d else "" for d in distances]
    move = " | ".join(f"((s){sh} & SV_EDGE[{k}][v])" for k, sh in enumerate(shifts))
    words, order, units = [], [], []
    for unit, base in placed:
        table = unit.table
        known, start = table.words[: table.closed], table.start is not None
        words += known + [0] * start
        order += sorted(range(table.closed), key=known.__getitem__) + [0] * start
        units.append(f"{{ {base}, {table.closed}, {table.closed + start} }}")

    def rows(name: str, values) -> str:
        return f"static const rap_v16 {name}[SV_NV] = {_lanes(values)};"

    labels = (_lanes([u.labels[c] for u, _ in placed]) for c in range(fused.classes.k))
    return "\n".join(
        [
            f"#define FRESH_M {len(placed)}",
            "#if defined(__AVX512F__) && (defined(__clang__) || __GNUC__ >= 12)",
            "#define RAP_VECTORS",
            f"const int {FOREST_LANES} = 16;",
            "typedef uint32_t rap_v16 __attribute__((vector_size(64)));",
            "typedef int32_t rap_i16 __attribute__((vector_size(64)));",
            f"#define SV_NV {-(-len(placed) // 16)}",
            f"static const rap_v16 SV_LABEL[NCLS][SV_NV] = {{ {', '.join(labels)} }};",
            rows("SV_INJ", [p.inject_always for p in programs]),
            rows("SV_FIRST", [p.inject_first for p in programs]),
            rows("SV_MID", [p.final & ~p.end_anchored_finals for p in programs]),
            rows("SV_FINAL", [p.final for p in programs]),
            "static const rap_v16 SV_EDGE[][SV_NV] = "
            f"{{ {', '.join(_lanes(edges[d]) for d in distances)} }};",
            f"#define SV_MOVE(s, v) ({move})",
            f"static const uint32_t SV_WORD[] = {{ {', '.join(map(str, words))} }};",
            _u16_array("SV_ORDER", order),
            f"static const uint32_t SV_UNIT[FRESH_M][3] = {{ {', '.join(units)} }};",
            _VECTOR_KERNEL.strip("\n"),
            _inlined("vectors_body") + _VECTOR_BODY.rstrip("\n"),
            f"#else\nconst int {FOREST_LANES} = 1;\n#endif",
            _inlined("units_body") + _UNITS_KERNEL.rstrip("\n"),
            _VECTOR_SPAN % dict(fold="#else\n" + _FOLDED if fold else ""),
        ]
    )


# ``NEXT`` words a 23-bit row offset reaches; cursors the kernel's arrays
# hold; the most fresh cursors a binding's scalar kernel is folded for
# beside the lanes (one register per cursor: many more measured slower
# than the generic loop).
FOREST_ENTRIES = 1 << 23
UNIT_SPAN_CURSORS = 1024
UNIT_FOLD_CURSORS = 16


def unit_forest(fused) -> tuple[list[int | str], int]:
    """Where each GATHER unit's table starts in the forest's global
    state ids (units numbered as :meth:`FusedRuleset.scan_span
    <repro.core.fused.FusedRuleset.scan_span>` does) — or, as a
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


def _forest_section(fused, bases: Sequence[int | str], fold: int = 0) -> str:
    """``NEXT`` / ``FLAGS`` as the module docstring describes them —
    every placed unit's table at its id range — then the one kernel
    text; with ``fold``, as the body of a ``rap_units_span`` that steps
    ``m == fold`` cursors with ``m`` a constant.  When every placed unit
    packs, beside the state-vector step: the scalar fold then only where
    that step is not compiled."""
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
    if vectors_why(fused, bases) is None:
        kernel = _vector_section(fused, bases, bool(fold))
    elif fold:
        kernel = _UNITS_FOLD % dict(fold=fold, body=_UNITS_KERNEL)
    else:
        kernel = UNITS_CDEF[:-1] + _UNITS_KERNEL
    return "\n".join(
        [
            f"#define MAXM {UNIT_SPAN_CURSORS}",
            f"static const uint32_t NEXT[] = {{ {', '.join(nxt)} }};",
            _u8_array("FLAGS", flags),
            kernel,
        ]
    )


# -- NBVA units ---------------------------------------------------------------

NBVA_CDEF = (
    "int rap_nbva_span(const uint8_t *data, long long n, int m, int at_end,\n"
    "    uint64_t *cursors, uint64_t *vecs, long long *ev, long long cap,\n"
    "    long long *at, uint64_t *bits, long long *stalls, int groups);"
)

# A cursor row's columns, ``uint64`` each: the unit's slot in
# ``NBVA_UNITS``, whether it enters at the stream start, the word offset
# of its vectors in ``vecs`` (as many scratch words follow them), the
# plain active set, the live counted set, its stall group, its matches in
# the buffer at the last return, then the eleven ``NBVAStats`` counters
# (``matched_states`` left at 0).  The buffer holds every cursor's
# matches in turn.
NBVA_COLUMNS = 18

# The one table-driven stepping loop shared by every NBVA unit of a
# translation unit: ``NBVAScanner.feed``'s step, line for line, except
# that a run of bytes which leaves an empty frontier empty — which the
# oracle steps one byte at a time — is skipped (``memchr``, or the unit's
# ``STAYS`` row), adding the constant counters those bytes add, and that
# ``matched_states`` is the caller's.  Bit ``p`` of every mask is
# Glushkov position ``p``; counted position ``p``'s vector is
# little-endian words at ``pos[p][P_VOFF]`` past the cursor's offset
# (only positions in its live set hold meaningful words).
_NBVA_KERNEL = r"""
/* Table-driven and branchy: -O3 spends ~0.1 s of cc vectorizing word
   loops that run one or two iterations, for no measurable speed. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize ("O1")
#endif

#include <string.h>

/* columns of pos[]: ACTIVATE / SET1 / COPY / SHIFT target masks, then
   vector width, word offset, read bit + 1 (0: rAll), first shift target */
enum { P_ACT, P_SET1, P_COPY, P_SHIFT, P_WIDTH, P_VOFF, P_READ, P_SHF };
typedef struct {
  uint64_t init_plain, init_set1, final_plain, final_counted;
  int anchored_start, anchored_end, total_words;
  const uint64_t (*cls)[2];  /* per class: plain labels, counted matches */
  const uint64_t (*pos)[8];
  const uint8_t *stays;  /* per byte: 1 when it keeps an empty frontier empty */
  int wakes, wake[2];  /* how many byte values wake it; the first two */
} rap_nbva_unit;
/* columns of a cursor row: see NBVA_COLUMNS in repro.core.codegen */
enum { C_UNIT, C_FRESH, C_VOFF, C_ACT, C_LIVE, C_GROUP, C_NMATCH, C_STATS,
       NBVA_COLUMNS = C_STATS + 11 };
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
/* One cursor from byte i of the block [b, e): stops at e, or after the
   match that fills the buffer; its frontier goes back to its row, its
   BV cycles into its stall group's bitmap of the block. */
static long long nbva_cursor(const uint8_t *data, long long n, long long e,
    long long b, long long i, int at_end, uint64_t *row, uint64_t *vecs,
    long long *ev, long long cap, long long *nm, uint64_t *bits)
{
  const rap_nbva_unit *u = &NBVA_UNITS[row[C_UNIT]];
  uint64_t act = row[C_ACT], lv = row[C_LIVE], *counters = row + C_STATS;
  uint64_t *own = vecs + row[C_VOFF], *cur = own, *nxt = own + u->total_words;
  uint64_t shifted[NBVA_MAX_WORDS];
  long long last = n - 1, n_idle;
  int w, cur_dirty = 1, nxt_dirty = 1, fresh = (int)row[C_FRESH];
  for (; i < e; i++) {
    int c = CLS[data[i]], start = !(u->anchored_start && !(fresh && i == 0));
    uint64_t avail, set1, matching, touched = 0, a, nlv = 0;
    if (!act && !lv && !(u->anchored_start && start)) {
      /* an empty frontier: skip the bytes that keep it empty (past an
         anchored start, all of them) — memchr for the one or two byte
         values that wake most units, else eight lookups at a time —
         adding what each would count.  Neither vector buffer is
         written, so their dirty flags hold. */
      const uint8_t *st = u->stays, *p;
      long long j = u->anchored_start ? e : i;
      if (j < e && u->wakes <= 2) {
        p = u->wakes ? memchr(data + j, u->wake[0], e - j) : 0;
        n_idle = p ? p - data : e;
        p = u->wakes == 2 ? memchr(data + j, u->wake[1], n_idle - j) : 0;
        j = p ? p - data : n_idle;
      }
      for (; j + 8 <= e; j += 8) {
        const uint8_t *d = data + j;
        if (!(st[d[0]] & st[d[1]] & st[d[2]] & st[d[3]] & st[d[4]] & st[d[5]]
              & st[d[6]] & st[d[7]]))
          break;
      }
      for (; j < e && st[data[j]]; j++) {}
      counters[0] += j - i;
      counters[6] += start ? (j - i) * POP(u->init_set1) : 0;
      if ((i = j) == e) break;
      c = CLS[data[i]];
    }
    avail = start ? u->init_plain : 0;
    set1 = start ? u->init_set1 : 0;
    matching = u->cls[c][1];
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
    counters[6] += POP(set1);
    counters[5] += POP(lv);
    if (lv) {
      counters[4]++;
      bits[(i - b) >> 6] |= 1ULL << ((i - b) & 63);
    }
    {
      int matched = (act & u->final_plain) != 0;
      for (a = lv & u->final_counted; a && !matched; a &= a - 1) {
        int p = __builtin_ctzll(a);
        matched = nbva_read(u, p, cur + u->pos[p][P_VOFF]);
      }
      if (matched && (!u->anchored_end || (at_end && i == last))) {
        counters[3]++;
        ev[(*nm)++] = i;
        if (*nm == cap) { i++; break; }
      }
    }
  }
  if (cur != own) for (w = 0; w < u->total_words; w++) own[w] = cur[w];
  row[C_ACT] = act; row[C_LIVE] = lv;
  return i;
}

/* Block-outer, cursor-inner; each group's bitmap is counted as its block
   ends.  A full buffer (cap >= 1) returns 1 with the (cursor, position,
   block) to resume at, as does a block ending with matches in the
   buffer: a return holds each cursor's matches of one block in turn. */
RAP_NBVA_SPAN
{
  long long k, i = at[1], b = at[2], e, nm = 0, g, w, words;
  if (!i)
    for (g = 0; g < groups; g++) stalls[g] = 0;
  for (k = 0; k < m; k++) cursors[k * NBVA_COLUMNS + C_NMATCH] = 0;
  for (k = at[0]; b < n; b = e, k = 0, i = e) {
    e = n - b > NBVA_BLOCK ? b + NBVA_BLOCK : n;
    words = (e - b + 63) >> 6;
    if (!k && i == b)
      for (g = 0; g < groups; g++)
        memset(bits + g * NBVA_BLOCK_WORDS, 0, (size_t)words * sizeof *bits);
    for (; k < m; k++, i = b) {
      uint64_t *row = cursors + k * NBVA_COLUMNS;
      long long m0 = nm;
      i = nbva_cursor(data, n, e, b, i, at_end, row, vecs, ev, cap, &nm,
                      bits + row[C_GROUP] * NBVA_BLOCK_WORDS);
      row[C_NMATCH] = nm - m0;
      if (nm == cap) {
        at[0] = k; at[1] = i; at[2] = b;
        return 1;
      }
    }
    for (g = 0; g < groups; g++)
      for (w = 0; w < words; w++) stalls[g] += POP(bits[g * NBVA_BLOCK_WORDS + w]);
    if (nm && e < n) {
      at[0] = 0; at[1] = at[2] = e;
      return 1;
    }
  }
  at[0] = at[1] = at[2] = 0;
  return 0;
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
    class_of = fused.classes.class_of
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
        # per class: whether it leaves an empty frontier empty — spelled
        # out per byte value, so the skip loop makes one lookup a byte
        stays = [
            not (masks[0] & plain or masks[1] & counted)
            for plain, counted in zip(unit.labels, unit.cmatch)
        ]
        parts.append(_u8_array(f"B{slot}_STAYS", map(stays.__getitem__, class_of)))
        wake = [b for b in range(256) if not stays[class_of[b]]]
        first = ", ".join(map(str, (wake + [0, 0])[:2]))
        rows.append(
            f"  {{ {', '.join(map(_u64, masks))}, {int(unit.anchored_start)}, "
            f"{int(unit.anchored_end)}, {total}, B{slot}_CLS, B{slot}_POS, "
            f"B{slot}_STAYS, {len(wake)}, {{ {first} }} }},"
        )
    parts += ["static const rap_nbva_unit NBVA_UNITS[] = {", *rows, "};"]
    parts.append(f"#define NBVA_MAX_WORDS {max_words}")
    parts.append(f"#define NBVA_BLOCK {NBVA_BLOCK}")
    parts.append(f"#define NBVA_BLOCK_WORDS {NBVA_BLOCK // 64}")
    parts.append(_NBVA_SPAN.replace("RAP_NBVA_SPAN", NBVA_CDEF[:-1]))
    return "\n".join(parts)


def unit_scan_source(fused, fold: int = 0) -> str:
    """One translation unit covering every native-eligible scan unit:
    the GATHER units' forest under ``rap_units_span`` (its scalar kernel
    also inlined for ``fold`` cursors, a merged binding's fresh count;
    the state-vector step for them all when every placed unit packs) and
    the NBVA units' tables under ``rap_nbva_span``.  Returns an empty
    string when nothing is native-eligible, so callers can skip the
    build.
    """
    bases, rows = unit_forest(fused)
    nbvas = native_nbva_indices(fused)
    if not rows and not nbvas:
        return ""
    parts = [_header("scan units", fused)]
    if rows:
        parts.append(_forest_section(fused, bases, fold))
    if nbvas:
        parts.append(_nbva_section(fused, nbvas))
    return "\n".join(parts)


# ``rap_scan_span``'s control words, in order (``ctl[S_<NAME>]``): the
# tier to resume (0 lanes, 1 units, 2 NBVA) and where in it (the NBVA
# kernel's cursor, position and block), the lanes' fresh flag (-1: no
# lanes), the unit and NBVA cursor counts, each tier's event cap, the
# binding's stall group count, and the lane hits and unit events the
# call left in their buffers.
SCAN_CTL = (
    "tier", "at", "nbva_cursor", "nbva_at", "nbva_block", "lanes", "units",
    "nbva", "lane_cap", "unit_cap", "nbva_cap", "groups", "hits", "events",
)

SCAN_CDEF = (
    "int rap_scan_span(const uint8_t *data, long long n, int at_end,\n"
    "    long long stats_from, uint64_t *cursors, uint64_t *vecs, long long *ctl,\n"
    "    uint32_t *lane_state, long long *tile_cycles, long long *tile_bits,\n"
    "    long long *visits, long long *hit_pos, uint32_t *hit_states,\n"
    "    uint32_t *unit_state, long long *active, long long *ev_pos,\n"
    "    int32_t *ev_cursor, uint32_t *ev_state, long long *ev, long long *hist,\n"
    "    uint64_t *stall_bits, long long *stalls);"
)

# Every tier's kernel in turn over one span and, for the units' and
# NBVA units' ``matched_states``, the histogram of its owned bytes.  A
# full event buffer returns 1 with the tier and the place to resume at
# in ``ctl``; the caller drains every tier's buffer (each kernel's
# events since the last return) and re-enters.  The span's counters
# (visits, active sums, histogram, stall counts) are zeroed as each tier
# starts, and a finished span leaves ``ctl`` at the start of the next
# one, so the caller writes no word between spans of the same shape.
_SCAN_SPAN = r"""
RAP_SCAN_SPAN
{
  long long i;
  ctl[S_HITS] = ctl[S_EVENTS] = 0;
  switch (ctl[S_TIER]) {
  case 0:
#ifdef NGROUPS
    if (ctl[S_LANES] >= 0) {
      if (!ctl[S_AT])
        for (i = 0; i < K * NVISITS; i++) visits[i] = 0;
      if (rap_lane_scan(data, n, ctl[S_AT], lane_state, (int)ctl[S_LANES],
              at_end, stats_from, tile_cycles, tile_bits, visits, hit_pos,
              hit_states, ctl[S_LANE_CAP], ctl + S_HITS, ctl + S_AT))
        return 1;
    }
#else
    (void)lane_state; (void)tile_cycles; (void)tile_bits; (void)visits;
    (void)hit_pos; (void)hit_states;
#endif
    ctl[S_TIER] = 1;
    ctl[S_AT] = 0;
    if (ctl[S_UNITS] || ctl[S_NBVA]) {
      for (i = 0; i < 256; i++) hist[i] = 0;
      for (i = stats_from > 0 ? stats_from : 0; i < n; i++) hist[data[i]]++;
    }
    /* fall through */
  case 1:
#ifdef MAXM
    if (!ctl[S_AT])
      for (i = 0; i < ctl[S_UNITS]; i++) active[i] = 0;
    if (ctl[S_UNITS] && rap_units_span(data, n, ctl[S_AT], unit_state,
            (int)ctl[S_UNITS], at_end, stats_from, active, ev_pos, ev_cursor,
            ev_state, ctl[S_UNIT_CAP], ctl + S_EVENTS, ctl + S_AT))
      return 1;
#else
    (void)unit_state; (void)active; (void)ev_pos; (void)ev_cursor; (void)ev_state;
#endif
    ctl[S_TIER] = 2;
    /* fall through */
  default:
#ifdef NBVA_MAX_WORDS
    if (ctl[S_NBVA] && rap_nbva_span(data, n, (int)ctl[S_NBVA], at_end, cursors,
            vecs, ev, ctl[S_NBVA_CAP], ctl + S_NBVA_CURSOR, stall_bits, stalls,
            (int)ctl[S_GROUPS]))
      return 1;
#else
    (void)cursors; (void)vecs; (void)ev; (void)stall_bits; (void)stalls;
#endif
    ctl[S_TIER] = ctl[S_AT] = 0;
    return 0;
  }
}
"""


_OPTIMIZE = "#if defined(__GNUC__) && !defined(__clang__)\n#pragma GCC %s\n#endif"


class BindingKernel(NamedTuple):
    """What :func:`binding_source` hands the loader: the one C text
    (empty: no tier compiles), its lane kernel (``None``, and why in
    ``lanes_why``, when the lanes are walked), the fresh cursor count
    its scalar unit kernel is folded for (0: none) and why its forest
    has no state-vector step (``None``: it has, and exports
    :data:`FOREST_LANES`)."""

    source: str
    lanes: LaneKernel | None
    lanes_why: str | None
    fold: int
    scalar_why: str | None = None


def binding_source(fused, tile_masks: Sequence[Sequence[int]]) -> BindingKernel:
    """The one translation unit of a binding: whichever of the lane
    kernel (:func:`lane_scan_source`) and the units' forest and NBVA
    tables (:func:`unit_scan_source`: the state-vector step when every
    placed unit packs, the scalar kernel folded for the fresh cursor
    count beside the lanes) compile, then ``rap_scan_span`` over them
    all — the tiers it lacks ``#ifdef``-guarded away."""
    lanes = why = None
    if fused.bases:
        try:
            lanes = lane_scan_source(fused, tile_masks)
        except ValueError as err:
            why = str(err)
    bases = unit_forest(fused)[0]
    fresh = sum(isinstance(base, int) for base in bases)
    fold = fresh if lanes and fresh <= UNIT_FOLD_CURSORS else 0
    units = unit_scan_source(fused, fold)
    if lanes is None and not units:
        return BindingKernel("", None, why, 0)
    held = ["lanes"] * bool(lanes) + ["units"] * bool(units)
    parts = [_header("binding: " + " and ".join(held), fused)]
    if lanes:
        body = lanes.source.removeprefix(
            _header("lane machine (grouped dfa)", fused) + "\n"
        )
        # Beside the units the lanes step spans of kilobytes: -O1 reads
        # them as fast as -O3 (the mix: ~37 us either way) for ~0.1 s
        # less of cc.  Alone they step whole streams, where -O1 costs
        # a third more per byte.
        if units:
            body = "\n".join(
                [_OPTIMIZE % "push_options\n#pragma GCC optimize (\"O1\")", body,
                 _OPTIMIZE % "pop_options"]
            )
        parts.append(body)
    if units:
        parts.append(units.removeprefix(_header("scan units", fused) + "\n"))
    ctl = ", ".join("S_" + name.upper() for name in SCAN_CTL)
    parts += [f"enum {{ {ctl} }};", _SCAN_SPAN.replace("RAP_SCAN_SPAN", SCAN_CDEF[:-1])]
    return BindingKernel(
        "\n".join(parts), lanes, why, fold, vectors_why(fused, bases)
    )
