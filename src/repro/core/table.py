"""The step table — one automaton determinised on demand, the
execution IR of every lane bin and every GATHER unit.

A bit-parallel machine's word evolves as ``w' = avail(w) & labels[c]``,
and the words it can reach are a finite set: interning each as a small
id and remembering a state's successor id per class turns the machine
into a table that steps with one lookup per symbol.  A state remembers
the word it stands for, so a table scan reports exactly what the
bit-parallel scan would (Siddique et al.'s NFA↔DFA equivalence, kept
executable): the same events, the same activity — a property of the
state, folded from a histogram of state visits — and entry and exit
states that travel as plain words.

:class:`StepTable` is that construction with two parameters:

* the **successor rule** — ``(w << 1) & keep | inject`` for a SHIFT_LEFT
  :class:`~repro.core.program.KernelProgram` (a lane bin),
  ``inject | ⋃ succ[b]`` over the set bits ``b`` for a GATHER one (an
  NFA- or DFA-mode unit);
* the **payload masks** — a state's ``bits`` are its popcounts under
  each mask: a bin's per-tile masks, a unit's single all-ones mask
  (``bits[sid][0]`` is then the live-position count).

Rows are filled the first time they are asked for.  :meth:`close` fills
all of them breadth-first, fixing ids the generated C can dump
(:mod:`repro.core.codegen`); :meth:`walk` is the one portable stepper,
of closed and unclosed tables alike.  Stdlib only.
"""

from __future__ import annotations

import re
import threading
from array import array
from collections.abc import Sequence

from repro.core.program import KernelProgram

# The stream-start pseudo-state inside :meth:`StepTable.walk`: truthy
# (never asleep) and not an index, so ``rows[_START]`` raises exactly as
# an unfilled row does.
_START = object()


class StepTable:
    """One machine over ``k = len(labels)`` symbol classes, determinised
    on demand.

    State words are interned to ids in discovery order from the empty
    word (id 0): ``words`` / ``ids`` map both ways, ``rows[sid]`` is the
    state's successor id per class (``None`` until :meth:`row` fills
    it), ``bits[sid]`` its popcount under each payload mask and
    ``flags[sid]`` its hit flags (1 = holds a final that fires anywhere,
    2 = one that fires only on the stream's last byte).  A machine whose
    first byte is injected differently (``inject_first``, a start
    anchor) has a ``start`` row, the stream-start pseudo-state's
    successors — not a state: nothing steps *to* it.

    :meth:`close` fixes the first ``closed`` ids and stores their rows
    flat (``flat[sid * k + cls]``); states met afterwards only ever
    append, and :meth:`restart` forgets them again once more than
    ``cap`` have piled up, so a hostile stream over an unclosable
    machine cannot grow the table without limit.  Everything past the
    closure is a cache the walkers of one table fill taking turns; the
    table never leaves its process.
    """

    def __init__(
        self,
        program: KernelProgram,
        labels: Sequence[int],
        *,
        masks: Sequence[int] = (),
        cap: int,
    ):
        """``program`` is the SHIFT_LEFT or GATHER machine, ``labels[c]``
        its label mask for symbol class ``c`` (its own 256 bytes, or the
        classes of an alphabet it shares), ``masks`` the payload."""
        self.k = len(labels)
        self.masks = tuple(masks)
        self.cap = cap
        inject = self._inject = program.inject_always
        self._first = None if program.inject_first == inject else program.inject_first
        self._mid_final = program.final & ~program.end_anchored_finals
        self._end_final = program.final & program.end_anchored_finals
        # the SHIFT rule when ``succ`` is None
        self._keep, self._succ = ~program.clear_after_shift, program.succ
        # Most classes of a shared alphabet exist for some *other* unit's
        # sake: step each state once per distinct label, then spread.
        self._distinct = list(dict.fromkeys(labels))
        self._column = [self._distinct.index(m) for m in labels]
        # The classes that revive the empty word: state 0 sleeps until one.
        hot = bytes(c for c, m in enumerate(labels) if inject & m)
        self._wake = re.compile(b"[" + re.escape(hot) + b"]" if hot else b"(?!)")
        self.words: list[int] = []
        self.ids: dict[int, int] = {}
        self.rows: list[list[int] | None] = []
        self.bits: list[tuple[int, ...]] = []
        self.flags: list[int] = []
        self.closed = 0  # states close() fixed: the ids the C tables hold
        self.flat = array("H")  # their rows
        self._walking = threading.Lock()
        self.restart()

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, sid: int) -> int:
        """State ``sid``'s word."""
        return self.words[sid]

    def intern(self, word: int) -> int:
        """The id of state ``word`` (a new last id if never met)."""
        sid = self.ids.get(word)
        if sid is None:
            sid = self.ids[word] = len(self.words)
            self.words.append(word)
            self.rows.append(None)
            self.bits.append(tuple((word & m).bit_count() for m in self.masks))
            self.flags.append(
                bool(word & self._mid_final) | bool(word & self._end_final) << 1
            )
        return sid

    def closed_id(self, word: int | None) -> int | None:
        """The id the closed rows — and the C tables dumped from them —
        know an entry by: ``word``'s, or for ``None`` the stream
        start's (an anchored table's extra last row, else state 0).
        ``None`` when ``word`` is not one of the closed states."""
        if word is None:
            return self.closed if self.start is not None else 0
        sid = self.ids.get(word, self.closed)
        return sid if sid < self.closed else None

    def _successors(self, avail: int) -> list[int]:
        known = self.ids.get  # most successors are states already met
        row = [known(avail & m) or self.intern(avail & m) for m in self._distinct]
        return [row[col] for col in self._column]

    def _step(self, sid: int) -> list[int]:
        word, succ = self.words[sid], self._succ
        if succ is None:
            return self._successors((word << 1) & self._keep | self._inject)
        avail = self._inject
        while word:
            low = word & -word
            avail |= succ[low.bit_length() - 1]
            word ^= low
        return self._successors(avail)

    def row(self, sid: int) -> list[int]:
        """State ``sid``'s successor id per class."""
        row = self.rows[sid]
        if row is None:
            if sid < self.closed:
                row = self.flat[sid * self.k : (sid + 1) * self.k].tolist()
            else:
                row = self._step(sid)
            self.rows[sid] = row
        return row

    def restart(self) -> None:
        """Forget every state interned since :meth:`close` (without one:
        all but the empty word).  Ids held across a restart are void."""
        for word in self.words[self.closed :]:
            del self.ids[word]
        for column in (self.words, self.rows, self.bits, self.flags):
            del column[self.closed :]
        if not self.closed:
            self.intern(0)
            self.start = (
                None if self._first is None else self._successors(self._first)
            )

    def close(self) -> bool:
        """Fill every row, breadth-first from a fresh table with classes
        in index order — so ids, and the source emitted from them, are
        the same in every process, whatever was walked first.  False,
        nothing fixed, when the closure holds more than ``cap`` states
        (ids, and the start row one past them, must fit ``uint16``)."""
        with self._walking:
            if not self.closed:
                self.restart()
                flat = array("H")
                sid = 0
                while sid < len(self.words):
                    if len(self.words) > self.cap:
                        self.restart()
                        return False
                    flat.extend(self._step(sid))
                    sid += 1
                self.closed, self.flat = sid, flat
            return True

    def _fold(self, visits: list[int], cycles: list[int], bits: list[int]) -> None:
        """Payload statistics are a property of the state: add a visit
        histogram's wake-ups and live bits, exactly as the C does."""
        for sid, count in enumerate(visits):
            if count:
                for t, live in enumerate(self.bits[sid]):
                    if live:
                        cycles[t] += count
                        bits[t] += count * live

    def walk(
        self, cls: bytes, word: int, *, fresh: bool, at_end: bool, stats_from: int
    ) -> tuple[list[int], list[int], list[tuple[int, int]], int]:
        """Step the machine over one class stream from state ``word``
        (ignored when ``fresh``, the true stream start): one row lookup
        per byte, asleep in state 0 until a reviving class.  Returns,
        per payload mask, the owned bytes (``stats_from`` on) it was
        live under and its live bits summed over them, ``(position,
        state word)`` wherever a final fires, and the exit word — the
        generated kernels' results.  Rows are filled as they are first
        needed; once more than ``cap`` states are interned beyond the
        closed ones the table restarts mid-stream."""
        with self._walking:  # the table is shared by every scan of the plan
            words, rows, flags = self.words, self.rows, self.flags
            wake = self._wake.search
            cycles, bits = [0] * len(self.masks), [0] * len(self.masks)
            hits: list[tuple[int, int]] = []
            if not fresh:
                sid = self.intern(word)
            else:
                sid = _START if self.start is not None and cls else 0
            visits = [0] * len(words)
            last = len(cls) - 1 if at_end else -1
            i, n = 0, len(cls)
            while i < n:
                if not sid:
                    woken = wake(cls, i)
                    if woken is None:
                        break
                    i = woken.start()
                try:
                    sid = rows[sid][cls[i]]
                except TypeError:  # no such row yet: the start's, or one to fill
                    if sid is _START:
                        row = self.start
                    else:
                        if sid >= self.closed and len(words) > self.cap + self.closed:
                            word = words[sid]  # ids do not survive a restart
                            self._fold(visits, cycles, bits)
                            self.restart()
                            sid, visits = self.intern(word), []
                        row = self.row(sid)
                        visits += [0] * (len(words) - len(visits))
                    sid = row[cls[i]]
                if sid and i >= stats_from:
                    visits[sid] += 1
                    hit = flags[sid]
                    if hit and (hit & 1 or i == last):
                        hits.append((i, words[sid]))
                i += 1
            self._fold(visits, cycles, bits)
            return cycles, bits, hits, words[sid]
