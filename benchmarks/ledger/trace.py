"""In-memory spans and the ``wrap()`` shim the traced pass is built on.

A traced pass swaps named public callables of ``repro`` for timing shims
*at the name their caller looks them up under* (a class attribute, or a
module global for ``from x import f`` call sites), runs a handful of
operations, and restores every original.  Spans stay in memory until the
pass ends; a layer's **self time** is its span minus the spans it
directly caused, so nested layers never double count.

The tracer is single-threaded by design: every traced call path in the
ledger is synchronous, and the serve trace drives one session so no two
operations interleave.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    """Records ``[name, start, end, parent, op]`` spans and patches shims."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # id of the operation in flight; -1 outside any op
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Swap ``owner.attr`` for a shim recording spans called ``name``.

        ``owner`` is the class or module the *caller* resolves ``attr``
        on.  ``observe(args, kwargs, result)`` runs after each call,
        outside the span, so counters (bytes written, tiles mapped) are
        taken at the same boundary as the time.  Undone by
        :meth:`restore`.
        """
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        if not inspect.isfunction(original) and not inspect.isbuiltin(original):
            raise TypeError(
                f"{owner.__name__}.{attr} is not a plain function; "
                "wrap() patches functions and methods only"
            )
        span = self.span

        def shim(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        shim.__name__ = getattr(original, "__name__", attr)
        shim.__wrapped__ = original
        setattr(owner, attr, shim)
        self._patched.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, saved = self._patched.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    @contextmanager
    def wrapped(self, targets):
        """Patch ``(owner, attr, name[, observe])`` targets for the body."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.restore()

    def dump(self, path) -> None:
        """Write the raw spans (the pass has ended)."""
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "spans": self.spans},
                f,
            )


def self_seconds(spans) -> list[float]:
    """Each span's self time: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans) -> dict[str, float]:
    """Self seconds per name for ``[name, start, end, parent, op]`` spans."""
    out: dict[str, float] = defaultdict(float)
    for record, own in zip(spans, self_seconds(spans)):
        out[record[0]] += own
    return dict(out)
