"""Backend registry: how whole rulesets execute.

Selection order (first hit wins):

1. an explicit name passed to :func:`resolve_backend`;
2. the scoped override of :func:`use_backend`, private to the thread or
   task (a :class:`~contextvars.ContextVar`) that entered it;
3. the process default set via :func:`set_default_backend`;
4. the ``RAP_BACKEND`` environment variable;
5. ``"python"``.

A resolution is memoised on what it reads — the requested name, and
``RAP_BACKEND``, ``RAP_NATIVE_DISABLE``, ``CC`` and ``PATH`` — so a scan
pays at most four environment lookups, not the capability probes.  The
probes themselves are taken as fixed: code that swaps one in
``_BACKENDS`` clears ``_RESOLVED`` too.

Three backends, three steppers.  ``python`` is the *oracle*: every unit
steps through the stdlib :class:`~repro.core.pykernel.PythonKernel`.
``fused`` is the *portable* tier: the ruleset-wide plan, every bin and
unit one :class:`~repro.core.table.StepTable` stepped by the table
walker (NumPy only translates the input).  ``native`` runs the same
plan's closed tables through generated C, and walks whatever the C
cannot take.  Every backend is capability-flagged: requesting ``native``
without a C compiler, or ``fused`` without NumPy, *silently* resolves
down the fallback chain (``native`` → ``fused`` → ``python``), so
scripts and CI recipes can pin ``RAP_BACKEND=native`` unconditionally.
This is safe because backends are bit-identical by contract — the
backend only changes speed, never results — and it is why nothing
persisted names one: a compile-cache entry, a checkpoint or a served
session written under any backend is read under any other.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from contextvars import ContextVar

from repro.core.kernel import StepKernel
from repro.core.pykernel import PythonKernel

BACKEND_ENV = "RAP_BACKEND"
_NATIVE_DISABLE_ENV = "RAP_NATIVE_DISABLE"  # repro.core.native reads it too


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _native_available() -> bool:
    # NumPy first: the native tier layers on the fused compilation, and
    # checking it here keeps repro.core.native importable only on
    # machines that could ever run it.
    if not _numpy_available():
        return False
    from repro.core.native import native_available

    return native_available()


# name -> capability probe.  A backend names how whole rulesets execute
# (the fused plan, interpreted or compiled); standalone automaton scans
# always step through the one PythonKernel (see get_kernel).
_BACKENDS: dict[str, Callable[[], bool]] = {
    "python": lambda: True,
    "fused": _numpy_available,
    "native": _native_available,
}

# Where an unavailable backend degrades to.  Names absent from this map
# fall straight back to "python" (always available).
_FALLBACKS: dict[str, str] = {"native": "fused"}


def _unavailable_reason(name: str) -> str:
    """Why ``name``'s capability probe fails right now (best effort)."""
    if name in ("fused", "native") and not _numpy_available():
        return "NumPy unavailable"
    if name == "native":
        from repro.core.native import native_unavailable_reason

        return native_unavailable_reason() or "capability probe failed"
    return "capability probe failed"


_default: str | None = None
_UNSET = object()
# use_backend's override: a resolved name, None (unpinned), or _UNSET
_scoped: ContextVar = ContextVar("rap_backend_scope", default=_UNSET)
# (requested name, explicit?, RAP_BACKEND, RAP_NATIVE_DISABLE, CC, PATH)
# -> (resolved, reason)
_RESOLVED: dict[tuple, tuple[str, str | None]] = {}
_KERNEL = PythonKernel()


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(_BACKENDS)


def available_backends() -> tuple[str, ...]:
    """The backends whose capability probe passes on this machine."""
    return tuple(name for name, probe in _BACKENDS.items() if probe())


def resolve_backend_with_reason(
    name: str | None = None,
) -> tuple[str, str | None]:
    """The backend that would actually execute, and why it fell back.

    An explicitly passed unknown name raises; an unknown ``RAP_BACKEND``
    value quietly resolves to ``python`` (a stale environment must not
    break a run).  A known-but-unavailable backend silently walks the
    fallback chain (``native`` → ``fused`` → ``python``) in both cases.

    Returns ``(resolved, reason)`` where ``reason`` is ``None`` when the
    requested backend runs as asked, and otherwise a human-readable
    chain such as ``"native unavailable: no C compiler"`` — what
    ``rap scan --explain`` and the serve ``open`` ack surface so a
    silent capability fallback is silent for results, never for
    operators.
    """
    explicit = name is not None
    if not explicit:
        name = _scoped.get()
        if name is _UNSET:
            name = _default
    env = os.environ.get
    probed = env(_NATIVE_DISABLE_ENV), env("CC"), env("PATH")
    key = (name, explicit, None if name else env(BACKEND_ENV), *probed)
    found = _RESOLVED.get(key)
    if found is None:
        found = _RESOLVED[key] = _resolve(name, explicit, key[2])
    return found


def _resolve(name: str | None, explicit: bool, env: str | None):
    if not explicit and name is None:
        name = (env or "").strip().lower() or "python"
        if name not in _BACKENDS:
            return "python", f"unknown backend {name!r}"
    else:
        name = name.strip().lower()
        if name not in _BACKENDS:
            raise ValueError(
                f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}"
            )
    reasons: list[str] = []
    while not _BACKENDS[name]():
        reasons.append(f"{name} unavailable: {_unavailable_reason(name)}")
        name = _FALLBACKS.get(name, "python")
    return name, ("; ".join(reasons) or None)


def resolve_backend(name: str | None = None) -> str:
    """:func:`resolve_backend_with_reason` without the reason."""
    return resolve_backend_with_reason(name)[0]


def get_kernel() -> StepKernel:
    """The step kernel under every standalone automaton scan.

    There is one: the pure-Python oracle.  Whole-ruleset scans on the
    ``fused`` / ``native`` backends never come through here — they run
    the fused plan (:mod:`repro.simulators.fused`).
    """
    return _KERNEL


def set_default_backend(name: str | None) -> None:
    """Pin the process-wide default backend (``None`` unpins it).

    The name is resolved eagerly, so pinning ``fused`` without NumPy
    pins ``python`` — later probes cannot flip the choice mid-run.
    """
    global _default
    _default = None if name is None else resolve_backend(name)


class use_backend:
    """:func:`set_default_backend` for the calling thread or task only,
    until the scope exits (``None`` unpins the process default inside
    it); entering yields the resolved name."""

    def __init__(self, name: str | None):
        self._resolved = None if name is None else resolve_backend(name)

    def __enter__(self) -> str:
        self._token = _scoped.set(self._resolved)
        return self._resolved or resolve_backend()

    def __exit__(self, *exc) -> None:
        _scoped.reset(self._token)
