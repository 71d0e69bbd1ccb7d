"""Backend registry: how whole rulesets execute.

Selection order (first hit wins):

1. an explicit name passed to :func:`resolve_backend`;
2. the process default set via :func:`set_default_backend` /
   :func:`use_backend` (the CLI's ``--backend`` lands here);
3. the ``RAP_BACKEND`` environment variable;
4. ``"python"``.

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
backend only changes speed, never results.  Anything that persists
derived artifacts (the engine's compile cache, durable-scan checkpoints)
must embed :data:`KERNEL_FORMAT_VERSION` / :data:`FUSED_FORMAT_VERSION`
and the resolved backend in its keys.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.core.kernel import StepKernel
from repro.core.pykernel import PythonKernel

BACKEND_ENV = "RAP_BACKEND"

# Version of the kernel program encoding / step semantics.  Bump on any
# change to KernelProgram's meaning so keyed caches can never serve an
# artifact produced under different execution semantics.
KERNEL_FORMAT_VERSION = 1

# Version of the fused ruleset compilation (alphabet class maps, lane
# packing, prefilter semantics).  Bump on any change to how
# repro.core.fused lays out lanes or prices activity; lives here rather
# than in repro.core.fused so NumPy-free importers (the compile cache)
# can embed it in keys.
FUSED_FORMAT_VERSION = 1

# Version of the DFA execution tier (subset construction over alphabet
# classes, transition-table layout, scanner snapshot encoding).  Bump on
# any change to repro.automata.dfa's table semantics; lives here rather
# than beside the DFA code so NumPy-free importers (the compile cache,
# scan fingerprints) can embed it in keys.
DFA_FORMAT_VERSION = 1

# Version of the native-codegen tier: the C source the ``native``
# backend emits per compiled ruleset, its call ABI, and the shared-object
# cache layout.  Bump on any change to repro.core.codegen's emitted
# kernels so a cached ``.so`` (or a checkpoint whose fingerprint names a
# native layout) can never be used under different codegen semantics.
# Lives here so compiler-free importers can embed it in keys.
NATIVE_FORMAT_VERSION = 1


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
    if name is None:
        name = _default
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip().lower() or "python"
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


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Scoped :func:`set_default_backend`; yields the resolved name."""
    global _default
    previous = _default
    set_default_backend(name)
    try:
        yield _default or resolve_backend()
    finally:
        _default = previous
