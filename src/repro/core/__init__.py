"""The execution-core layer: one inner loop for every bitset machine.

``repro.core`` is the seam between the automata models and the machine
they actually run on.  The automata layer describes each engine as a
:class:`~repro.core.program.KernelProgram`; a pluggable
:class:`~repro.core.kernel.StepKernel` executes it.  Backends register
in :mod:`repro.core.registry` (``RAP_BACKEND`` / ``--backend`` select
one, with silent fallback to the stdlib kernel): ``python`` — the
oracle — steps each unit through that kernel; ``fused`` (portable) and
``native`` run the ruleset-wide plan of step tables, walked in Python
or stepped by generated C; all are bit-identical by contract —
switching backends can change speed, never results.

:mod:`repro.core.trace` (the scan-once/price-many
:class:`~repro.core.trace.ActivityTrace`) bridges to the simulator
layer and is imported directly rather than re-exported here, keeping
this package importable from the automata layer without cycles.
"""

from repro.core.kernel import MatchEvent, StepKernel, StepStats
from repro.core.program import KernelProgram, ProgramKind
from repro.core.registry import (
    BACKEND_ENV,
    available_backends,
    backend_names,
    get_kernel,
    resolve_backend,
    resolve_backend_with_reason,
    set_default_backend,
    use_backend,
)
from repro.core.state import KernelState, iter_states_from

__all__ = [
    "BACKEND_ENV",
    "KernelProgram",
    "KernelState",
    "MatchEvent",
    "ProgramKind",
    "StepKernel",
    "StepStats",
    "iter_states_from",
    "available_backends",
    "backend_names",
    "get_kernel",
    "resolve_backend",
    "resolve_backend_with_reason",
    "set_default_backend",
    "use_backend",
]
