"""Deterministic fault injection for exercising every recovery path.

A :class:`FaultPlan` is a list of directives, each firing at one exact
(site, index, attempt) coordinate — never randomly — so a CI run with a
canned plan reproduces the same crash/hang/corruption sequence every
time.  Plans come from ``RAP_FAULT_PLAN`` in the environment or from
``EngineConfig.fault_plan``; an explicit (even empty) plan always
overrides the environment.

Directive kinds and where they fire:

``crash``
    At a work unit: the worker process dies with ``os._exit`` (the pool
    sees ``BrokenProcessPool``).  In-process execution raises
    :class:`~repro.errors.WorkerCrashError` instead — deterministic and
    parent-safe.
``hang``
    At a work unit: sleep ``seconds`` before executing (drives a unit
    past its deadline when one is set; otherwise just delays it).
``error``
    At a work unit: raise ``RuntimeError`` (a generic worker fault).
``pickle``
    At a work unit: raise ``pickle.PicklingError`` (payload/result
    marshalling failure).
``truncate_cache``
    At the *index*-th compile-cache write since the plan was installed:
    truncate the freshly-written entry file to half its size.
``kill``
    At the *index*-th chunk of a durable scan, before the chunk is fed:
    the process dies with ``SIGKILL`` — the unskippable signal, exactly
    what a host OOM killer or operator ``kill -9`` delivers.  CI uses
    this to prove checkpoint resume is bit-identical.
``disconnect`` / ``stall`` / ``garbage`` / ``reload``
    At the *index*-th data segment of one scan-service connection
    (``repro.serve``): abort the transport mid-stream, freeze the
    sender for ``seconds``, send an unparsable frame, or trigger a hot
    ruleset reload.  The load generator fires them; the chaos tests
    prove a session torn down by any of them resumes to byte-identical
    matches and energy.
``killworker`` / ``wedge``
    At the *index*-th health round of the fleet supervisor
    (``repro.serve.fleet``): deliver ``SIGKILL`` to one worker (the
    unannounced worker death the supervisor must detect and re-home
    sessions around) or ``SIGSTOP`` it (a wedged worker — alive at the
    process level but unresponsive to pings, exactly the failure the
    health gate exists to catch; the supervisor fences it with
    ``SIGKILL`` once the gate trips).  Victims rotate round-robin over
    the pool in directive firing order, so a canned plan names a
    deterministic kill sequence.

Plan specs are compact strings — directives separated by ``;`` or
``,``, each ``kind@index[:attempt][*seconds]``::

    RAP_FAULT_PLAN='crash@0;hang@1:0*2.5'

(crash unit 0 on its first attempt; on unit 1's first attempt sleep
2.5 s before running).  A JSON list of objects with the same field
names is accepted too.

Attempt numbers count *submissions* by the supervisor: a unit whose
future dies with the pool consumes an attempt without executing, so a
directive aimed at that (index, attempt) may never fire — outputs stay
deterministic regardless, because retried units recompute identical
results.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkerCrashError

FAULT_PLAN_ENV = "RAP_FAULT_PLAN"

UNIT_KINDS = ("crash", "hang", "error", "pickle")
CACHE_KINDS = ("truncate_cache",)
CHUNK_KINDS = ("kill",)
# Connection-level kinds, fired at the *index*-th data segment of one
# scan-service connection (see repro.serve): ``disconnect`` aborts the
# transport mid-stream, ``stall`` freezes the sender for ``seconds``
# (driving the server's read deadline / idle watchdog), ``garbage``
# sends an unparsable frame (the server must fail the connection
# without corrupting the session), ``reload`` triggers a hot ruleset
# reload at that segment boundary.  The load generator interprets the
# directives; the service only proves it survives them.
CONN_KINDS = ("disconnect", "stall", "garbage", "reload")
# Fleet-level kinds, fired by the supervisor itself at the *index*-th
# health round (``repro.serve.fleet``): ``killworker`` SIGKILLs one
# worker of the pool, ``wedge`` SIGSTOPs it so the process stays alive
# but stops answering pings.  Both exercise the supervisor's health
# gate, fencing, and session re-homing; neither may cost a client a
# byte of results.
FLEET_KINDS = ("killworker", "wedge")
ALL_KINDS = UNIT_KINDS + CACHE_KINDS + CHUNK_KINDS + CONN_KINDS + FLEET_KINDS


@dataclass(frozen=True)
class FaultDirective:
    """One deterministic fault: fire ``kind`` at (index, attempt)."""

    kind: str
    index: int = 0
    attempt: int = 0
    seconds: float = 1.0  # hang duration

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind in directive {self.spec()!r}; "
                f"expected one of {', '.join(ALL_KINDS)}"
            )
        if self.index < 0:
            raise ValueError(
                f"fault directive {self.spec()!r} has a negative index"
            )
        if self.attempt < 0:
            raise ValueError(
                f"fault directive {self.spec()!r} has a negative attempt"
            )
        if not self.seconds > 0:
            raise ValueError(
                f"fault directive {self.spec()!r} has a non-positive "
                f"duration {self.seconds!r}; *seconds must be > 0"
            )

    def spec(self) -> str:
        """The compact-string spelling of this directive."""
        text = f"{self.kind}@{self.index}:{self.attempt}"
        if self.kind in ("hang", "stall"):
            text += f"*{self.seconds:g}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of directives; empty plans inject nothing."""

    directives: tuple[FaultDirective, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.directives)

    @classmethod
    def parse(cls, spec) -> "FaultPlan":
        """Parse a plan spec (compact string, JSON, or plan/None)."""
        if spec is None:
            return cls()
        if isinstance(spec, FaultPlan):
            return spec
        text = spec.strip()
        if not text:
            return cls()
        if text.startswith("["):
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"malformed JSON fault plan {text!r}: {err}"
                ) from err
            return cls(tuple(_from_json_entry(entry) for entry in raw))
        directives = []
        for part in text.replace(",", ";").split(";"):
            part = part.strip()
            if part:
                directives.append(_parse_compact(part))
        return cls(tuple(directives))

    def spec(self) -> str:
        """The canonical compact-string spelling (parse round-trips)."""
        return ";".join(d.spec() for d in self.directives)

    def for_unit(self, index: int, attempt: int) -> FaultDirective | None:
        """The unit directive firing at (index, attempt), if any."""
        for directive in self.directives:
            if (
                directive.kind in UNIT_KINDS
                and directive.index == index
                and directive.attempt == attempt
            ):
                return directive
        return None

    def for_cache_put(self, ordinal: int) -> FaultDirective | None:
        """The cache directive firing at the given write ordinal."""
        for directive in self.directives:
            if directive.kind in CACHE_KINDS and directive.index == ordinal:
                return directive
        return None

    def for_chunk(self, ordinal: int) -> FaultDirective | None:
        """The chunk directive firing at the given scan-chunk ordinal."""
        for directive in self.directives:
            if directive.kind in CHUNK_KINDS and directive.index == ordinal:
                return directive
        return None

    def for_conn(self, ordinal: int) -> FaultDirective | None:
        """The connection directive firing at the given segment ordinal."""
        for directive in self.directives:
            if directive.kind in CONN_KINDS and directive.index == ordinal:
                return directive
        return None

    def for_fleet_tick(self, ordinal: int) -> FaultDirective | None:
        """The fleet directive firing at the given health-round ordinal."""
        for directive in self.directives:
            if directive.kind in FLEET_KINDS and directive.index == ordinal:
                return directive
        return None


def _parse_compact(part: str) -> FaultDirective:
    """``kind@index[:attempt][*seconds]`` -> FaultDirective."""
    original = part
    seconds = 1.0
    try:
        if "*" in part:
            part, _, tail = part.partition("*")
            seconds = float(tail)
        if "@" not in part:
            raise ValueError(
                "expected kind@index[:attempt][*seconds]"
            )
        kind, _, location = part.partition("@")
        attempt = 0
        if ":" in location:
            location, _, raw_attempt = location.partition(":")
            attempt = int(raw_attempt)
        return FaultDirective(
            kind=kind.strip(),
            index=int(location),
            attempt=attempt,
            seconds=seconds,
        )
    except ValueError as err:
        raise ValueError(
            f"malformed fault directive {original!r}: {err}"
        ) from err


def _from_json_entry(entry) -> FaultDirective:
    """One JSON plan entry -> FaultDirective, naming the entry on error."""
    if not isinstance(entry, dict):
        raise ValueError(
            f"malformed fault directive {entry!r}: expected a JSON object"
        )
    unknown = set(entry) - {"kind", "index", "attempt", "seconds"}
    if unknown:
        raise ValueError(
            f"malformed fault directive {entry!r}: "
            f"unknown fields {sorted(unknown)}"
        )
    try:
        return FaultDirective(
            kind=str(entry.get("kind", "")),
            index=int(entry.get("index", 0)),
            attempt=int(entry.get("attempt", 0)),
            seconds=float(entry.get("seconds", 1.0)),
        )
    except (TypeError, ValueError) as err:
        raise ValueError(
            f"malformed fault directive {entry!r}: {err}"
        ) from err


def plan_from_env() -> FaultPlan:
    """The plan in ``RAP_FAULT_PLAN``, or an empty plan."""
    return FaultPlan.parse(os.environ.get(FAULT_PLAN_ENV))


def resolve_plan(spec) -> FaultPlan:
    """An explicit spec (any falsy non-None disables), else the env."""
    if spec is None:
        return plan_from_env()
    return FaultPlan.parse(spec)


# -- injection state (per process) ------------------------------------------

# None: nothing installed, fall back to the environment.  An installed
# plan — even an empty one — always wins, so an explicit empty plan
# disables env-driven injection for this process.
_installed: FaultPlan | None = None
_cache_puts: int = 0


def install_plan(spec) -> FaultPlan:
    """Install a plan in this process (workers call this at init) and
    reset the cache-write ordinal counter."""
    global _installed, _cache_puts
    _installed = resolve_plan(spec)
    _cache_puts = 0
    return _installed


def active_plan() -> FaultPlan:
    """The plan active in this process: installed, else environment."""
    return _installed if _installed is not None else plan_from_env()


def inject_unit(
    index: int,
    attempt: int,
    plan: FaultPlan | None = None,
    in_process: bool = False,
) -> None:
    """Fire the active (or given) plan's directive for one unit call.

    Raises the injected failure, sleeps for a hang, or — in a worker
    process for ``crash`` — terminates the process.
    """
    directive = (plan if plan is not None else active_plan()).for_unit(
        index, attempt
    )
    if directive is None:
        return
    if directive.kind == "crash":
        if in_process:
            raise WorkerCrashError(
                f"injected worker crash at unit {index} attempt {attempt}",
                unit=index,
                attempts=attempt + 1,
            )
        os._exit(71)
    if directive.kind == "hang":
        time.sleep(directive.seconds)
        return
    if directive.kind == "error":
        raise RuntimeError(
            f"injected worker error at unit {index} attempt {attempt}"
        )
    assert directive.kind == "pickle"
    raise pickle.PicklingError(
        f"injected pickling failure at unit {index} attempt {attempt}"
    )


def inject_cache_put(path: str | Path, plan: FaultPlan | None = None) -> None:
    """Fire the plan's cache directive (if any) for one cache write."""
    global _cache_puts
    active = plan if plan is not None else active_plan()
    ordinal = _cache_puts
    _cache_puts += 1
    directive = active.for_cache_put(ordinal)
    if directive is None:
        return
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def inject_chunk(ordinal: int, plan: FaultPlan | None = None) -> None:
    """Fire the plan's chunk directive before a durable-scan chunk.

    ``kill`` delivers ``SIGKILL`` to this very process — no cleanup, no
    excepthook, exactly the failure a checkpoint must survive.
    """
    active = plan if plan is not None else active_plan()
    directive = active.for_chunk(ordinal)
    if directive is None:
        return
    assert directive.kind == "kill"
    os.kill(os.getpid(), signal.SIGKILL)


def reset() -> None:
    """Clear injection state (tests)."""
    global _installed, _cache_puts
    _installed = None
    _cache_puts = 0


__all__ = [
    "ALL_KINDS",
    "CACHE_KINDS",
    "CHUNK_KINDS",
    "CONN_KINDS",
    "FAULT_PLAN_ENV",
    "FLEET_KINDS",
    "UNIT_KINDS",
    "FaultDirective",
    "FaultPlan",
    "active_plan",
    "inject_cache_put",
    "inject_chunk",
    "inject_unit",
    "install_plan",
    "plan_from_env",
    "resolve_plan",
    "reset",
]
