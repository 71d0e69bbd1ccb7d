"""Client side of the scan service: a resuming client and a load
generator.

:class:`ScanClient` is the reference protocol implementation: it
streams segments, collects match events (deduplicated by global
``(offset, regex_id)``, so replays after a resume never double count),
and — the robustness contract — reconnects with ``resume`` after any
connection loss and replays its input from the server's ``welcome``
offset.  The resulting totals are byte-identical to an uninterrupted
scan; the chaos tests assert exactly that.

:class:`LoadGenerator` drives N concurrent sessions against one server
and interprets the connection-level fault kinds of
:mod:`repro.engine.faults` at their segment ordinals:

``disconnect``  abort the transport mid-stream, reconnect, resume
``stall``       freeze the sender for ``seconds`` (exercises the
                server's idle watchdog)
``garbage``     send an unparsable line — the server must fail the
                *connection* and keep the session resumable
``reload``      request a hot ruleset reload at that segment boundary

It reports aggregate matches, energy, reconnects, and per-segment
turnaround latencies (the p50/p99 the service benchmark tracks).
"""

from __future__ import annotations

import asyncio
import base64
import collections
import random
import time
from dataclasses import dataclass, field

from repro.engine.faults import FaultPlan
from repro.errors import AdmissionError, ProtocolError, ServeError
from repro.serve.protocol import read_frame, send_frame

# Reconnect policy: chaos runs kill whole workers, and the restarted
# worker needs time to come back up before a resume can land.
RECONNECT_ATTEMPTS = 40
RECONNECT_DELAY = 0.25

# Decorrelated-jitter bounds for reconnect sleeps.  Sleeping the raw
# ``retry_after`` would synchronize every client a fleet-wide shed or
# migration just disconnected — they'd all come back in the same
# instant and re-create the pressure that shed them.  Jitter spreads
# the herd; the cap bounds worst-case reconnect latency.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0


class _Backoff:
    """Decorrelated-jitter reconnect delays, optionally hint-aware.

    Each delay is drawn from ``[base, prev * 3]`` (clamped to ``cap``),
    so consecutive sleeps decorrelate instead of marching in lockstep.
    A server ``retry_after`` hint re-centers the window around the hint
    (``[hint/2, hint*1.5]``-ish) without ever exceeding the cap.  The
    RNG is seeded per session, so chaos runs stay reproducible.
    """

    def __init__(self, seed: str, base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP):
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)
        self._prev = base

    def next(self, hint: float | None = None) -> float:
        upper = self._prev * 3
        lower = self.base
        if hint is not None:
            upper = max(upper, hint * 1.5)
            lower = min(max(self.base, hint * 0.5), self.cap)
        delay = min(self.cap, self._rng.uniform(lower, max(lower, upper)))
        self._prev = max(delay, self.base)
        return delay

    def reset(self) -> None:
        """A successful welcome ends the episode: start small again."""
        self._prev = self.base


class ScanClient:
    """One session's client: connect, stream, resume, finish."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        session: str,
        patterns,
        *,
        weight: float = 1.0,
        frame_timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.session = session
        self.patterns = list(patterns)
        self.weight = weight
        self.frame_timeout = frame_timeout
        self.offset = 0  # server-confirmed replay position
        self.generation = 0
        self.events: set[tuple[int, int]] = set()
        self.result: dict | None = None
        self.reconnects = 0
        self.latencies_ms: list[float] = []
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._control: asyncio.Queue = asyncio.Queue()
        self._sent_at: collections.deque[float] = collections.deque()
        self._backoff = _Backoff(f"{tenant}/{session}")

    # -- connection management -----------------------------------------------

    async def connect(self, *, resume: bool = False) -> dict:
        """Open (or resume) the session; returns the welcome frame.

        Raises :class:`AdmissionError` when the server refuses the
        session (``retry_after`` carries its backoff hint) and
        :class:`ServeError` for other structured rejections.
        """
        await self.close()
        # Frames queued by the previous connection's pump — including its
        # EOF sentinel — are stale once we reconnect; drop them so the
        # next control read cannot mistake an old close for a new one.
        while not self._control.empty():
            self._control.get_nowait()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._sent_at.clear()
        send_frame(
            self._writer,
            {
                "op": "open",
                "tenant": self.tenant,
                "session": self.session,
                "patterns": self.patterns,
                "resume": resume,
                "weight": self.weight,
            },
        )
        await self._writer.drain()
        frame = await read_frame(self._reader, self.frame_timeout)
        if frame is None:
            raise ConnectionResetError("server closed during handshake")
        if frame.get("op") == "error":
            await self.close()
            self._raise_error(frame)
        if frame.get("op") != "welcome":
            raise ProtocolError(
                f"expected welcome, got {frame.get('op')!r}", phase="serve"
            )
        self.offset = int(frame.get("offset", 0))
        self.generation = int(frame.get("generation", 0))
        self._reader_task = asyncio.create_task(self._pump())
        return frame

    def _raise_error(self, frame: dict) -> None:
        code = frame.get("code")
        message = frame.get("message", "server error")
        if code in ("admission", "shed", "drain", "migrate", "breaker"):
            # All four carry a retry_after and the same contract: the
            # session (if any) was checkpointed first, so a later
            # reconnect-resume loses nothing.  ``migrate`` means the
            # fleet is re-homing us; ``breaker`` that our tenant's
            # circuit is open.
            raise AdmissionError(
                message,
                retry_after=frame.get("retry_after"),
                limit=frame.get("limit"),
                phase="serve",
            )
        raise ServeError(f"{code}: {message}", phase="serve")

    async def reconnect(self) -> int:
        """Resume after a connection loss; returns the replay offset."""
        last: Exception | None = None
        for _ in range(RECONNECT_ATTEMPTS):
            try:
                await self.connect(resume=True)
                self.reconnects += 1
                self._backoff.reset()
                return self.offset
            except AdmissionError as err:
                last = err
                await asyncio.sleep(self._backoff.next(err.retry_after))
            except (ConnectionError, OSError, asyncio.TimeoutError) as err:
                last = err
                await asyncio.sleep(self._backoff.next())
        raise ServeError(
            f"could not resume session {self.session!r}: {last}",
            phase="serve",
        )

    async def close(self) -> None:
        """Tear the connection down quietly (state is kept)."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None
            self._reader = None

    def abort(self) -> None:
        """Kill the transport without goodbye (the disconnect fault)."""
        if self._writer is not None:
            self._writer.transport.abort()

    # -- frame pump ----------------------------------------------------------

    async def _pump(self) -> None:
        """Route incoming frames: events accumulate, the rest queue up."""
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    await self._control.put(None)
                    return
                op = frame.get("op")
                if op == "events":
                    if self._sent_at:
                        self.latencies_ms.append(
                            (time.monotonic() - self._sent_at.popleft())
                            * 1000.0
                        )
                    for end, rid in frame.get("matches", []):
                        self.events.add((int(end), int(rid)))
                    # The server's durable offset lags one (pending)
                    # segment behind what we sent; never walk back the
                    # optimistic position — only a resume handshake may.
                    self.offset = max(
                        self.offset, int(frame.get("offset", self.offset))
                    )
                    self.generation = int(
                        frame.get("generation", self.generation)
                    )
                elif op == "swap":
                    self.generation = int(
                        frame.get("generation", self.generation)
                    )
                else:
                    await self._control.put(frame)
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            await self._control.put(None)
        except asyncio.CancelledError:
            raise

    async def _control_frame(self, expect: str) -> dict:
        """The next control frame, demanding ``expect`` (or ``error``)."""
        frame = await asyncio.wait_for(
            self._control.get(), self.frame_timeout
        )
        if frame is None:
            raise ConnectionResetError("server closed the connection")
        if frame.get("op") == "error":
            self._raise_error(frame)
        if frame.get("op") != expect:
            raise ProtocolError(
                f"expected {expect}, got {frame.get('op')!r}", phase="serve"
            )
        return frame

    # -- operations ----------------------------------------------------------

    async def send(self, segment: bytes) -> None:
        """Stream one data segment (fire-and-forget; events pump back)."""
        if self._writer is None:
            raise ConnectionResetError("not connected")
        self._sent_at.append(time.monotonic())
        send_frame(
            self._writer,
            {"op": "data", "b64": base64.b64encode(segment).decode()},
        )
        await self._writer.drain()

    async def send_garbage(self) -> None:
        """One unparsable line — the ``garbage`` fault."""
        if self._writer is None:
            raise ConnectionResetError("not connected")
        self._writer.write(b"\x00this is not a frame\n")
        await self._writer.drain()

    async def reload(self, patterns) -> dict:
        """Hot-reload the tenant ruleset; returns the reloaded frame."""
        if self._writer is None:
            raise ConnectionResetError("not connected")
        send_frame(
            self._writer, {"op": "reload", "patterns": list(patterns)}
        )
        await self._writer.drain()
        return await self._control_frame("reloaded")

    async def ping(self) -> dict:
        send_frame(self._writer, {"op": "ping"})
        await self._writer.drain()
        return await self._control_frame("pong")

    async def detach(self) -> dict:
        """Checkpoint server-side and close; resume continues later."""
        send_frame(self._writer, {"op": "detach"})
        await self._writer.drain()
        frame = await self._control_frame("bye")
        await self.close()
        return frame

    async def end(self) -> dict:
        """Finish the stream; returns the final result frame."""
        if self._writer is None:
            raise ConnectionResetError("not connected")
        send_frame(self._writer, {"op": "end"})
        await self._writer.drain()
        frame = await self._control_frame("result")
        self.result = frame
        await self.close()
        return frame

    # -- the full streaming loop, faults and resume included -----------------

    async def run(
        self,
        data: bytes,
        *,
        segment_bytes: int = 4096,
        plan: FaultPlan | None = None,
    ) -> dict:
        """Stream ``data`` end to end, surviving every planned fault.

        Returns the final result frame.  Connection losses — planned
        (``disconnect``/``garbage``) or not (a killed worker) — trigger
        reconnect-resume; the replay position always comes from the
        server's ``welcome``/``bye`` offsets, never from local guesses.
        """
        plan = plan or FaultPlan()
        fired: set[int] = set()
        await self._connect_with_retry()
        ordinal = 0  # data segments sent, lifetime of the logical session
        while self.result is None:
            try:
                if self.offset >= len(data):
                    await self.end()
                    break
                directive = plan.for_conn(ordinal)
                if directive is not None and ordinal not in fired:
                    fired.add(ordinal)
                    if await self._fire(directive):
                        continue  # the fault replaced this send slot
                segment = data[self.offset : self.offset + segment_bytes]
                await self.send(segment)
                # The server confirms offsets via events frames; track
                # optimistically so the loop advances without waiting.
                self.offset += len(segment)
                ordinal += 1
            except AdmissionError:
                # Shed (or drained) mid-stream: the server checkpointed
                # us first, so resume picks up where durability left off.
                await self.reconnect()
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await self.reconnect()
        return self.result

    async def _connect_with_retry(self) -> None:
        try:
            await self.connect(resume=False)
            self._backoff.reset()
        except AdmissionError as err:
            # Admission refused: honor the server's backoff hint —
            # jittered, so a herd of refused clients spreads out — and
            # keep trying; completed sessions free slots.
            await asyncio.sleep(self._backoff.next(err.retry_after))
            await self.reconnect()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await self.reconnect()

    async def _fire(self, directive) -> bool:
        """Interpret one connection fault; True if it consumed the slot."""
        if directive.kind == "disconnect":
            self.abort()
            await self.close()
            await self.reconnect()
            return True
        if directive.kind == "stall":
            await asyncio.sleep(directive.seconds)
            return False  # stalling delays the send, it does not skip it
        if directive.kind == "garbage":
            try:
                await self.send_garbage()
                # The server answers with an error frame and closes; wait
                # for the pump to notice instead of racing the next send.
                await asyncio.wait_for(
                    self._control.get(), self.frame_timeout
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            await self.close()
            await self.reconnect()
            return True
        if directive.kind == "reload":
            try:
                await self.reload(self.patterns)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await self.reconnect()
            return True
        return False


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generator run."""

    sessions: int = 0
    completed: int = 0
    failed: int = 0
    reconnects: int = 0
    total_matches: int = 0
    total_energy_uj: float = 0.0
    distinct_events: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    per_session: dict[str, dict] = field(default_factory=dict)

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile of segment turnaround, in milliseconds."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(
            len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1)))
        )
        return ordered[index]

    def summary(self) -> str:
        return (
            f"{self.completed}/{self.sessions} sessions, "
            f"{self.total_matches} matches, "
            f"{self.total_energy_uj:.3f} uJ, "
            f"{self.reconnects} reconnects, "
            f"p50 {self.latency_percentile(50):.2f} ms, "
            f"p99 {self.latency_percentile(99):.2f} ms"
        )


class LoadGenerator:
    """N concurrent fault-injected sessions against one server."""

    def __init__(
        self,
        host: str,
        port: int,
        patterns,
        *,
        tenant: str = "loadgen",
        sessions: int = 4,
        segment_bytes: int = 4096,
        plan: FaultPlan | None = None,
    ):
        self.host = host
        self.port = port
        self.patterns = list(patterns)
        self.tenant = tenant
        self.sessions = sessions
        self.segment_bytes = segment_bytes
        self.plan = plan or FaultPlan()

    async def run(self, payloads) -> LoadReport:
        """Stream one payload per session concurrently; aggregate."""
        payloads = list(payloads)
        report = LoadReport(sessions=len(payloads))
        clients = [
            ScanClient(
                self.host,
                self.port,
                self.tenant,
                f"s{i:04d}",
                self.patterns,
                weight=1.0 + i,  # deterministic shed order: s0000 first
            )
            for i in range(len(payloads))
        ]
        outcomes = await asyncio.gather(
            *(
                client.run(
                    payload,
                    segment_bytes=self.segment_bytes,
                    plan=self.plan,
                )
                for client, payload in zip(clients, payloads)
            ),
            return_exceptions=True,
        )
        for client, outcome in zip(clients, outcomes):
            report.reconnects += client.reconnects
            report.latencies_ms.extend(client.latencies_ms)
            if isinstance(outcome, BaseException):
                report.failed += 1
                report.per_session[client.session] = {
                    "error": f"{type(outcome).__name__}: {outcome}"
                }
                continue
            report.completed += 1
            report.total_matches += int(outcome.get("matches", 0))
            report.total_energy_uj += float(outcome.get("energy_uj", 0.0))
            report.per_session[client.session] = {
                "matches": int(outcome.get("matches", 0)),
                "energy_uj": float(outcome.get("energy_uj", 0.0)),
                "offset": int(outcome.get("offset", 0)),
            }
        report.distinct_events = sum(
            len(client.events) for client in clients
        )
        return report


def serial_totals(patterns, payloads, registry=None) -> tuple[int, float]:
    """Uninterrupted serial totals for the load generator's workload.

    The golden the chaos soak diffs against: each payload scanned in one
    unbroken pass under the same compiled ruleset, summed.  Byte-identity
    means a faulted service run must reproduce these numbers exactly.
    """
    from repro.engine.checkpoint import DurableScan
    from repro.serve.registry import TenantRegistry
    from repro.simulators.rap import RAPSimulator

    registry = registry or TenantRegistry()
    ruleset, mapping, _ = registry.compile(patterns)
    sim = RAPSimulator(registry.hw)
    matches = 0
    energy_uj = 0.0
    for payload in payloads:
        scan = DurableScan(
            ruleset, mapping, registry.hw, bin_size=registry.bin_size
        )
        scan.feed(payload, at_end=True)
        matches += sum(len(ends) for ends in scan.match_lists().values())
        energy_uj += sim.run_from_activity(
            ruleset, scan.finish(), mapping, binding=scan.binding
        ).energy_uj
    return matches, energy_uj


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "LoadGenerator",
    "LoadReport",
    "ScanClient",
    "RECONNECT_ATTEMPTS",
    "RECONNECT_DELAY",
    "serial_totals",
]
