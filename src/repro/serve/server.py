"""The asyncio scan server: supervised sessions over the wire protocol.

Each accepted connection speaks :mod:`repro.serve.protocol` and binds to
one :class:`~repro.serve.session.ScanSession`.  The server supervises
the fleet:

* **Admission control** — an :class:`~repro.engine.budget.AdmissionPolicy`
  gates every new session on the session/RSS/FD caps; refusals carry a
  ``retry_after`` hint instead of silently queueing work the worker
  cannot hold.
* **Load shedding** — when an admitted fleet grows past the RSS/FD caps
  anyway, the lowest-weight session is checkpointed and its connection
  told to come back later; shedding costs a reconnect, never
  correctness.
* **Watchdogs** — per-frame read deadlines, an idle timeout that
  checkpoints and evicts parked or silent sessions, and bounded write
  backpressure (every frame is drained to the transport).
* **Durability** — sessions checkpoint every ``checkpoint_interval_bytes``
  fed bytes and at every park/detach/drain, so a connection torn down by
  any of the chaos fault kinds — or the whole worker dying — resumes
  bit-identically from the ``welcome`` offset.
* **Graceful drain** — ``SIGTERM`` checkpoints every live session,
  notifies attached clients, stops accepting, and exits 0.
* **Live migration** — ``SIGHUP`` (or the pre-``open`` ``release``
  control op a fleet supervisor sends) checkpoints and parks every
  attached session at its current segment boundary and tells each
  client to reconnect (``error`` code ``migrate`` with the durable
  ``offset``); the worker forgets the sessions, so whichever worker
  the client lands on next resumes them byte-identically from the
  shared checkpoint store.  Pre-``open`` ``ping``/``health`` ops let
  the supervisor probe a worker without spending an admission slot.

Exit codes: ``EXIT_OK`` (0) clean shutdown or drain, ``EXIT_CONFIG``
(2) invalid configuration (:class:`~repro.errors.ServeConfigError`),
``EXIT_FAILURES`` (5) the server ran but lost durability somewhere
(a checkpoint could not be written during shutdown).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import logging
import signal
from dataclasses import dataclass, field

from repro.core import resolve_backend_with_reason
from repro.engine.budget import AdmissionPolicy
from repro.engine.checkpoint import CheckpointStore
from repro.errors import (
    AdmissionError,
    CheckpointError,
    CompileError,
    ProtocolError,
    ReproError,
    ServeConfigError,
)
from repro.serve import protocol
from repro.serve.protocol import read_frame, send_frame
from repro.serve.registry import TenantRegistry
from repro.serve.session import ScanSession

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILURES = 5

# Backoff hints attached to reject/shed frames, in seconds.
RETRY_AFTER_ADMISSION = 1.0
RETRY_AFTER_SHED = 0.5
RETRY_AFTER_MIGRATE = 0.5


@dataclass
class ServeConfig:
    """Validated configuration of one :class:`ScanServer` worker."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: bind an ephemeral port (tests, loopback tooling)
    checkpoint_dir: str = ".rap-serve"
    max_sessions: int = 64
    max_rss_mb: float | None = None
    max_open_fds: int | None = None
    idle_timeout: float = 300.0
    read_timeout: float = 10.0  # per-frame read deadline (watchdog tick)
    drain_seconds: float = 5.0
    checkpoint_interval_bytes: int = 1 << 20
    watchdog_interval: float = 0.5

    def validate(self) -> "ServeConfig":
        """Raise :class:`ServeConfigError` on any out-of-range field."""
        if not (0 <= self.port <= 65535):
            raise ServeConfigError(
                f"port must be 0..65535, got {self.port}", phase="serve"
            )
        if not self.checkpoint_dir:
            raise ServeConfigError(
                "checkpoint_dir must be a non-empty path", phase="serve"
            )
        if self.max_sessions < 1:
            raise ServeConfigError(
                f"--max-sessions must be >= 1, got {self.max_sessions}",
                phase="serve",
            )
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ServeConfigError(
                f"--max-rss-mb must be positive, got {self.max_rss_mb}",
                phase="serve",
            )
        if self.max_open_fds is not None and self.max_open_fds < 1:
            raise ServeConfigError(
                f"--max-open-fds must be >= 1, got {self.max_open_fds}",
                phase="serve",
            )
        if self.idle_timeout <= 0:
            raise ServeConfigError(
                f"--idle-timeout must be positive, got {self.idle_timeout}",
                phase="serve",
            )
        if self.read_timeout <= 0:
            raise ServeConfigError(
                f"read_timeout must be positive, got {self.read_timeout}",
                phase="serve",
            )
        if self.drain_seconds < 0:
            raise ServeConfigError(
                f"--drain-seconds must be >= 0, got {self.drain_seconds}",
                phase="serve",
            )
        if self.checkpoint_interval_bytes < 1:
            raise ServeConfigError(
                "checkpoint_interval_bytes must be >= 1, got "
                f"{self.checkpoint_interval_bytes}",
                phase="serve",
            )
        return self

    def policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            max_sessions=self.max_sessions,
            max_rss_mb=self.max_rss_mb,
            max_open_fds=self.max_open_fds,
        )


def session_key(tenant: str, session_id: str) -> str:
    return f"{tenant}/{session_id}"


@dataclass
class _Attachment:
    """One live connection bound to a session."""

    writer: asyncio.StreamWriter
    bytes_since_checkpoint: int = 0
    closed_by_server: str | None = None  # shed/drain reason, if any


@dataclass
class ServerStats:
    """Counters the tests and the CLI summary read."""

    accepted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    released: int = 0
    evicted_idle: int = 0
    resumed: int = 0
    completed: int = 0
    protocol_errors: int = 0
    checkpoint_failures: int = 0
    last_checkpoint_error: str | None = None
    reloads: int = 0
    swaps: int = field(default=0)


class ScanServer:
    """One serving worker: accept loop, session fleet, watchdog."""

    def __init__(
        self,
        config: ServeConfig,
        registry: TenantRegistry | None = None,
    ):
        self.config = config.validate()
        self.registry = registry or TenantRegistry()
        self.policy = config.policy()
        self.stats = ServerStats()
        self._sessions: dict[str, ScanSession] = {}
        self._attached: dict[str, _Attachment] = {}
        self._opening = 0  # builds in flight: they hold admission slots
        self._server: asyncio.base_events.Server | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._draining = False
        self._stopped = asyncio.Event()
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (`self.port` is the bound port)."""
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog_task = asyncio.create_task(self._watchdog())
        log.info("serving on %s:%d", self.config.host, self.port)

    async def stop(self) -> None:
        """Tear down without draining (tests; drain() calls this too)."""
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watchdog_task
            self._watchdog_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for attachment in list(self._attached.values()):
            attachment.writer.close()
        self._attached.clear()
        self._stopped.set()

    async def drain(self) -> None:
        """Checkpoint everything, notify clients, stop accepting."""
        if self._draining:
            return
        self._draining = True
        log.info("draining: %d live sessions", len(self._sessions))
        if self._server is not None:
            self._server.close()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_seconds
        )
        for key, session in list(self._sessions.items()):
            self._checkpoint(session)
            attachment = self._attached.get(key)
            if attachment is not None:
                attachment.closed_by_server = "drain"
                with contextlib.suppress(Exception):
                    send_frame(
                        attachment.writer,
                        {
                            "op": "bye",
                            "reason": "drain",
                            "offset": session.offset,
                        },
                    )
                    await asyncio.wait_for(
                        attachment.writer.drain(),
                        max(0.0, deadline - asyncio.get_running_loop().time()),
                    )
                attachment.writer.close()
        self._sessions.clear()
        await self.stop()

    async def serve_forever(self, on_ready=None) -> int:
        """Run until SIGTERM/SIGINT drains us; returns the exit code.

        ``on_ready(port)`` fires once the socket is bound — the CLI uses
        it to print the readiness line supervisors wait for."""
        await self.start()
        if on_ready is not None:
            on_ready(self.port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
        # SIGHUP = rebalance: hand every session back for re-homing but
        # keep serving (the fleet supervisor's rolling-restart signal).
        hup = getattr(signal, "SIGHUP", None)
        if hup is not None:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    hup,
                    lambda: asyncio.ensure_future(self.release_sessions()),
                )
        await self._stopped.wait()
        return (
            EXIT_FAILURES if self.stats.checkpoint_failures else EXIT_OK
        )

    # -- supervision ---------------------------------------------------------

    async def _watchdog(self) -> None:
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            await self._sweep()

    async def _sweep(self) -> None:
        """One watchdog pass: evict idle sessions, shed under pressure.

        Callable on its own so interleaving tests can run a sweep at a
        chosen instant (e.g. mid-drain) instead of racing the timer.
        """
        now_idle = [
            (key, session)
            for key, session in list(self._sessions.items())
            if key not in self._attached
            and session.idle_seconds() >= self.config.idle_timeout
        ]
        for key, session in now_idle:
            if not self._checkpoint(session):
                continue  # keep it in memory: the state would be lost
            del self._sessions[key]
            self.stats.evicted_idle += 1
            log.info("evicted idle session %s at %d", key, session.offset)
        pressure = self.policy.pressure(len(self._sessions))
        if pressure is not None and pressure.limit != "max_sessions":
            await self.shed_lowest(str(pressure))

    async def shed_lowest(self, reason: str) -> str | None:
        """Checkpoint and drop the lowest-weight session; returns its key.

        Attached sessions get an ``error`` frame with code ``shed`` and
        a retry hint first — reconnect-resume continues them exactly
        where the checkpoint left off.
        """
        if not self._sessions:
            return None
        key = min(
            self._sessions,
            key=lambda k: (self._sessions[k].weight, k),
        )
        session = self._sessions[key]
        if not self._checkpoint(session):
            return None
        attachment = self._attached.get(key)
        if attachment is not None:
            attachment.closed_by_server = "shed"
            with contextlib.suppress(Exception):
                send_frame(
                    attachment.writer,
                    {
                        "op": "error",
                        "code": protocol.ERR_SHED,
                        "message": f"session shed: {reason}",
                        "retry_after": RETRY_AFTER_SHED,
                        "offset": session.offset,
                    },
                )
                await attachment.writer.drain()
            attachment.writer.close()
            self._attached.pop(key, None)
        self._sessions.pop(key, None)
        self.stats.shed += 1
        log.info("shed session %s (%s)", key, reason)
        return key

    async def release_sessions(self, reason: str = "migrate") -> int:
        """Checkpoint, notify, and forget every session for re-homing.

        The live-migration source half: each session parks (dropping
        pending bytes the client will replay), persists a checkpoint at
        its segment boundary, and its client — if attached — gets an
        ``error`` frame with code ``migrate``, a ``retry_after`` hint,
        and the durable ``offset``.  The session then leaves this
        worker's memory entirely: ownership of the lineage passes to
        whichever worker the client's reconnect lands on.  A session
        whose checkpoint cannot be written stays here (migrating it
        would lose state) and counts a ``checkpoint_failure``.
        """
        released = 0
        for key, session in list(self._sessions.items()):
            session.park()
            if not self._checkpoint(session):
                continue
            attachment = self._attached.pop(key, None)
            if attachment is not None:
                attachment.closed_by_server = "migrate"
                with contextlib.suppress(Exception):
                    send_frame(
                        attachment.writer,
                        {
                            "op": "error",
                            "code": protocol.ERR_MIGRATE,
                            "message": f"session released: {reason}",
                            "retry_after": RETRY_AFTER_MIGRATE,
                            "offset": session.offset,
                        },
                    )
                    await attachment.writer.drain()
                attachment.writer.close()
            self._sessions.pop(key, None)
            released += 1
            self.stats.released += 1
            log.info(
                "released session %s at %d (%s)", key, session.offset, reason
            )
        return released

    def _checkpoint(self, session: ScanSession) -> bool:
        """Persist ``session``; a failure is counted, and its reason
        (which the session has logged) kept for the health report."""
        if session.checkpoint():
            return True
        self.stats.checkpoint_failures += 1
        self.stats.last_checkpoint_error = session.checkpoint_error
        return False

    def health_report(self) -> dict:
        """The worker snapshot answered to a pre-``open`` ``health`` op."""
        live = self._sessions.values()
        return {
            "op": "health_report",
            "sessions": len(self._sessions),
            "attached": len(self._attached),
            "draining": self._draining,
            "released": self.stats.released,
            "shed": self.stats.shed,
            "checkpoint_failures": self.stats.checkpoint_failures,
            "last_checkpoint_error": self.stats.last_checkpoint_error,
            "checkpoint_bytes": sum(s.store.bytes_written for s in live),
            "checkpoint_sync_seconds": sum(s.store.sync_seconds for s in live),
        }

    # -- connection handling -------------------------------------------------

    def _store_for(self, key: str) -> CheckpointStore:
        return CheckpointStore(self.config.checkpoint_dir, session=key)

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        send_frame(writer, obj)
        await writer.drain()  # bounded backpressure: never buffer unboundedly

    async def _error(
        self,
        writer: asyncio.StreamWriter,
        code: str,
        message: str,
        **extra,
    ) -> None:
        with contextlib.suppress(Exception):
            await self._send(
                writer,
                {"op": "error", "code": code, "message": message, **extra},
            )

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.stats.accepted += 1
        try:
            await self._converse(reader, writer)
        except ProtocolError as err:
            self.stats.protocol_errors += 1
            await self._error(writer, protocol.ERR_PROTOCOL, str(err))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ReproError as err:
            await self._error(writer, protocol.ERR_INTERNAL, str(err))
        except Exception:
            log.exception("connection handler failed")
            await self._error(writer, protocol.ERR_INTERNAL, "internal error")
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _park(self, key: str, writer: asyncio.StreamWriter) -> None:
        """Detach one connection, checkpointing its still-live session."""
        attachment = self._attached.get(key)
        if attachment is not None and attachment.writer is writer:
            self._attached.pop(key)
            if attachment.closed_by_server:
                return  # shed/drain already persisted the session
        session = self._sessions.get(key)
        if session is None or key in self._attached:
            return  # completed/evicted, or reattached elsewhere already
        session.park()
        self._checkpoint(session)

    async def _converse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The per-connection protocol loop."""
        while True:
            try:
                frame = await read_frame(reader, self.config.read_timeout)
            except asyncio.TimeoutError:
                raise ProtocolError(
                    "handshake deadline expired", phase="serve"
                ) from None
            if frame is None:
                return
            op = frame.get("op")
            if op == "open":
                break
            # Pre-open control plane: a fleet supervisor probes and
            # drains workers without creating (or even admitting) a
            # session.
            if op == "ping":
                await self._send(writer, {"op": "pong"})
            elif op == "health":
                await self._send(writer, self.health_report())
            elif op == "release":
                count = await self.release_sessions()
                await self._send(writer, {"op": "released", "count": count})
            else:
                raise ProtocolError(
                    f"expected open, got {op!r}", phase="serve"
                )
        key, session = await self._open(frame, writer)
        if session is None:
            return
        attachment = self._attached[key]
        try:
            while True:
                frame = await self._read_or_idle(reader, writer, key, session)
                if frame is None:
                    return
                if self._attached.get(key) is not attachment:
                    # Superseded by a resume takeover (or shed/drained)
                    # while this frame sat in the read buffer: feeding it
                    # now would duplicate bytes the new connection is
                    # already replaying.  Stand down without parking.
                    return
                session.touch()
                op = frame["op"]
                if op == "data":
                    await self._on_data(frame, session, attachment, writer)
                elif op == "end":
                    await self._on_end(key, session, writer)
                    return
                elif op == "reload":
                    await self._on_reload(frame, session, writer)
                elif op == "ping":
                    await self._send(writer, {"op": "pong"})
                elif op == "detach":
                    session.park()
                    self._checkpoint(session)
                    await self._send(
                        writer,
                        {
                            "op": "bye",
                            "reason": "detach",
                            "offset": session.offset,
                        },
                    )
                    return
                else:
                    raise ProtocolError(f"unknown op {op!r}", phase="serve")
        finally:
            self._park(key, writer)

    async def _read_or_idle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        key: str,
        session: ScanSession,
    ) -> dict | None:
        """One frame, enforcing the read deadline and the idle timeout."""
        while True:
            try:
                return await read_frame(reader, self.config.read_timeout)
            except asyncio.TimeoutError:
                attachment = self._attached.get(key)
                if attachment is None or attachment.writer is not writer:
                    return None  # shed or drained from under us
                if session.idle_seconds() >= self.config.idle_timeout:
                    session.park()
                    if self._checkpoint(session):
                        self._sessions.pop(key, None)
                        self.stats.evicted_idle += 1
                    self._attached.pop(key, None)
                    with contextlib.suppress(Exception):
                        await self._send(
                            writer,
                            {
                                "op": "bye",
                                "reason": "idle",
                                "offset": session.offset,
                            },
                        )
                    return None

    async def _open(
        self, frame: dict, writer: asyncio.StreamWriter
    ) -> tuple[str | None, ScanSession | None]:
        tenant = frame.get("tenant")
        session_id = frame.get("session")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("open frame needs a tenant", phase="serve")
        if not isinstance(session_id, str) or not session_id:
            raise ProtocolError("open frame needs a session", phase="serve")
        key = session_key(tenant, session_id)
        if self._draining:
            await self._error(
                writer,
                protocol.ERR_DRAIN,
                "server is draining",
                retry_after=RETRY_AFTER_ADMISSION,
            )
            return None, None
        if key in self._attached:
            if not frame.get("resume"):
                await self._error(
                    writer,
                    protocol.ERR_CONFLICT,
                    f"session {key} is already attached to a connection",
                )
                return None, None
            # A resume takeover: the previous transport is (or is about
            # to be found) dead — an aborted client reconnects before
            # the server's read loop notices the RST.  Latest wins; the
            # old handler sees a foreign attachment and stands down.
            stale = self._attached.pop(key)
            stale.closed_by_server = "superseded"
            stale.writer.close()
            held = self._sessions.get(key)
            if held is not None:
                held.park()  # its pending bytes will be replayed
        resumed = False
        session = self._sessions.get(key)
        if session is None:
            # Count builds still in flight: _build_session awaits the
            # compile executor, and without the reservation N concurrent
            # opens would all pass the cap before any registers.
            refusal = self.policy.admit(len(self._sessions) + self._opening)
            if refusal is not None:
                self.stats.rejected += 1
                err = AdmissionError(
                    str(refusal),
                    retry_after=RETRY_AFTER_ADMISSION,
                    limit=refusal.limit,
                    phase="serve",
                )
                await self._error(
                    writer,
                    protocol.ERR_ADMISSION,
                    str(err),
                    retry_after=err.retry_after,
                    limit=err.limit,
                )
                return None, None
            self._opening += 1
            try:
                session, resumed = await self._build_session(frame, key)
            except (CompileError, ValueError) as err:
                await self._error(writer, protocol.ERR_COMPILE, str(err))
                return None, None
            except CheckpointError as err:
                await self._error(writer, protocol.ERR_CHECKPOINT, str(err))
                return None, None
            finally:
                self._opening -= 1
            self._sessions[key] = session
            self.stats.admitted += 1
            if resumed:
                self.stats.resumed += 1
        session.touch()
        self._attached[key] = _Attachment(writer=writer)
        # The session ack reports the backend that will *actually*
        # execute (after the probe-and-fall-back chain) so a client can
        # see e.g. "native unavailable: no C compiler" instead of
        # silently scanning on the fallback tier.
        backend, backend_reason = resolve_backend_with_reason()
        await self._send(
            writer,
            {
                "op": "welcome",
                "protocol": protocol.PROTOCOL,
                "version": protocol.PROTOCOL_VERSION,
                "tenant": tenant,
                "session": session_id,
                "offset": session.offset,
                "generation": session.generation,
                "resumed": resumed,
                "backend": backend,
                "backend_reason": backend_reason,
            },
        )
        return key, session

    async def _build_session(
        self, frame: dict, key: str
    ) -> tuple[ScanSession, bool]:
        """A fresh or checkpoint-resumed session for an ``open`` frame."""
        tenant = frame["tenant"]
        session_id = frame["session"]
        patterns = frame.get("patterns") or []
        weight = float(frame.get("weight", 1.0))
        store = self._store_for(key)
        loop = asyncio.get_running_loop()
        if frame.get("resume"):
            envelope = store.load_latest()
            if envelope is not None:
                session = await loop.run_in_executor(
                    None,
                    lambda: ScanSession.from_envelope(
                        envelope, self.registry, store, weight=weight
                    ),
                )
                return session, True
            # No checkpoint survived: fall through to a fresh start at
            # offset 0 — the welcome offset tells the client to replay.
        if not isinstance(patterns, list) or not all(
            isinstance(p, str) for p in patterns
        ):
            raise ProtocolError(
                "open frame needs a list of pattern strings", phase="serve"
            )
        entry = await loop.run_in_executor(
            None, self.registry.open, tenant, patterns
        )
        store.clear()  # a non-resume open starts a new lineage
        session = ScanSession(
            tenant,
            session_id,
            entry,
            store,
            self.registry.hw,
            bin_size=self.registry.bin_size,
            weight=weight,
        )
        return session, False

    async def _on_data(
        self,
        frame: dict,
        session: ScanSession,
        attachment: _Attachment,
        writer: asyncio.StreamWriter,
    ) -> None:
        raw = frame.get("b64", "")
        if not isinstance(raw, str):
            raise ProtocolError("data frame needs a b64 string", phase="serve")
        try:
            segment = base64.b64decode(raw.encode(), validate=True)
        except (binascii.Error, ValueError) as err:
            raise ProtocolError(
                f"data frame is not valid base64: {err}", phase="serve"
            ) from err
        await self._maybe_swap(session, writer)
        events = session.feed(segment)
        await self._send(
            writer,
            {
                "op": "events",
                "matches": events,
                "offset": session.offset,
                "generation": session.generation,
                "energy_uj": session.total_energy_uj(),
            },
        )
        attachment.bytes_since_checkpoint += len(segment)
        if (
            attachment.bytes_since_checkpoint
            >= self.config.checkpoint_interval_bytes
        ):
            if self._checkpoint(session):
                attachment.bytes_since_checkpoint = 0

    async def _maybe_swap(
        self, session: ScanSession, writer: asyncio.StreamWriter
    ) -> None:
        """Rotate the session if its tenant moved to a new generation."""
        entry = self.registry.get(session.tenant)
        if entry is None or entry.generation == session.generation:
            return
        flushed = session.maybe_swap(entry)
        if flushed is None:
            return
        self.stats.swaps += 1
        if flushed:
            await self._send(
                writer,
                {
                    "op": "events",
                    "matches": flushed,
                    "offset": session.offset,
                    "generation": session.generation,
                    "energy_uj": session.total_energy_uj(),
                },
            )
        await self._send(
            writer,
            {
                "op": "swap",
                "offset": session.offset,
                "generation": session.generation,
            },
        )

    async def _on_end(
        self, key: str, session: ScanSession, writer: asyncio.StreamWriter
    ) -> None:
        await self._maybe_swap(session, writer)
        events = session.end()
        if events:
            await self._send(
                writer,
                {
                    "op": "events",
                    "matches": events,
                    "offset": session.offset,
                    "generation": session.generation,
                    "energy_uj": session.total_energy_uj(),
                },
            )
        await self._send(
            writer,
            {
                "op": "result",
                "matches": session.total_matches(),
                "energy_uj": session.total_energy_uj(),
                "offset": session.offset,
                "generation": session.generation,
            },
        )
        session.store.clear()
        self._sessions.pop(key, None)
        self._attached.pop(key, None)
        self.stats.completed += 1

    async def _on_reload(
        self, frame: dict, session: ScanSession, writer: asyncio.StreamWriter
    ) -> None:
        patterns = frame.get("patterns")
        if not isinstance(patterns, list) or not all(
            isinstance(p, str) for p in patterns
        ):
            raise ProtocolError(
                "reload frame needs a list of pattern strings", phase="serve"
            )
        loop = asyncio.get_running_loop()
        try:
            # Compile off the event loop: other sessions keep streaming.
            entry = await loop.run_in_executor(
                None, self.registry.reload, session.tenant, patterns
            )
        except (CompileError, ValueError) as err:
            await self._error(writer, protocol.ERR_COMPILE, str(err))
            return
        self.stats.reloads += 1
        swapped = entry.fingerprint != session.entry.fingerprint
        await self._send(
            writer,
            {
                "op": "reloaded",
                "generation": entry.generation,
                "swapped": swapped,
            },
        )
        # The inter-frame gap is a segment boundary: swap right here.
        await self._maybe_swap(session, writer)


__all__ = [
    "EXIT_CONFIG",
    "EXIT_FAILURES",
    "EXIT_OK",
    "RETRY_AFTER_ADMISSION",
    "RETRY_AFTER_MIGRATE",
    "RETRY_AFTER_SHED",
    "ScanServer",
    "ServeConfig",
    "ServerStats",
    "session_key",
]
