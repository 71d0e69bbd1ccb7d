"""The ``serve_stream`` driver: a closed-loop client over protocol frames.

One asyncio process keeps one session open and exactly one 4 KiB segment
outstanding on it — the next segment goes out only when the previous
one's ``events`` frame is back — so the measured turnaround is
per-segment overhead, not queueing.  (An open-loop rate
sweep is a later extension.)  The same client drives the real
``python -m repro serve`` subprocess for end-to-end numbers and an
in-process ``ScanServer`` for the traced pass.
"""

from __future__ import annotations

import asyncio
import base64
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.serve import protocol

from benchmarks.ledger.stats import calibration_spin
from benchmarks.ledger.workloads import SEGMENT_BYTES

TENANT = "ledger"
FRAME_TIMEOUT = 60.0
CALIBRATE_EVERY = 50
LIMIT = protocol.MAX_FRAME_BYTES


@dataclass
class SessionLog:
    """What one session saw: turnarounds, events, failures, final result."""

    latencies: list[float] = field(default_factory=list)
    spins: list[float] = field(default_factory=list)  # one per latency
    events: list[tuple[int, int]] = field(default_factory=list)
    failed: int = 0
    segments: int = 0
    wire_bytes: int = 0  # data frames sent
    result: dict | None = None


async def _read(reader) -> dict:
    line = await asyncio.wait_for(reader.readline(), FRAME_TIMEOUT)
    if not line:
        raise ConnectionResetError("server closed the connection")
    return protocol.decode_frame(line)


async def open_session(port: int, session: str, patterns) -> tuple:
    """Connect and ``open``; returns ``(reader, writer, welcome)``.

    Aborts when the server's ack reports anything but the native
    backend — its silent fallback is loud only in this frame.
    """
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=LIMIT
    )
    writer.write(
        protocol.encode_frame(
            {
                "op": "open",
                "tenant": TENANT,
                "session": session,
                "patterns": list(patterns),
                "resume": False,
            }
        )
    )
    await writer.drain()
    welcome = await _read(reader)
    if welcome.get("op") != "welcome":
        raise RuntimeError(f"open refused: {welcome}")
    if welcome.get("backend") != "native":
        raise SystemExit(
            f"ledger: server resolved backend {welcome.get('backend')!r} "
            f"({welcome.get('backend_reason')}); refusing to measure a fallback"
        )
    return reader, writer, welcome


async def stream(reader, writer, block: bytes, segments: int, tracer=None) -> SessionLog:
    """One session: ``segments`` segments of ``block`` (cyclically), one
    outstanding at a time, then ``end``."""
    log = SessionLog()
    n = len(block)
    position = 0
    for index in range(segments):
        segment = block[position : position + SEGMENT_BYTES]
        position = (position + SEGMENT_BYTES) % n
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        frame = protocol.encode_frame(
            {"op": "data", "b64": base64.b64encode(segment).decode()}
        )
        writer.write(frame)
        await writer.drain()
        reply = await _read(reader)
        log.latencies.append(time.perf_counter() - start)
        # A calibration loop between turnarounds, every CALIBRATE_EVERY-th
        # segment: ~1 % think time, and its neighbours share the sample.
        if index % CALIBRATE_EVERY == 0:
            spin = calibration_spin()
        log.spins.append(spin)
        log.segments += 1
        log.wire_bytes += len(frame)
        if reply.get("op") != "events":
            log.failed += 1
            continue
        log.events.extend((int(end), int(rid)) for end, rid in reply["matches"])
    if tracer is not None:
        tracer.op = -1
    writer.write(protocol.encode_frame({"op": "end"}))
    await writer.drain()
    while log.result is None:
        reply = await _read(reader)
        if reply.get("op") == "events":
            log.events.extend(
                (int(end), int(rid)) for end, rid in reply["matches"]
            )
        elif reply.get("op") == "result":
            log.result = reply
        else:
            raise RuntimeError(f"unexpected frame after end: {reply}")
    writer.close()
    await writer.wait_closed()
    return log


def payload_of(block: bytes, segments: int) -> bytes:
    """The bytes a session that sent ``segments`` segments streamed."""
    total = segments * SEGMENT_BYTES
    return (block * (total // len(block) + 1))[:total]


# -- the real server, as a subprocess -----------------------------------------


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, stopped on exit."""

    def __init__(self, env: dict, checkpoint_dir: str):
        self._env = {**env, "RAP_BACKEND": "native"}
        self._checkpoint_dir = checkpoint_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.spawn_s = 0.0

    def __enter__(self) -> "ServerProcess":
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--checkpoint-dir", self._checkpoint_dir,
            ],
            env=self._env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._pin()
        line = self.proc.stdout.readline()
        self.spawn_s = time.perf_counter() - start
        if not line.startswith("listening on "):
            self.__exit__(None, None, None)
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return self

    def _pin(self) -> None:
        """Server and this (client) thread on one CPU, the last.

        A closed loop with one segment outstanding has no parallelism
        to lose: the client waits while the server works and the
        reverse.  Apart, every segment costs two cross-CPU wake-ups of a
        halted virtual CPU, and on a busy host ~15 % of them took 2-3 ms
        — right at the 90th percentile, which then read 1.0 or 1.9 ms
        from one run to the next.
        """
        self._client_cpus = os.sched_getaffinity(0)
        shared = {max(self._client_cpus)}
        os.sched_setaffinity(self.proc.pid, shared)
        os.sched_setaffinity(0, shared)

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``) in MB (10^6 B)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def __exit__(self, *exc) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        os.sched_setaffinity(0, self._client_cpus)
        self.proc = None


def setup_once(env: dict, checkpoint_dir: str, patterns, block: bytes) -> dict:
    """One cold serve set-up: spawn -> listening -> open -> welcome.

    The session then streams one segment and ends, so the set-up is
    'to first verified result' like the bulk workloads'.
    """

    async def first_result(port):
        reader, writer, _ = await open_session(port, "setup", patterns)
        welcomed = time.perf_counter()
        log = await stream(reader, writer, block[:SEGMENT_BYTES], 1)
        return welcomed, log

    start = time.perf_counter()
    with ServerProcess(env, checkpoint_dir) as server:
        welcomed, log = asyncio.run(first_result(server.port))
        return {
            "setup_s": welcomed - start,
            "spawn_s": server.spawn_s,
            "open_s": welcomed - start - server.spawn_s,
            "log": log,
        }


def drive(port: int, patterns, block: bytes, *, seconds: float,
          session_segments: int) -> list[SessionLog]:
    """The timed phase: one closed loop from this one process.

    It streams one finite session after another — every one exactly
    ``session_segments`` long — until ``seconds`` have passed.  Finite
    sessions keep the workload stationary: the server re-prices a
    session's whole history on every segment, so turnaround grows with
    session age, and an open-ended stream would make the percentiles
    depend on how long the run happened to last.  One connection, not
    one per CPU: two closed loops against the single-threaded server
    phase-lock or collide from one run to the next, and the p90 was
    bimodal (1.4 ms / 1.9 ms).
    """

    async def run():
        logs = []
        deadline = time.perf_counter() + seconds
        while not logs or time.perf_counter() < deadline:
            reader, writer, _ = await open_session(
                port, f"s{len(logs):04d}", patterns
            )
            logs.append(await stream(reader, writer, block, session_segments))
        return logs

    return asyncio.run(run())


# -- the in-process server, for the traced pass -------------------------------


def drive_inprocess(checkpoint_dir: str, patterns, block: bytes, *,
                    segments: int, tracer=None) -> SessionLog:
    """One session against an in-process ``ScanServer`` (layers wrappable)."""
    from repro.engine.batch import BatchEngine, EngineConfig
    from repro.serve.registry import TenantRegistry
    from repro.serve.server import ScanServer, ServeConfig

    async def run():
        registry = TenantRegistry(BatchEngine(EngineConfig(backend="native")))
        server = ScanServer(
            ServeConfig(port=0, checkpoint_dir=checkpoint_dir), registry
        )
        await server.start()
        try:
            reader, writer, _ = await open_session(
                server.port, "trace", patterns
            )
            return await stream(reader, writer, block, segments, tracer)
        finally:
            await server.stop()

    return asyncio.run(run())
