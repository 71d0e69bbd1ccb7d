"""Chaos-soak tests: every connection fault kind, plus a killed worker.

The acceptance bar: a session torn down mid-stream by disconnect,
stall, garbage, reload, admission rejection, or ``SIGKILL`` of the
whole worker resumes to byte-identical matches and energy — proven by
exact (integer and float) comparison against the uninterrupted serial
golden of the same payloads.
"""

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro.core import available_backends
from repro.engine.faults import FaultPlan
from repro.serve.client import LoadGenerator, ScanClient, serial_totals
from tests.serve.util import PATTERNS, make_data, run, running_server

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


class TestFaultPlanSoak:
    def test_every_conn_fault_kind_is_byte_identical(
        self, registry, tmp_path
    ):
        payloads = [make_data(5000, seed=20 + i) for i in range(3)]
        plan = FaultPlan.parse("disconnect@1;garbage@4;stall@6*0.1;reload@8")

        async def scenario():
            async with running_server(
                tmp_path, registry, checkpoint_interval_bytes=1024
            ) as server:
                generator = LoadGenerator(
                    "127.0.0.1",
                    server.port,
                    PATTERNS,
                    tenant="chaos",
                    sessions=len(payloads),
                    segment_bytes=600,
                    plan=plan,
                )
                return await generator.run(payloads)

        report = run(scenario(), timeout=120.0)
        assert report.failed == 0
        assert report.completed == len(payloads)
        # Each session fires at least one disconnect and one garbage
        # fault; the server closing after a garbage error frame can cost
        # a second reconnect, so bound from below.
        assert report.reconnects >= 2 * len(payloads)
        matches, energy = serial_totals(PATTERNS, payloads, registry)
        assert report.total_matches == matches
        assert report.total_energy_uj == energy
        # Replayed segments never double-emit events.
        assert report.distinct_events == matches


class TestAdmissionUnderLoad:
    def test_rejected_sessions_honor_retry_after_and_complete(
        self, registry, tmp_path
    ):
        payloads = [make_data(3000, seed=40 + i) for i in range(4)]

        async def scenario():
            async with running_server(
                tmp_path, registry, max_sessions=2
            ) as server:
                generator = LoadGenerator(
                    "127.0.0.1",
                    server.port,
                    PATTERNS,
                    tenant="queue",
                    sessions=len(payloads),
                    segment_bytes=600,
                )
                report = await generator.run(payloads)
                assert server.stats.rejected >= 1
                return report

        report = run(scenario(), timeout=120.0)
        assert report.failed == 0
        assert report.completed == len(payloads)
        matches, energy = serial_totals(PATTERNS, payloads, registry)
        assert report.total_matches == matches
        assert report.total_energy_uj == energy


class TestWorkerKill:
    """SIGKILL the serving process mid-stream; a restarted worker on the
    same port and checkpoint root must finish the session bit-identically.
    """

    def _spawn(self, port, ckpt, **extra_env):
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--checkpoint-dir",
                str(ckpt),
                "--checkpoint-every",
                "512",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO,
        )
        line = proc.stdout.readline()  # blocks until the readiness line
        assert "listening on" in line, line
        return proc, int(line.strip().rsplit(":", 1)[1])

    def _kill_and_restart(self, tmp_path, first_env, second_env):
        """Stream a session, SIGKILL the worker (started with
        ``first_env``) a third of the way in, restart it with
        ``second_env``: the totals must equal the serial golden."""
        data = make_data(12000, seed=33)
        ckpt = tmp_path / "ckpt"

        async def scenario():
            proc, port = await asyncio.to_thread(
                self._spawn, 0, ckpt, **first_env
            )
            try:
                client = ScanClient(
                    "127.0.0.1", port, "kill-t", "s", PATTERNS
                )
                # Stalls pace the stream so the kill lands mid-flight.
                plan = FaultPlan.parse(
                    "stall@2*0.4;stall@6*0.4;stall@10*0.4;stall@14*0.4"
                )
                task = asyncio.create_task(
                    client.run(data, segment_bytes=600, plan=plan)
                )
                while client.offset < len(data) // 3:
                    await asyncio.sleep(0.02)
                proc.kill()  # SIGKILL: the unskippable worker death
                await asyncio.to_thread(proc.wait)
                assert proc.returncode == -signal.SIGKILL
            except BaseException:
                proc.kill()
                raise
            proc2, _ = await asyncio.to_thread(
                self._spawn, port, ckpt, **second_env
            )
            try:
                result = await task
            finally:
                proc2.send_signal(signal.SIGTERM)
                await asyncio.to_thread(proc2.wait)
            assert proc2.returncode == 0  # SIGTERM drained gracefully
            assert client.reconnects >= 1
            return result

        result = run(scenario(), timeout=180.0)
        matches, energy = serial_totals(PATTERNS, [data])
        assert result["matches"] == matches
        assert result["energy_uj"] == energy

    def test_sigkill_mid_stream_resumes_byte_identically(self, tmp_path):
        self._kill_and_restart(tmp_path, {}, {})

    @pytest.mark.skipif(
        "native" not in available_backends(), reason="native backend not available"
    )
    def test_native_worker_session_resumes_on_a_worker_without_native(
        self, tmp_path
    ):
        """Sessions migrate whatever backend each worker resolved: one
        checkpointed by a native worker finishes on a worker whose native
        build is disabled (it resolves fused)."""
        self._kill_and_restart(
            tmp_path,
            {"RAP_BACKEND": "native"},
            {"RAP_BACKEND": "native", "RAP_NATIVE_DISABLE": "1"},
        )
