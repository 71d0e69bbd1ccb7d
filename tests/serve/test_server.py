"""End-to-end server tests over real sockets.

Every scenario asserts the robustness contract the ISSUE names: no
matter how a connection ends — conflict, idle eviction, shedding,
drain, protocol garbage — the session resumes to byte-identical
matches and energy, proven against the uninterrupted golden.
"""

import asyncio
import gc
import weakref

import pytest

from repro.core import use_backend
from repro.engine.budget import AdmissionPolicy
from repro.errors import AdmissionError, ServeError
from repro.serve import protocol
from repro.serve.client import ScanClient, serial_totals
from repro.serve.protocol import encode_frame, read_frame, send_frame
from repro.serve.registry import TenantRegistry
from repro.serve.server import (
    RETRY_AFTER_ADMISSION,
    RETRY_AFTER_MIGRATE,
    RETRY_AFTER_SHED,
    ScanServer,
    ServeConfig,
    session_key,
)
from tests.serve.util import (
    ALT_PATTERNS,
    PATTERNS,
    entry_for,
    finish_stream,
    poll_until,
    run,
    running_server,
)

SEG = 700


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("port", 70000),
            ("checkpoint_dir", ""),
            ("max_sessions", 0),
            ("max_rss_mb", -1.0),
            ("max_open_fds", 0),
            ("idle_timeout", 0.0),
            ("read_timeout", -1.0),
            ("drain_seconds", -0.5),
            ("checkpoint_interval_bytes", 0),
        ],
    )
    def test_out_of_range_fields_rejected(self, field, value):
        from repro.errors import ServeConfigError

        config = ServeConfig(**{field: value})
        with pytest.raises(ServeConfigError):
            config.validate()
        with pytest.raises(ServeConfigError):
            ScanServer(config)

    def test_defaults_validate(self):
        assert ServeConfig().validate() is not None

    def test_policy_mirrors_caps(self):
        policy = ServeConfig(
            max_sessions=3, max_rss_mb=512.0, max_open_fds=100
        ).policy()
        assert policy == AdmissionPolicy(
            max_sessions=3, max_rss_mb=512.0, max_open_fds=100
        )


class TestStreaming:
    def test_plain_stream_matches_golden(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "plain", "s", PATTERNS
                )
                result = await client.run(data, segment_bytes=SEG)
                matches, energy = golden
                assert result["matches"] == matches
                assert result["energy_uj"] == energy
                assert result["offset"] == len(data)
                assert len(client.events) == matches
                assert client.reconnects == 0
                assert server.stats.completed == 1
                assert server.stats.admitted == 1
                # Completion clears the checkpoint lineage.
                assert server._store_for(
                    session_key("plain", "s")
                ).load_latest() is None

        run(scenario())

    def test_welcome_explains_a_retired_backend_name(
        self, registry, tmp_path, monkeypatch
    ):
        # RAP_BACKEND=numpy predates the three-backend registry: the
        # session must run (on python) and the ack must say why.
        monkeypatch.setenv("RAP_BACKEND", "numpy")

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "stale", "s", PATTERNS
                )
                welcome = await client.connect()
                assert welcome["backend"] == "python"
                assert welcome["backend_reason"] == "unknown backend 'numpy'"
                await client.close()

        run(scenario())

    def test_completed_sessions_free_admission_slots(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(
                tmp_path, registry, max_sessions=1
            ) as server:
                for name in ("one", "two"):
                    client = ScanClient(
                        "127.0.0.1", server.port, "seq", name, PATTERNS
                    )
                    result = await client.run(data, segment_bytes=SEG)
                    assert result["matches"] == golden[0]
                assert server.stats.completed == 2

        run(scenario())


    def test_sessions_of_a_generation_share_one_plan(
        self, registry, data, tmp_path
    ):
        pytest.importorskip("numpy")

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                clients = [
                    ScanClient("127.0.0.1", server.port, "shared", name, PATTERNS)
                    for name in ("a", "b")
                ]
                for client in clients:
                    await client.connect()
                plan = registry.get("shared").plan
                sessions = list(server._sessions.values())
                assert len(sessions) == 2
                assert all(s.scan._plan is plan for s in sessions)
                # Interleaved segments through the one (stateless) plan.
                return await asyncio.gather(
                    *(finish_stream(client, data, SEG) for client in clients)
                )

        with use_backend("fused"):
            results = run(scenario())
            totals = serial_totals(PATTERNS, [data], registry)
        for result in results:
            assert (result["matches"], result["energy_uj"]) == totals


    def test_each_point_of_the_stream_is_priced_once(
        self, registry, data, golden, tmp_path, monkeypatch
    ):
        """A reply quotes the session's energy, and ``end`` sends two
        replies: one ``run_from_activity`` per data frame (the first
        prices offset 0, each later one the segment it flushed) and one
        for ``end`` — not the two or three an unmemoised total cost."""
        from repro.simulators.rap import RAPSimulator

        priced = []
        price = RAPSimulator.run_from_activity

        def counting(self, ruleset, activity, *args, **kwargs):
            priced.append(activity.input_symbols)
            return price(self, ruleset, activity, *args, **kwargs)

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient("127.0.0.1", server.port, "once", "s", PATTERNS)
                await client.connect()
                monkeypatch.setattr(RAPSimulator, "run_from_activity", counting)
                return await finish_stream(client, data, SEG)

        result = run(scenario())
        monkeypatch.undo()
        frames = -(-len(data) // SEG)
        assert priced == [min(k * SEG, len(data)) for k in range(frames + 1)]
        assert (result["matches"], result["energy_uj"]) == golden
        assert golden == serial_totals(PATTERNS, [data], registry)


class TestAdmission:
    def test_session_cap_rejects_with_retry_after(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(
                tmp_path, registry, max_sessions=1
            ) as server:
                first = ScanClient(
                    "127.0.0.1", server.port, "adm", "a", PATTERNS
                )
                await first.connect()
                second = ScanClient(
                    "127.0.0.1", server.port, "adm", "b", PATTERNS
                )
                with pytest.raises(AdmissionError) as info:
                    await second.connect()
                assert info.value.retry_after == RETRY_AFTER_ADMISSION
                assert info.value.limit == "max_sessions"
                assert server.stats.rejected == 1
                # The slot frees when the first session completes.
                first.offset = 0
                result = await finish_stream(first, data, SEG)
                assert result["matches"] == golden[0]
                await second.connect()
                result = await finish_stream(second, data, SEG)
                assert result["matches"] == golden[0]

        run(scenario())

    def test_second_attachment_conflicts(self, registry, tmp_path):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                first = ScanClient(
                    "127.0.0.1", server.port, "conf", "s", PATTERNS
                )
                await first.connect()
                second = ScanClient(
                    "127.0.0.1", server.port, "conf", "s", PATTERNS
                )
                with pytest.raises(ServeError, match="conflict"):
                    await second.connect()
                await first.close()

        run(scenario())

    def test_resume_takeover_supersedes_stale_attachment(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                first = ScanClient(
                    "127.0.0.1", server.port, "take", "s", PATTERNS
                )
                await first.connect()
                for i in range(3):
                    await first.send(data[i * SEG : (i + 1) * SEG])
                first.abort()  # dead transport the server has not seen
                second = ScanClient(
                    "127.0.0.1", server.port, "take", "s", PATTERNS
                )
                welcome = await second.connect(resume=True)
                # Durable offset lags the aborted sender by the one
                # pending segment; the takeover replays it exactly once.
                assert welcome["offset"] <= 3 * SEG
                result = await finish_stream(second, data, SEG)
                matches, energy = golden
                assert result["matches"] == matches
                assert result["energy_uj"] == energy
                await first.close()

        run(scenario())

    def test_compile_failure_is_a_structured_refusal(
        self, registry, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "bad", "s", ["a("]
                )
                with pytest.raises(ServeError, match="compile"):
                    await client.connect()

        run(scenario())


class TestWatchdogs:
    def test_attached_idle_session_is_evicted_then_resumes(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(
                tmp_path,
                registry,
                idle_timeout=0.4,
                read_timeout=0.1,
                watchdog_interval=0.05,
            ) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "idle", "s", PATTERNS
                )
                await client.connect()
                for i in range(2):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                # Go silent: the read-deadline loop notices the idle
                # timeout, checkpoints, evicts, and says goodbye.
                bye = await asyncio.wait_for(client._control.get(), 10.0)
                assert bye["op"] == "bye"
                assert bye["reason"] == "idle"
                assert server.stats.evicted_idle == 1
                assert session_key("idle", "s") not in server._sessions
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                matches, energy = golden
                assert result["matches"] == matches
                assert result["energy_uj"] == energy
                assert server.stats.resumed == 1

        run(scenario())

    def test_parked_session_is_evicted_by_the_watchdog(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(
                tmp_path,
                registry,
                idle_timeout=0.3,
                watchdog_interval=0.05,
            ) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "park", "s", PATTERNS
                )
                await client.connect()
                for i in range(2):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                bye = await client.detach()
                assert bye["reason"] == "detach"
                await poll_until(lambda: server.stats.evicted_idle >= 1)
                assert session_key("park", "s") not in server._sessions
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                assert result["matches"] == golden[0]
                assert result["energy_uj"] == golden[1]

        run(scenario())

    def test_failed_checkpoint_says_why(
        self, registry, data, golden, tmp_path, monkeypatch, caplog
    ):
        """A checkpoint that cannot be written is logged with tenant,
        session, offset and the error, and the health report keeps the
        last reason — the scan itself is unharmed."""
        import fcntl
        import logging
        import os

        from repro.engine import checkpoint

        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.05)

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                assert server.health_report()["last_checkpoint_error"] is None
                client = ScanClient("127.0.0.1", server.port, "why", "s", PATTERNS)
                await client.connect()
                await client.send(data[:SEG])
                await client.send(data[SEG : 2 * SEG])  # feeds the first
                store = server._store_for(session_key("why", "s"))
                store.root.mkdir(parents=True, exist_ok=True)
                # A live writer inside its critical section: another
                # open file description holding the directory's flock.
                held = os.open(store.root, os.O_RDONLY)
                fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
                with caplog.at_level(logging.WARNING, logger="repro.serve.session"):
                    await client.detach()
                os.close(held)
                report = server.health_report()
                # the detach itself, and the disconnect that follows it
                assert report["checkpoint_failures"] == len(caplog.records) >= 1
                record = caplog.records[-1]
                for said in (report["last_checkpoint_error"], record.getMessage()):
                    assert f"tenant=why session=s offset={SEG}: " in said
                    assert "locked by another writer" in said
                    assert f"{store.root} (session=why/s)" in said
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                assert result["matches"] == golden[0]

        run(scenario())

    def test_health_report_says_what_durability_cost(
        self, registry, data, tmp_path
    ):
        """Bytes put on disk and seconds spent syncing them, summed over
        the live sessions' stores: disk told apart from Python."""

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                report = server.health_report()
                assert report["checkpoint_bytes"] == 0
                assert report["checkpoint_sync_seconds"] == 0
                client = ScanClient("127.0.0.1", server.port, "cost", "s", PATTERNS)
                await client.connect()
                await client.send(data[:SEG])
                await client.send(data[SEG : 2 * SEG])
                await client.detach()  # checkpoints the session
                report = server.health_report()
                assert report["sessions"] == 1
                assert report["checkpoint_bytes"] >= 4096
                assert report["checkpoint_bytes"] % 4096 == 0
                assert 0 < report["checkpoint_sync_seconds"] < 5.0

        run(scenario())

    def test_shed_drops_exactly_the_lowest_weight_session(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                light = ScanClient(
                    "127.0.0.1", server.port, "shed", "a", PATTERNS,
                    weight=1.0,
                )
                heavy = ScanClient(
                    "127.0.0.1", server.port, "shed", "b", PATTERNS,
                    weight=5.0,
                )
                await light.connect()
                await heavy.connect()
                for i in range(2):
                    await light.send(data[i * SEG : (i + 1) * SEG])
                    await heavy.send(data[i * SEG : (i + 1) * SEG])
                key = await server.shed_lowest("injected pressure")
                assert key == session_key("shed", "a")
                assert server.stats.shed == 1
                shed_frame = await asyncio.wait_for(
                    light._control.get(), 10.0
                )
                assert shed_frame["op"] == "error"
                assert shed_frame["code"] == protocol.ERR_SHED
                assert shed_frame["retry_after"] == RETRY_AFTER_SHED
                assert session_key("shed", "a") not in server._sessions
                assert session_key("shed", "b") in server._sessions
                # Shedding costs a reconnect, never correctness.
                await light.reconnect()
                result = await finish_stream(light, data, SEG)
                assert result["matches"] == golden[0]
                assert result["energy_uj"] == golden[1]
                heavy.offset = 2 * SEG
                result = await finish_stream(heavy, data, SEG)
                assert result["matches"] == golden[0]

        run(scenario())

    def test_watchdog_sheds_under_resource_pressure(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(
                tmp_path, registry, watchdog_interval=0.05
            ) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "press", "s", PATTERNS
                )
                await client.connect()
                for i in range(2):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                # Trip the descriptor cap: the watchdog must checkpoint
                # and shed without any operator call.
                server.policy = AdmissionPolicy(max_open_fds=1)
                await poll_until(lambda: server.stats.shed >= 1)
                server.policy = ServeConfig().policy()  # re-open the gate
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                assert result["matches"] == golden[0]
                assert result["energy_uj"] == golden[1]

        run(scenario())


class TestHotReload:
    def test_reload_swaps_at_a_segment_boundary(
        self, registry, data, tmp_path
    ):
        split = 4 * SEG

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "swap-t", "s", PATTERNS
                )
                await client.connect()
                for i in range(4):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                client.offset = split
                reloaded = await client.reload(ALT_PATTERNS)
                assert reloaded["swapped"] is True
                assert reloaded["generation"] == 2
                result = await finish_stream(client, data, SEG)
                assert client.generation == 2
                assert client.reconnects == 0  # never dropped
                assert server.stats.reloads == 1
                assert server.stats.swaps == 1
                return result

        result = run(scenario())

        # Two-epoch golden: old ruleset over the pre-reload span (the
        # stream continued, so never at-end), new ruleset over the rest.
        from repro.engine.checkpoint import DurableScan
        from repro.simulators.rap import RAPSimulator

        old = entry_for(registry, PATTERNS)
        new = entry_for(registry, ALT_PATTERNS)
        sim = RAPSimulator(registry.hw)
        scan_a = DurableScan(old.ruleset, old.mapping, registry.hw)
        scan_a.feed(data[:split], at_end=False)
        matches_a = sum(len(e) for e in scan_a.match_lists().values())
        energy_a = sim.run_from_activity(
            old.ruleset, scan_a.finish(), old.mapping
        ).energy_uj
        scan_b = DurableScan(new.ruleset, new.mapping, registry.hw)
        scan_b.feed(data[split:], at_end=True)
        matches_b = sum(len(e) for e in scan_b.match_lists().values())
        energy_b = sim.run_from_activity(
            new.ruleset, scan_b.finish(), new.mapping
        ).energy_uj
        assert result["matches"] == matches_a + matches_b
        assert result["energy_uj"] == energy_a + energy_b

    def test_retired_generation_is_collectable(self, data, tmp_path):
        # The binding (mapping + plan) rides on the ruleset object, so a
        # generation nobody scans any more takes its plan with it.
        pytest.importorskip("numpy")
        registry = TenantRegistry()

        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "retire", "s", PATTERNS
                )
                await client.connect()
                await client.send(data[:SEG])
                client.offset = SEG
                retired = weakref.ref(registry.get("retire").ruleset)
                assert (await client.reload(ALT_PATTERNS))["swapped"]
                await client.send(data[SEG : 2 * SEG])  # rotates the session
                client.offset = 2 * SEG
                assert server.stats.swaps == 1
                gc.collect()
                assert retired() is None
                await finish_stream(client, data, SEG)

        with use_backend("fused"):
            run(scenario())

    def test_identical_reload_never_rotates(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "noop-t", "s", PATTERNS
                )
                await client.connect()
                for i in range(2):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                client.offset = 2 * SEG
                reloaded = await client.reload(list(PATTERNS))
                assert reloaded["swapped"] is False
                assert reloaded["generation"] == 1
                result = await finish_stream(client, data, SEG)
                assert server.stats.swaps == 0
                assert result["matches"] == golden[0]
                assert result["energy_uj"] == golden[1]

        run(scenario())


class TestDrain:
    def test_drain_checkpoints_and_another_worker_resumes(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "drain-t", "s", PATTERNS
                )
                await client.connect()
                for i in range(3):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                # Sends are fire-and-forget; a ping round-trip forces the
                # handler to consume them (FIFO) before we drain.
                await client.ping()
                await server.drain()
                bye = await asyncio.wait_for(client._control.get(), 10.0)
                assert bye["op"] == "bye"
                assert bye["reason"] == "drain"
                assert server.stats.checkpoint_failures == 0
                await client.close()

            # Another worker: same checkpoint root, a *fresh* registry —
            # the envelope's patterns recompile and the scan restores
            # detached, exactly the crashed-worker handoff.
            async with running_server(
                tmp_path, TenantRegistry()
            ) as second:
                resumer = ScanClient(
                    "127.0.0.1", second.port, "drain-t", "s", PATTERNS
                )
                welcome = await resumer.connect(resume=True)
                assert welcome["resumed"] is True
                assert 0 < welcome["offset"] <= 3 * SEG
                result = await finish_stream(resumer, data, SEG)
                matches, energy = golden
                assert result["matches"] == matches
                assert result["energy_uj"] == energy
                assert second.stats.resumed == 1

        run(scenario())


class TestProtocolRobustness:
    def test_garbage_fails_the_connection_not_the_session(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "garb", "s", PATTERNS
                )
                await client.connect()
                for i in range(2):
                    await client.send(data[i * SEG : (i + 1) * SEG])
                await client.send_garbage()
                error = await asyncio.wait_for(client._control.get(), 10.0)
                assert error["op"] == "error"
                assert error["code"] == protocol.ERR_PROTOCOL
                assert server.stats.protocol_errors == 1
                await client.close()
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                assert result["matches"] == golden[0]
                assert result["energy_uj"] == golden[1]

        run(scenario())

    def test_unknown_op_fails_the_connection_not_the_session(
        self, registry, data, golden, tmp_path
    ):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "unk", "s", PATTERNS
                )
                await client.connect()
                await client.send(data[:SEG])
                send_frame(client._writer, {"op": "dance"})
                await client._writer.drain()
                error = await asyncio.wait_for(client._control.get(), 10.0)
                assert error["op"] == "error"
                assert error["code"] == protocol.ERR_PROTOCOL
                await client.close()
                await client.reconnect()
                result = await finish_stream(client, data, SEG)
                assert result["matches"] == golden[0]

        run(scenario())

    def test_handshake_must_begin_with_open_or_control(
        self, registry, tmp_path
    ):
        # Pre-open control ops (ping/health) are answered sessionless —
        # the fleet supervisor's probe path — but a session op before
        # open is still a protocol error.
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"op": "ping"}))
                await writer.drain()
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "pong"
                writer.write(encode_frame({"op": "health"}))
                await writer.drain()
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "health_report"
                assert frame["sessions"] == 0
                assert frame["draining"] is False
                writer.write(encode_frame({"op": "data", "b64": ""}))
                await writer.drain()
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "error"
                assert frame["code"] == protocol.ERR_PROTOCOL
                assert "open" in frame["message"]
                writer.close()

        run(scenario())

    def test_handshake_deadline_expires(self, registry, tmp_path):
        async def scenario():
            async with running_server(
                tmp_path, registry, read_timeout=0.2
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Say nothing: the server must not hold the socket open.
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "error"
                assert frame["code"] == protocol.ERR_PROTOCOL
                assert "handshake" in frame["message"]
                writer.close()

        run(scenario())

    def test_open_without_tenant_is_rejected(self, registry, tmp_path):
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"op": "open", "session": "s"}))
                await writer.drain()
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "error"
                assert frame["code"] == protocol.ERR_PROTOCOL
                assert "tenant" in frame["message"]
                writer.close()

        run(scenario())


class TestRelease:
    def test_preopen_release_parks_and_forgets(
        self, registry, data, golden, tmp_path
    ):
        # The live-migration source half, driven over the wire: a
        # sessionless control connection sends ``release``; every
        # session parks at its segment boundary, its client gets the
        # structured migrate error, and the worker forgets the session
        # entirely — yet a resume continues it byte-identically from
        # the shared store.
        async def scenario():
            async with running_server(tmp_path, registry) as server:
                client = ScanClient(
                    "127.0.0.1", server.port, "t", "rel", PATTERNS
                )
                await client.connect()
                for _ in range(2):
                    segment = data[client.offset : client.offset + SEG]
                    await client.send(segment)
                    client.offset += len(segment)
                await client.ping()  # barrier: both segments are fed

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"op": "release"}))
                await writer.drain()
                frame = await read_frame(reader, 10.0)
                assert frame["op"] == "released"
                assert frame["count"] == 1
                writer.close()

                assert server.stats.released == 1
                assert not server._sessions  # ownership has left this worker

                # The attached client observed the structured error.
                frame = await asyncio.wait_for(client._control.get(), 10.0)
                assert frame["op"] == "error"
                assert frame["code"] == protocol.ERR_MIGRATE
                assert frame["retry_after"] == RETRY_AFTER_MIGRATE
                assert frame["offset"] == SEG  # pending segment dropped

                # Resume lands on "another worker" (same store suffices).
                welcome = await client.connect(resume=True)
                assert welcome["resumed"] is True
                assert welcome["offset"] == SEG
                client.offset = welcome["offset"]
                result = await finish_stream(client, data, SEG)
                assert (result["matches"], result["energy_uj"]) == golden
                assert server.stats.resumed == 1

        run(scenario())
