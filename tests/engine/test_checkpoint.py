"""Durable-scan tests: checkpoint/resume, budgets, graceful degradation.

The acceptance bar: a scan interrupted at an arbitrary point — up to
and including ``SIGKILL`` mid-run — and resumed from its newest intact
checkpoint produces byte-identical matches, energy totals, and metrics
to an uninterrupted run, under every injected fault kind.
"""

import contextlib
import dataclasses
import errno
import fcntl
import json
import logging
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.compiler import compile_ruleset
from repro.core import available_backends, use_backend
from repro.engine import BatchEngine, EngineConfig
from repro.engine.budget import BudgetMonitor, ResourceBudget, validate_degrade
from repro.engine import checkpoint
from repro.engine.checkpoint import (
    KEEP,
    SLOTS,
    CheckpointStore,
    DurableScan,
    session_dirname,
)
from repro.errors import BudgetExceededError, CheckpointError
from repro.hardware.config import DEFAULT_CONFIG
from repro.io import envelope
from repro.simulators.rap import RAPSimulator
from tests.helpers import killed_at, persistence_trace

# A mixed-mode ruleset: LNFA bins, one NBVA, one NFA.
PATTERNS = ["abc", "a.c", "end$", "hello|world", "ab{10,20}c", "xy*z"]
ALPHABET = b"abcxyz endhello world"


def make_data(length: int = 4000, seed: int = 3) -> bytes:
    rng = random.Random(seed)
    planted = b"startabcab" + b"b" * 14 + b"cend"
    return bytes(rng.choice(ALPHABET) for _ in range(length)) + planted


@pytest.fixture(scope="module")
def ruleset():
    return compile_ruleset(PATTERNS)


@pytest.fixture(scope="module")
def data():
    return make_data()


@pytest.fixture(scope="module")
def reference(ruleset, data):
    return RAPSimulator(DEFAULT_CONFIG).run(ruleset, data)


class TestDurableEqualsSequential:
    @pytest.mark.parametrize("backend", available_backends())
    def test_bit_identical_with_checkpoints(
        self, backend, ruleset, data, reference, tmp_path
    ):
        with use_backend(backend):
            config = EngineConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every_bytes=700
            )
            outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.result == reference
        assert outcome.ok
        assert outcome.checkpoints_written > 0
        assert outcome.bytes_scanned == len(data)
        # Completion clears the checkpoint directory.
        assert CheckpointStore(tmp_path)._paths() == []

    def test_without_checkpoint_dir(self, ruleset, data, reference):
        config = EngineConfig(checkpoint_every_bytes=1000)
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.result == reference
        assert outcome.checkpoints_written == 0

    def test_empty_input(self, ruleset):
        ref = RAPSimulator(DEFAULT_CONFIG).run(ruleset, b"")
        outcome = BatchEngine(EngineConfig()).durable_scan(ruleset, b"")
        assert outcome.result == ref


class TestResume:
    def _interrupt(self, ruleset, data, tmp_path, chunks: int, chunk: int):
        """Run part of a scan and leave its checkpoints behind."""
        sim = RAPSimulator(DEFAULT_CONFIG)
        scan = DurableScan(
            ruleset, sim.build_mapping(ruleset), DEFAULT_CONFIG
        )
        store = CheckpointStore(tmp_path)
        offset = 0
        for _ in range(chunks):
            end = min(offset + chunk, len(data))
            scan.feed(data[offset:end], at_end=(end == len(data)))
            offset = end
            store.write(scan.snapshot(), offset)
        return offset

    @pytest.mark.parametrize("backend", available_backends())
    def test_resume_is_bit_identical(
        self, backend, ruleset, data, reference, tmp_path
    ):
        with use_backend(backend):
            offset = self._interrupt(ruleset, data, tmp_path, chunks=4, chunk=700)
            config = EngineConfig(
                checkpoint_dir=str(tmp_path),
                checkpoint_every_bytes=700,
                resume=True,
            )
            outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.resumed_from == offset
        assert outcome.result == reference
        assert outcome.bytes_scanned == len(data) - offset

    def test_resume_without_checkpoints_starts_fresh(
        self, ruleset, data, reference, tmp_path
    ):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path),
            checkpoint_every_bytes=1000,
            resume=True,
        )
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.resumed_from is None
        assert outcome.result == reference

    def test_torn_latest_falls_back_to_previous(
        self, ruleset, data, reference, tmp_path
    ):
        self._interrupt(ruleset, data, tmp_path, chunks=3, chunk=500)
        newest = CheckpointStore(tmp_path)._paths()[-1]
        blob = newest.read_bytes().rstrip()  # the padding is not content
        newest.write_bytes(blob[: len(blob) // 2])
        config = EngineConfig(
            checkpoint_dir=str(tmp_path),
            checkpoint_every_bytes=500,
            resume=True,
        )
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.resumed_from == 1000  # the older intact checkpoint
        assert outcome.result == reference

    def test_fingerprint_mismatch_refuses_resume(self, ruleset, data, tmp_path):
        self._interrupt(ruleset, data, tmp_path, chunks=1, chunk=500)
        other = compile_ruleset(["different", "rules"])
        config = EngineConfig(checkpoint_dir=str(tmp_path), resume=True)
        with pytest.raises(CheckpointError):
            BatchEngine(config).durable_scan(other, data)

    def test_input_mismatch_refuses_resume(self, ruleset, data, tmp_path):
        self._interrupt(ruleset, data, tmp_path, chunks=1, chunk=500)
        config = EngineConfig(checkpoint_dir=str(tmp_path), resume=True)
        with pytest.raises(CheckpointError):
            BatchEngine(config).durable_scan(ruleset, b"Z" * len(data))


class TestInjectedFaults:
    def test_disk_full_counts_failure_and_completes(
        self, ruleset, data, reference, tmp_path
    ):
        config = EngineConfig(
            checkpoint_dir=str(tmp_path),
            checkpoint_every_bytes=1000,
            fault_plan="disk_full@0",
        )
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.result == reference
        assert outcome.checkpoint_failures == 1
        assert outcome.checkpoints_written > 0

    def test_torn_checkpoint_injection_then_resume(
        self, ruleset, data, reference, tmp_path
    ):
        # Tear the second write, kill before the fourth chunk; resume
        # must fall back to the first intact checkpoint... except the
        # torn one was pruned/evicted, so the older one carries it.
        sim = RAPSimulator(DEFAULT_CONFIG)
        scan = DurableScan(ruleset, sim.build_mapping(ruleset), DEFAULT_CONFIG)
        from repro.engine.faults import FaultPlan

        store = CheckpointStore(tmp_path, FaultPlan.parse("torn_checkpoint@1"))
        offset = 0
        for _ in range(2):
            end = offset + 800
            scan.feed(data[offset:end], at_end=False)
            offset = end
            store.write(scan.snapshot(), offset)
        config = EngineConfig(
            checkpoint_dir=str(tmp_path),
            checkpoint_every_bytes=800,
            resume=True,
        )
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.resumed_from == 800  # write 1 (offset 1600) was torn
        assert outcome.result == reference

    def test_kill_directive_sigkills_subprocess(self, tmp_path):
        """kill@N really delivers SIGKILL (run in a scratch process)."""
        code = (
            "from repro.engine import faults\n"
            "plan = faults.FaultPlan.parse('kill@1')\n"
            "faults.inject_chunk(0, plan)\n"
            "print('survived chunk 0', flush=True)\n"
            "faults.inject_chunk(1, plan)\n"
            "print('unreachable', flush=True)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == -signal.SIGKILL
        assert "survived chunk 0" in proc.stdout
        assert "unreachable" not in proc.stdout


class TestKillResumeEndToEnd:
    def test_sigkill_mid_scan_then_resume_matches_golden(self, tmp_path):
        """The CI durability leg, in-tree: golden run, SIGKILLed run,
        resumed run; stdout (matches) must be byte-identical."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(PATTERNS) + "\n")
        stream = tmp_path / "input.bin"
        stream.write_bytes(make_data(6000))
        ckpts = tmp_path / "ckpts"
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("RAP_FAULT_PLAN", None)
        base = [
            sys.executable,
            "-m",
            "repro",
            "scan",
            "--patterns",
            str(rules),
            str(stream),
            "--no-cache",
        ]
        durable = [
            *base,
            "--checkpoint-dir",
            str(ckpts),
            "--checkpoint-every",
            "1000",
        ]
        golden = subprocess.run(
            base, capture_output=True, text=True, env=env, cwd=repo
        )
        assert golden.returncode == 0, golden.stderr
        killed = subprocess.run(
            durable,
            capture_output=True,
            text=True,
            env=dict(env, RAP_FAULT_PLAN="kill@2"),
            cwd=repo,
        )
        assert killed.returncode in (-signal.SIGKILL, 137)
        assert CheckpointStore(ckpts)._paths(), "no checkpoint survived"
        resumed = subprocess.run(
            [*durable, "--resume"],
            capture_output=True,
            text=True,
            env=dict(env, RAP_FAULT_PLAN=""),
            cwd=repo,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == golden.stdout
        assert "resumed from checkpoint" in resumed.stderr


class TestBudgets:
    def test_fail_policy_raises(self, ruleset, data):
        config = EngineConfig(
            checkpoint_every_bytes=500, max_seconds=1e-9, degrade="fail"
        )
        with pytest.raises(BudgetExceededError):
            BatchEngine(config).durable_scan(ruleset, data)

    def test_shed_policy_quarantines_and_finishes(self, ruleset, data):
        config = EngineConfig(
            checkpoint_every_bytes=200, max_seconds=1e-9, degrade="shed"
        )
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert not outcome.ok
        assert len(outcome.quarantine) > 0
        entry = outcome.quarantine.entries[0]
        assert entry.phase == "degrade"
        assert entry.error_type == "BudgetExceededError"
        assert entry.pattern in PATTERNS

    def test_shed_respects_weights(self, ruleset, data):
        # Give one pattern a tiny weight: it must shed first.
        weights = {r.regex_id: 10.0 for r in ruleset}
        victim = ruleset.regexes[0]
        weights[victim.regex_id] = 0.1
        config = EngineConfig(
            checkpoint_every_bytes=2000, max_seconds=1e-9, degrade="shed"
        )
        outcome = BatchEngine(config).durable_scan(
            ruleset, data, weights=weights
        )
        shed_patterns = [e.pattern for e in outcome.quarantine.entries]
        assert victim.pattern in shed_patterns

    def test_budget_monitor_wall_clock(self):
        monitor = BudgetMonitor(ResourceBudget(max_seconds=0.01))
        assert monitor.check() is None or monitor.elapsed > 0.01
        time.sleep(0.02)
        pressure = monitor.check()
        assert "wall-clock" in str(pressure)
        assert pressure.limit == "max_seconds"

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_seconds=0)
        with pytest.raises(ValueError):
            ResourceBudget(max_rss_mb=-1)
        assert not ResourceBudget()
        assert ResourceBudget(max_seconds=1)
        validate_degrade("shed")
        with pytest.raises(ValueError):
            validate_degrade("panic")

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(degrade="panic")
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_every_bytes=0)


class TestCheckpointStore:
    def test_prunes_to_keep(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.write({"i": i}, offset=i * 100)
        assert len(store._paths()) == KEEP
        assert store.load_latest() == {"i": 4}

    def test_corrupt_entry_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"i": 0}, offset=100)
        store.write({"i": 1}, offset=200)
        newest = store._paths()[-1]
        doc = json.loads(newest.read_text())
        doc["payload"] = doc["payload"].replace("1", "2")
        newest.write_text(json.dumps(doc))  # checksum now wrong
        assert store.load_latest() == {"i": 0}
        assert store.discarded == 1
        assert not newest.exists()

    def test_all_corrupt_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"i": 0}, offset=100)
        for path in store._paths():
            path.write_text("garbage")
        assert store.load_latest() is None

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"i": 0}, offset=100)
        store.clear()
        assert store.load_latest() is None

    def test_empty_dir_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "missing").load_latest() is None


class TestDurableScanState:
    def test_snapshot_is_deterministic_json(self, ruleset, data):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        one = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        two = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        for scan in (one, two):
            scan.feed(data[:1000], at_end=False)
        dump = lambda s: json.dumps(s.snapshot(), sort_keys=True)  # noqa: E731
        assert dump(one) == dump(two)

    def test_restore_roundtrips_shed_state(self, ruleset, data):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        scan.feed(data[:1000], at_end=False)
        scan.shed(0.5, "test pressure")
        live_before = scan.live_units
        doc = json.loads(json.dumps(scan.snapshot()))
        restored = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        restored.restore(doc, data)
        assert restored.live_units == live_before
        assert len(restored.quarantine_entries) == len(scan.quarantine_entries)
        restored.feed(data[1000:], at_end=True)
        scan.feed(data[1000:], at_end=True)
        assert dataclasses.asdict(
            RAPSimulator(DEFAULT_CONFIG).run_from_activity(
                ruleset, restored.finish(), mapping
            ).metrics
        ) == dataclasses.asdict(
            RAPSimulator(DEFAULT_CONFIG).run_from_activity(
                ruleset, scan.finish(), mapping
            ).metrics
        )

    def test_shed_everything_freezes_scan(self, ruleset, data):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        scan.feed(data[:500], at_end=False)
        while scan.live_units:
            scan.shed(1.0, "pressure")
        activity = scan.finish()
        assert activity.input_symbols == 500


class TestSessionNamespacing:
    """Satellite: a shared checkpoint root is multi-writer safe."""

    def test_session_dirname_passthrough(self):
        assert session_dirname("tenant-1.s_2") == "tenant-1.s_2"

    def test_session_dirname_percent_encodes(self):
        assert session_dirname("t/s 1") == "t%2fs%201"
        assert "/" not in session_dirname("a/../../b")

    def test_session_dirname_truncates_without_collisions(self):
        a = session_dirname("x" * 100 + "a")
        b = session_dirname("x" * 100 + "b")
        assert a != b
        assert len(a) <= 64 and len(b) <= 64

    def test_multi_writer_prune_isolation(self, tmp_path):
        """Regression: two sessions sharing one root must never prune
        each other.  Un-namespaced, the low-offset writer's newest entry
        sorts below the neighbour's and KEEP-pruning deletes it right
        after commit."""
        low = CheckpointStore(tmp_path, session="low")
        high = CheckpointStore(tmp_path, session="high")
        for offset in (10_000, 20_000, 30_000):
            high.write({"who": "high", "offset": offset}, offset)
        low.write({"who": "low", "offset": 5}, 5)
        high.write({"who": "high", "offset": 40_000}, 40_000)
        assert low.load_latest() == {"who": "low", "offset": 5}
        assert high.load_latest() == {"who": "high", "offset": 40_000}

    def test_same_session_shares_one_namespace(self, tmp_path):
        writer = CheckpointStore(tmp_path, session="t/s")
        reader = CheckpointStore(tmp_path, session="t/s")
        writer.write({"n": 1}, 10)
        assert reader.load_latest() == {"n": 1}
        assert reader.root == writer.root


class TestStoreRecovery:
    """Satellite: load_latest with nothing intact left to load."""

    def test_only_corrupt_checkpoints_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, 100)
        store.write({"n": 2}, 200)
        stray = tmp_path / "NOTES.txt"
        stray.write_text("operator breadcrumb, not a checkpoint")
        for path in store._paths():
            path.write_text("{ torn")
        assert store.load_latest() is None
        assert store.discarded == 2
        # Corrupt entries are unlinked; unrelated files are untouched.
        assert store._paths() == [] and sorted(tmp_path.iterdir()) == [stray]
        assert stray.read_text() == "operator breadcrumb, not a checkpoint"

    def test_stray_json_is_not_parsed_as_a_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, 100)
        (tmp_path / "summary.json").write_text("not a checkpoint")
        assert store.load_latest() == {"n": 1}
        assert store.discarded == 0


def slot_order(path) -> list[int]:
    """The ``[offset, sequence]`` order key the slot at ``path`` holds."""
    return json.loads(envelope.load(path, **checkpoint.ENVELOPE))["order"]


@contextlib.contextmanager
def held_lock(root):
    """Another writer inside its critical section: a second open file
    description of the store directory holding the ``flock``."""
    fd = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


# Takes the store lock the way ``CheckpointStore._exclusive`` does, says
# so, and holds it until killed.
_LOCK_HOLDER = (
    "import fcntl, os, signal, sys\n"
    "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
    "fcntl.flock(fd, fcntl.LOCK_EX)\n"
    "print('held', flush=True)\n"
    "signal.pause()\n"
)


@contextlib.contextmanager
def lock_holder_process(root):
    holder = subprocess.Popen(
        [sys.executable, "-c", _LOCK_HOLDER, str(root)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        yield holder
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()


class TestStoreLocking:
    """Satellite: the write+prune critical section is serialized by a
    ``flock`` on the store directory — nothing on disk says who holds
    it, so nothing on disk can be stale."""

    def test_live_holder_times_out_the_writer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.1)
        store = CheckpointStore(tmp_path, session="t/s")
        store.root.mkdir(parents=True, exist_ok=True)
        with held_lock(store.root):
            with pytest.raises(OSError) as info:
                store.write({"n": 1}, 1)
        assert info.value.errno == errno.EWOULDBLOCK
        # What an operator can act on: where, whose, and how long.
        said = str(info.value)
        assert str(store.root) in said and "session=t/s" in said
        assert "locked by another writer" in said and "0.1 s" in said
        store.write({"n": 1}, 1)  # released: writes proceed again
        assert store.load_latest() == {"n": 1}

    def test_clear_survives_a_wedged_lock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.1)
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, 1)
        with held_lock(store.root):
            store.clear()  # must not raise: completion beats the lock
        assert store.load_latest() is None

    def test_killed_holder_releases_at_once(self, tmp_path, monkeypatch):
        """The kernel drops a dead holder's lock: no stamp to read, no
        liveness to probe, no staleness window to wait out."""
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.1)
        store = CheckpointStore(tmp_path)
        with lock_holder_process(tmp_path) as holder:
            with pytest.raises(OSError):
                store.write({"n": 0}, 0)  # it really is held
            holder.send_signal(signal.SIGKILL)
            holder.wait()
            started = time.monotonic()
            store.write({"n": 1}, 1)
            assert time.monotonic() - started < 1.0
        assert store.load_latest() == {"n": 1}

    def test_stopped_live_holder_keeps_the_lock(self, tmp_path, monkeypatch):
        """A holder that is alive but not running (SIGSTOP, stalled I/O)
        for however long still holds the lock: later writers time out —
        a counted failed checkpoint — and never enter beside it, however
        old anything in the directory looks."""
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.1)
        first = CheckpointStore(tmp_path)
        first.write({"n": 1}, 1)
        second = CheckpointStore(tmp_path)

        def an_hour_later_the_second_store_still_waits():
            long_ago = time.time() - 3600.0
            for entry in [*tmp_path.iterdir(), tmp_path]:
                os.utime(entry, (long_ago, long_ago))
            with pytest.raises(OSError) as info:
                second.write({"n": 2}, 2)
            assert info.value.errno == errno.EWOULDBLOCK

        with first._exclusive():  # two objects in one process...
            an_hour_later_the_second_store_still_waits()
        with lock_holder_process(tmp_path) as holder:  # ...a stopped process
            holder.send_signal(signal.SIGSTOP)
            an_hour_later_the_second_store_still_waits()
        assert second.load_latest() == {"n": 1}
        second.write({"n": 3}, 3)  # the holder is dead now
        assert second.load_latest() == {"n": 3}

    def test_failed_lock_is_a_counted_failed_checkpoint(
        self, ruleset, data, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.01)
        tmp_path.mkdir(exist_ok=True)
        engine = BatchEngine(
            EngineConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every_bytes=1500
            )
        )
        with held_lock(tmp_path):
            outcome = engine.durable_scan(ruleset, data)
        assert outcome.checkpoints_written == 0
        assert outcome.checkpoint_failures >= 2
        assert outcome.result == reference  # durability lost, never the scan

    # A writer whose every in-place write trips over a neighbour's: a
    # marker created with O_EXCL going in and removed coming out.
    _EXCLUDED_WRITER = (
        "import os, sys, time\n"
        "from repro.engine import checkpoint\n"
        "root, who = sys.argv[1], int(sys.argv[2])\n"
        "marker = os.path.join(os.path.dirname(root), 'inside')\n"
        "overwrite = checkpoint.envelope.overwrite\n"
        "def alone(*args, **kwargs):\n"
        "    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))\n"
        "    time.sleep(0.002)\n"
        "    try:\n"
        "        return overwrite(*args, **kwargs)\n"
        "    finally:\n"
        "        os.unlink(marker)\n"
        "checkpoint.envelope.overwrite = alone\n"
        "store = checkpoint.CheckpointStore(root)\n"
        "for n in range(25):\n"
        "    store.write({'who': who, 'n': n}, 2 * n + who)\n"
    )

    def test_two_writer_processes_never_overlap(self, tmp_path):
        root = tmp_path / "store"
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", self._EXCLUDED_WRITER, str(root), str(who)],
                stderr=subprocess.PIPE, text=True, cwd=repo,
                env=dict(os.environ, PYTHONPATH="src"),
            )
            for who in (0, 1)
        ]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err[-2000:]
        store = CheckpointStore(root)
        assert [slot_order(path)[0] for path in store._paths()] == [48, 49]
        assert store.load_latest() == {"who": 1, "n": 24}

    def test_no_lock_litter_and_no_descriptor_leak(self, tmp_path):
        store = CheckpointStore(tmp_path, session="s")
        store.write({"n": -1}, 0)  # directory made, imports warm
        before = len(os.listdir("/proc/self/fd"))
        for n in range(50):
            store.write({"n": n}, n + 1)
        assert sorted(p.name for p in store.root.iterdir()) == list(SLOTS)
        assert [slot_order(path)[0] for path in store._paths()] == [49, 50]
        store.clear()
        assert list(store.root.iterdir()) == []
        assert len(os.listdir("/proc/self/fd")) == before

    def test_writer_killed_at_any_step_never_wedges_the_store(
        self, tmp_path, monkeypatch
    ):
        """Every crash point of the one primitive, for the write that
        creates a slot and for the steady-state one: a writer killed
        entering any call of its write leaves the previous checkpoint or
        the new one as the latest — never neither — and holds nobody up
        afterwards."""
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.5)
        docs = [{"n": n, "pad": "x" * 64} for n in range(5)]
        durable = ("flock", "pwrite", "ftruncate", "fsync", "fdatasync")
        forbidden = {"replace", "mkstemp", "fdopen", "unlink", "mkdir", "utime"}

        def seeded(root, count):
            store = CheckpointStore(root)
            for n in range(count):
                store.write(docs[n], n)
            return store

        # seeded with one checkpoint the next write creates the second
        # slot; seeded with two, every later write is the steady state
        for count, label in ((1, "creating"), (2, "steady")):
            clean = seeded(tmp_path / f"clean-{label}", count)
            trace = persistence_trace(lambda: clean.write(docs[count], count))
            names = [name for name, _ in trace]
            assert not forbidden & set(names), names
            steps = [(name, args) for name, args in trace if name in durable]
            dirfd = steps[0][1][0]
            if label == "steady":
                # flock the directory, read two heads, overwrite one slot
                # in place, sync its data once, unlock by closing
                assert [name for name, _ in steps] == [
                    "flock", "pwrite", "fdatasync",
                ]
                assert [args[1:] for n, args in trace if n == "pread"] == [
                    (envelope.HEAD, 0)
                ] * 2
                assert names.count("open") == 4  # directory, two heads, the slot
            else:
                # a new file: fsync it, then the (locked) directory
                assert [name for name, _ in steps] == [
                    "flock", "pwrite", "fsync", "fsync",
                ]
                assert steps[2][1] != (dirfd,) and steps[3][1] == (dirfd,)
            assert trace[-1] == ("close", (dirfd,))
            assert clean.load_latest() == docs[count]

            written = names.index("pwrite")
            opened = written - 1  # the open that creates an absent slot
            assert names[opened] == "open"
            for k in range(len(trace)):
                store = seeded(tmp_path / f"killed-{label}-{k}", count)
                killed_at(k, lambda store=store: store.write(docs[count], count))
                assert sorted(p.name for p in store.root.iterdir()) == sorted(
                    SLOTS[: count + (k > opened)]
                ), k
                survivor = CheckpointStore(store.root)
                latest = count if k > written else count - 1  # new or previous
                assert survivor.load_latest() == docs[latest], k
                assert survivor.discarded == 0, k  # a process kill tears nothing
                started = time.monotonic()
                survivor.write(docs[4], 4)  # no wait: the lock died with its holder
                assert time.monotonic() - started < 0.5, k
                assert survivor.load_latest() == docs[4]
                assert len(survivor._paths()) == KEEP


def torn_write(store, doc, offset) -> None:
    """``store.write`` in a forked child that dies one sector into its
    ``pwrite`` — what a power cut mid-overwrite leaves: the head of the
    new slot, then the rest of the old one."""
    pid = os.fork()
    if pid == 0:
        whole = os.pwrite

        def sector(fd, data, position):
            whole(fd, data[:512], position)
            os._exit(9)

        os.pwrite = sector
        try:
            store.write(doc, offset)
        finally:
            os._exit(1)
    assert os.WEXITSTATUS(os.waitpid(pid, 0)[1]) == 9


class TestSlots:
    """Two slot files written in place: the slot overwritten is never the
    one holding the newest intact checkpoint, whatever the disk — not the
    writer's memory — says that is."""

    DOCS = [{"n": n, "pad": "x" * (1500 - 100 * n)} for n in range(5)]

    def _seeded(self, root):
        store = CheckpointStore(root)
        for n in (0, 1):
            store.write(self.DOCS[n], n)
        return store

    def test_torn_overwrite_at_every_sector(self, tmp_path):
        seeded = self._seeded(tmp_path / "seed")
        slots = seeded._slots
        old, other = (path.read_bytes() for path in slots)
        assert seeded.write(self.DOCS[2], 2) == slots[0]
        new = slots[0].read_bytes()
        assert len(old) == len(new) == envelope.BLOCK
        cuts = [*range(513), *range(1024, len(new), 512)]
        seen = set()
        for k in cuts:
            root = tmp_path / f"cut-{k}"
            root.mkdir()
            torn = new[:k] + old[k:]
            (root / SLOTS[0]).write_bytes(torn)
            (root / SLOTS[1]).write_bytes(other)
            store = CheckpointStore(root)
            # old (the cut fell inside what both share), new (it fell in
            # the padding) or neither: then the other slot carries on
            state = {old: "old", new: "new"}.get(torn, "torn")
            seen.add(state)
            assert store.load_latest() == self.DOCS[2 if state == "new" else 1], k
            assert store.discarded == (state == "torn"), k
            assert (root / SLOTS[0]).exists() == (state != "torn"), k
            landed = store.write(self.DOCS[3], 3)
            assert landed == root / SLOTS[state == "new"], k
            assert store.load_latest() == self.DOCS[3]
            assert len(store._paths()) == KEEP
        assert seen == {"old", "new", "torn"}

    def test_grow_and_shrink_across_a_block(self, tmp_path):
        store = CheckpointStore(tmp_path)
        small = [{"n": n, "pad": "s" * 1000} for n in range(4)]
        big = {"n": "big", "pad": "b" * 9000}
        one, three = envelope.BLOCK, 3 * envelope.BLOCK
        expected = [[one], [one, one], [three, one], [three, one], [one, one]]
        for offset, doc in enumerate([small[0], small[1], big, small[2], small[3]]):
            trace = persistence_trace(lambda: store.write(doc, offset))
            # only the write that shrinks a slot truncates it
            truncated = [args[1] for name, args in trace if name == "ftruncate"]
            assert truncated == ([one] if doc is small[3] else []), offset
            present = [path for path in store._slots if path.exists()]
            assert [path.stat().st_size for path in present] == expected[offset]
            for path in present:  # one document, then padding: no stale tail
                assert json.loads(path.read_text())["payload"]
                assert path.read_bytes().rstrip(b"\n").endswith(b'"}')
            fresh = CheckpointStore(tmp_path)
            assert fresh.load_latest() == doc
            assert len(fresh._paths()) == len(present) and fresh.discarded == 0
        assert store.bytes_written == 4 * one + three

    def test_same_offset_twice_the_later_write_wins(self, tmp_path):
        store = self._seeded(tmp_path)
        first = store.write({"gen": 1}, 7)
        second = store.write({"gen": 2}, 7)  # e.g. a reload at a boundary
        assert first != second
        assert CheckpointStore(tmp_path).load_latest() == {"gen": 2}
        assert [slot_order(p)[0] for p in store._paths()] == [7, 7]

    def test_double_fault_leaves_an_intact_checkpoint(self, tmp_path):
        """Writer X dies mid-overwrite; writer Y, which wrote before X
        came and never reloaded, dies mid-overwrite too.  Y must pick its
        victim off the disk: its memory (and a plain toggle) says slot 0
        is next, where the only intact checkpoint now lives."""
        y = self._seeded(tmp_path)
        x = CheckpointStore(tmp_path)
        assert x.load_latest() == self.DOCS[1]
        assert x.write(self.DOCS[2], 2) == tmp_path / SLOTS[0]
        torn_write(x, self.DOCS[3], 3)  # X dies over slot 1
        assert y._known is not None  # Y still believes what it wrote
        torn_write(y, self.DOCS[4], 4)
        survivor = CheckpointStore(tmp_path)
        assert survivor.load_latest() == self.DOCS[2]
        assert survivor.discarded == 1
        assert survivor.write(self.DOCS[4], 4) == tmp_path / SLOTS[1]

    def test_failed_write_forgets_the_slots(self, tmp_path, monkeypatch):
        store = self._seeded(tmp_path)
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: len(data) // 2)
        with pytest.raises(OSError) as info:
            store.write(self.DOCS[2], 2)
        assert info.value.errno == errno.ENOSPC
        assert store._known is None
        monkeypatch.undo()
        # the next write verifies both slots in full before choosing
        reads = [
            name
            for name, _ in persistence_trace(lambda: store.write(self.DOCS[3], 3))
            if name in ("pread", "fdopen", "pwrite")
        ]
        assert reads.count("pread") == 2 and reads[-1] == "pwrite"
        assert store.load_latest() == self.DOCS[3]
        assert [slot_order(p)[0] for p in store._paths()] == [1, 3]

    def test_reader_beside_a_writer_waits_and_unlinks_nothing(
        self, tmp_path, monkeypatch
    ):
        """An in-place write is visible half done, so a load must not
        run beside one: it would unlink the slot as corrupt."""
        store = self._seeded(tmp_path)
        torn_write(store, self.DOCS[2], 2)  # slot 0 as a writer mid-write shows it
        reader = CheckpointStore(tmp_path)
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 0.1)
        with lock_holder_process(tmp_path):
            with pytest.raises(CheckpointError) as info:
                reader.load_latest()
            assert "locked by another writer" in str(info.value)
            assert reader.discarded == 0 and (tmp_path / SLOTS[0]).exists()
        monkeypatch.setattr(checkpoint, "LOCK_TIMEOUT_SECONDS", 5.0)
        with lock_holder_process(tmp_path) as holder:
            release = threading.Timer(0.3, holder.kill)
            release.start()
            started = time.monotonic()
            assert reader.load_latest() == self.DOCS[1]  # it waited
            assert 0.25 < time.monotonic() - started < 4.0
            release.join()
        # the holder is dead: what it left torn is discarded now
        assert reader.discarded == 1 and not (tmp_path / SLOTS[0]).exists()

    def test_old_layout_is_warned_about_and_swept(self, tmp_path, caplog):
        root = tmp_path / "ck"
        root.mkdir()
        litter = [f"ckpt-{offset:016d}.json" for offset in (100, 200, 300)]
        litter += [".ckpt-00000000000-abc123.tmp", ".ckpt-00000000000-def456.tmp"]
        for name in litter:
            (root / name).write_text("{}")
        (root / "NOTES.txt").write_text("operator breadcrumb")
        store = CheckpointStore(root)
        with caplog.at_level(logging.WARNING, logger=checkpoint.__name__):
            assert store.load_latest() is None
        (record,) = caplog.records
        said = record.getMessage()
        assert "3 checkpoint file(s)" in said and str(root) in said
        assert "restarts from byte 0" in said
        caplog.clear()
        store.write({"n": 1}, 1)
        with caplog.at_level(logging.WARNING, logger=checkpoint.__name__):
            assert store.load_latest() == {"n": 1}  # an intact slot: no noise
        assert not caplog.records
        store.clear()
        assert [p.name for p in root.iterdir()] == ["NOTES.txt"]

    def test_resume_over_an_old_layout_restarts_with_one_warning(
        self, ruleset, data, reference, tmp_path, caplog
    ):
        (tmp_path / "ckpt-0000000000001000.json").write_text("{}")
        config = EngineConfig(
            checkpoint_dir=str(tmp_path), checkpoint_every_bytes=1000, resume=True
        )
        with caplog.at_level(logging.WARNING, logger=checkpoint.__name__):
            outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.resumed_from is None and outcome.result == reference
        assert len(caplog.records) == 1
        assert list(tmp_path.iterdir()) == []  # swept on completion

    def test_the_outcome_says_what_durability_cost(
        self, ruleset, data, tmp_path, capsys
    ):
        from repro.cli import main

        config = EngineConfig(checkpoint_dir=str(tmp_path), checkpoint_every_bytes=1000)
        outcome = BatchEngine(config).durable_scan(ruleset, data)
        assert outcome.checkpoints_written == 4
        assert outcome.checkpoint_bytes % envelope.BLOCK == 0
        assert outcome.checkpoint_bytes >= 4 * envelope.BLOCK
        assert 0 < outcome.checkpoint_sync_seconds < 5.0
        rules = tmp_path / "rules.txt"
        rules.write_text("\n".join(PATTERNS) + "\n")
        stream = tmp_path / "input.bin"
        stream.write_bytes(data)
        args = ["scan", "--patterns", str(rules), str(stream), "--no-cache"]
        args += ["--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "1000"]
        assert main(args) == 0
        assert re.search(
            r"^# checkpoints: 4 written \(\d+\.\d KiB, \d+\.\d ms in sync\), 0 failed$",
            capsys.readouterr().err,
            re.MULTILINE,
        )


class TestDetachedResume:
    """Satellite: resuming without the consumed prefix bytes (the
    streaming service's cross-worker handoff)."""

    def test_detached_continuation_is_bit_identical(
        self, ruleset, data, reference
    ):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        first = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        split = len(data) // 2
        first.feed(data[:split], at_end=False)
        doc = json.loads(json.dumps(first.snapshot()))
        resumed = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        resumed.restore_detached(doc)
        assert resumed.offset == split
        resumed.feed(data[split:], at_end=True)
        result = sim.run_from_activity(ruleset, resumed.finish(), mapping)
        assert dataclasses.asdict(result.metrics) == dataclasses.asdict(
            reference.metrics
        )

    def test_restore_refuses_detached_documents(self, ruleset, data):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        scan.feed(data[:1000], at_end=False)
        detached = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        detached.restore_detached(scan.snapshot())
        doc = detached.snapshot()
        assert doc["detached"] is True
        fresh = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        with pytest.raises(CheckpointError, match="detached"):
            fresh.restore(doc, data)
        # The detached lineage itself keeps resuming fine.
        again = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        again.restore_detached(doc)
        assert again.offset == 1000

    def test_detached_chain_digest_binds_the_byte_sequence(
        self, ruleset, data
    ):
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        scan.feed(data[:1000], at_end=False)
        doc = scan.snapshot()

        def continue_with(segment):
            resumed = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            resumed.restore_detached(doc)
            resumed.feed(segment, at_end=False)
            return resumed.snapshot()["input_sha"]

        same = continue_with(data[1000:2000])
        identical = continue_with(data[1000:2000])
        diverged = continue_with(b"x" * 1000)
        assert same == identical
        assert same != diverged


# -- the fused plan under durable scans ---------------------------------------

PLANNED_BACKENDS = [b for b in ("fused", "native") if b in available_backends()]

# Five rulesets, one short witness stream each.  The NFA, DFA and NBVA
# sets repeat a pattern so two regexes share one unit of the plan; the
# NFA, NBVA and LNFA sets carry both anchors, and their streams end on
# the end-anchored witness so that final must fire on the last byte and
# nowhere else.  The LNFA set packs three bins, the first wider than one
# 64-bit lane (regexes 5, 0, 1, 6 / 4, 3 / 2).
LNFA_ONLY = [
    "needle", "needle", "^ab.d", "mark[e3]r", "(?i)hello", "..end$",
    "a" + "bc" * 20 + "d",
]
LNFA_STREAM = (
    b"abxd needle mark3r HeLLo a" + b"bc" * 20 + b"d marker needles.xxend"
)
NFA_ONLY = ["ab*c", "ab*c", "x[yz]+w$", "^ab", "q.*r"]
NFA_STREAM = b"abc.abbbc xyzw q..r.abbc..xyyw"
DFA_FORCED = ["ab*c", "ab*c", "foo[0-9]*bar", "q.*r"]
DFA_STREAM = b"abc.abbbc foo42bar q..r.ac foobar"
NBVA_FORCED = ["ab{20}c", "ab{20}c", "x[yz]{2,70}w", "^q.{0,100}r$"]
NBVA_STREAM = b"q.a" + b"b" * 20 + b"c.xyzzyw.ab" + b"b" * 21 + b"c.xyw..r"
MIX_STREAM = (
    b"..p7/p&rxx&&jn?..9/8xiq..gsef9zzb7..a1k=rkebm..86chl--z/vwfkn."
)


def _plan_ruleset(name: str):
    from repro.compiler import CompiledMode, CompilerConfig
    from repro.workloads.datasets import generate_benchmark

    if name == "lnfa":
        return compile_ruleset(LNFA_ONLY), LNFA_STREAM
    if name == "nfa":
        config = CompilerConfig(forced_mode=CompiledMode.NFA)
        return compile_ruleset(NFA_ONLY, config), NFA_STREAM
    if name == "dfa":
        config = CompilerConfig(forced_mode=CompiledMode.DFA)
        return compile_ruleset(DFA_FORCED, config), DFA_STREAM
    if name == "nbva":
        config = CompilerConfig(forced_mode=CompiledMode.NBVA)
        return compile_ruleset(NBVA_FORCED, config), NBVA_STREAM
    # The paper's Fig. 1 mix (Snort, 16 regexes: NBVA + NFA + LNFA).
    patterns = list(generate_benchmark("Snort", 16).patterns)
    return compile_ruleset(patterns), MIX_STREAM


def _collector_docs(scan: DurableScan) -> bytes:
    """A snapshot's canonical bytes, minus the one field allowed to
    differ across backends."""
    doc = scan.snapshot()
    del doc["fingerprint"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
@pytest.mark.parametrize("name", ["lnfa", "nfa", "dfa", "nbva", "mix"])
class TestPlanDifferential:
    """``durable_scan`` ≡ ``scan`` ≡ the ``python`` oracle, with every
    collector document byte-identical at every possible checkpoint."""

    def _oracle(self, ruleset, mapping, data, **kwargs):
        """Per-offset snapshot bytes and the final activity of the
        python-backend durable scan (fed a byte at a time: the segment
        contract makes that equal to any other segmentation)."""
        docs = {}
        with use_backend("python"):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG, **kwargs)
            for offset in range(1, len(data)):
                scan.feed(data[offset - 1 : offset], at_end=False)
                docs[offset] = _collector_docs(scan)
            scan.feed(data[-1:], at_end=True)
            return docs, scan.finish()

    def test_every_seam_and_restore(self, name, backend):
        ruleset, data = _plan_ruleset(name)
        sim = RAPSimulator(DEFAULT_CONFIG)
        mapping = sim.build_mapping(ruleset)
        docs, final = self._oracle(ruleset, mapping, data)
        with use_backend("python"):
            reference = sim.run(ruleset, data)
        assert any(reference.matches.values())
        if name == "lnfa":
            assert all(r.mode.value == "LNFA" for r in ruleset)
            assert reference.matches[5] == [len(data) - 1]
            assert all(reference.matches[rid] for rid in range(7))
        if name == "nfa":  # the end-anchored final fired, on the last byte
            assert reference.matches[2] == [len(data) - 1]
        if name == "nbva":
            assert all(r.mode.value == "NBVA" for r in ruleset)
            assert reference.matches[3] == [len(data) - 1]
            assert all(reference.matches[rid] for rid in range(4))

        with use_backend(backend):
            assert sim.run(ruleset, data) == reference
            config = EngineConfig(checkpoint_every_bytes=7)
            assert BatchEngine(config).durable_scan(ruleset, data).result == (
                reference
            )

            # Every byte its own segment: a checkpoint at every offset.
            stepped = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            if backend == "native":  # no silent NBVA fallback to compare
                fused = stepped._plan.fused
                assert all(
                    fused._native_scanner().has_nbva(unit)
                    for unit in range(fused.nbva_count)
                )
            for offset in range(1, len(data)):
                stepped.feed(data[offset - 1 : offset], at_end=False)
                assert _collector_docs(stepped) == docs[offset], offset
            stepped.feed(data[-1:], at_end=True)
            assert stepped.finish() == final

            # One seam at every offset, with and without a JSON
            # snapshot -> restore into a fresh scan at the seam.
            for cut in range(1, len(data)):
                scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
                scan.feed(data[:cut], at_end=False)
                assert _collector_docs(scan) == docs[cut], cut
                resumed = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
                resumed.restore(json.loads(json.dumps(scan.snapshot())), data)
                for continued in (scan, resumed):
                    continued.feed(data[cut:], at_end=True)
                    assert continued.finish() == final, cut

    def test_shed_regex_sharing_a_unit(self, name, backend):
        # Regex 1 is the lowest-weight unit, so it is the one shed; in
        # the NFA, DFA and NBVA sets it shares its unit with regex 0,
        # which must keep scanning (and keep its own state) unaffected.
        # In the LNFA set its whole bin goes, and the two other bins
        # stay on the lane machine (test_shed_bin_stays_on_the_lane_machine).
        ruleset, data = _plan_ruleset(name)
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        cut = len(data) // 3
        victim = ("bin", 0, 0) if name == "lnfa" else ("regex", 1)

        def degraded(which):
            with use_backend(which):
                scan = DurableScan(
                    ruleset, mapping, DEFAULT_CONFIG, weights={1: 0.1}
                )
                scan.feed(data[:cut], at_end=False)
                assert scan.shed(1e-9, "test pressure") == [victim]
                scan.feed(data[cut : 2 * cut], at_end=False)
                mid = _collector_docs(scan)
                scan.feed(data[2 * cut :], at_end=True)
                return mid, scan.finish()

        assert degraded(backend) == degraded("python")

    def test_input_jobs_2(self, name, backend, tmp_path):
        ruleset, data = _plan_ruleset(name)
        data = data * 6
        with use_backend("python"):
            reference = RAPSimulator(DEFAULT_CONFIG).run(ruleset, data)
        engine = BatchEngine(
            EngineConfig(
                backend=backend,
                input_jobs=2,
                min_chunk_bytes=16,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_bytes=len(data) // 2 + 1,
            )
        )
        assert engine.scan(ruleset, data) == reference
        outcome = engine.durable_scan(ruleset, data)
        assert outcome.result == reference
        assert outcome.checkpoints_written == 1


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
def test_shed_bin_stays_on_the_lane_machine(backend, monkeypatch):
    """Shedding a bin must not drop the live bins onto the per-byte
    python collectors: the packed machine keeps stepping them, the shed
    bin's delta is dropped, and what the live bins accumulate is what
    an unshed scan accumulates for them.  Nor onto the walker: a shed
    bin entering empty beside live neighbours is no state of their
    *joint* table (``keywords64``: four bins, one group), so the compiled
    kernel takes every segment once ``warm`` bytes have been walked."""
    from benchmarks.ledger.workloads import keyword_patterns
    from repro.core.native import NativeLaneScanner
    from repro.core.table import StepTable
    from repro.simulators.activity import BinActivityCollector
    from repro.simulators.fused import FusedLaneScanner
    from repro.workloads.inputs import generate_input

    spans, kernel, walked = [], [], []
    lane_scan, native_scan, walk = (
        FusedLaneScanner.scan, NativeLaneScanner.scan, StepTable.walk
    )

    def counted(self, segment, **kwargs):
        spans.append(len(segment))
        depth = len(spans)
        try:
            return lane_scan(self, segment, **kwargs)
        finally:
            del spans[depth:]  # a span handing itself on in parts counts once

    def compiled(self, segment, **kwargs):
        scanned = native_scan(self, segment, **kwargs)
        kernel.append((len(segment), scanned is not None))
        return scanned

    def stepped(self, cls, *args, **kwargs):
        walked.append(len(cls))
        return walk(self, cls, *args, **kwargs)

    def per_byte_oracle(self, segment, **kwargs):
        raise AssertionError("a planned backend fed a bin collector directly")

    monkeypatch.setattr(FusedLaneScanner, "scan", counted)
    monkeypatch.setattr(NativeLaneScanner, "scan", compiled)
    monkeypatch.setattr(StepTable, "walk", stepped)
    monkeypatch.setattr(BinActivityCollector, "feed", per_byte_oracle)
    for name in ("lnfa", "keywords64"):
        if name == "lnfa":
            ruleset, data = _plan_ruleset("lnfa")
        else:
            ruleset = compile_ruleset(keyword_patterns())
            data = generate_input(
                "network", 9000, seed=6, patterns=keyword_patterns(), plant_every=40
            )
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        cut = len(data) // 3
        with use_backend(backend):
            whole = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            shed = DurableScan(ruleset, mapping, DEFAULT_CONFIG, weights={1: 0.1})
            for scan in (whole, shed):
                scan.feed(data[:cut], at_end=False)
            ((kind, *victim),) = shed.shed(1e-9, "test pressure")
            assert kind == "bin"
            victim = tuple(victim)  # (0, 0) of "lnfa": the bin holding regex 1
            frozen = shed._bins[victim].snapshot()
            for scan in (whole, shed):
                del spans[:], kernel[:], walked[:]
                scan.feed(data[cut : 2 * cut], at_end=False)
                scan.feed(data[2 * cut :], at_end=True)
                assert spans == [cut, len(data) - 2 * cut]
                if backend == "native":
                    warm = scan._plan.scanner.warm
                    # each segment reached the kernel, all but <= warm bytes of it
                    done = [size for size, taken in kernel if taken]
                    assert len(done) == 2 and sum(done) >= len(data) - cut - 2 * warm
                    assert not walked or max(walked) <= warm
                    assert len(walked) <= 2 * len(shed._bins)
        if (name, backend) == ("keywords64", "native"):
            assert shed._plan.scanner.lane_tier.endswith("1 group of 4 bins)")
            assert walked  # the foreign-entry path ran: (live, 0) is no joint state
        live = [key for key in shed._bins if key != victim]
        assert len(live) == len(shed._bins) - 1 >= 2
        for key in live:
            assert shed._bins[key].snapshot() == whole._bins[key].snapshot()
            assert shed._bins[key].activity() == whole._bins[key].activity()
        assert shed._bins[victim].snapshot() == frozen
        assert whole._bins[victim].snapshot() != frozen


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
class TestPlanFingerprint:
    """What rolls over when durable scans move onto the full plan, and
    what must not."""

    def _bins_only_fingerprint(self, ruleset, mapping, native: bool) -> str:
        """The pre-plan recipe: a FusedRuleset over the bins alone."""
        from repro.core import NATIVE_FORMAT_VERSION
        from repro.core.fused import FusedRuleset
        from repro.io.serialize import scan_fingerprint
        from repro.simulators.activity import BinActivityCollector

        programs = [
            BinActivityCollector(bin_obj, DEFAULT_CONFIG).layout.packed.program
            for _, _, bin_obj in mapping.lnfa_bins()
        ]
        layout = FusedRuleset(programs).signature
        if native:
            layout += f":native{NATIVE_FORMAT_VERSION}"
        return scan_fingerprint(
            ruleset, DEFAULT_CONFIG, None, fused_layout=layout
        )

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_keyword_rulesets_keep_their_fingerprint(self, backend):
        from repro.compiler import CompiledMode

        ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        assert all(r.mode is CompiledMode.LNFA for r in ruleset)
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        assert scan.fingerprint == self._bins_only_fingerprint(
            ruleset, mapping, native=backend == "native"
        )

    def test_backend_flip_between_scans_rebinds(self, monkeypatch):
        # One ruleset and mapping *object* scanned under fused, native,
        # disabled native and fused again: each scan runs the binding of
        # the backend in force at that moment, so the fingerprint suffix
        # follows the flips exactly as the fresh-object tests above pin.
        from repro.core.native import NATIVE_DISABLE_ENV

        if "native" not in PLANNED_BACKENDS:
            pytest.skip("native backend not available")
        ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        fused_fp, native_fp = (
            self._bins_only_fingerprint(ruleset, mapping, native=native)
            for native in (False, True)
        )

        def scanned(backend: str):
            with use_backend(backend):
                return DurableScan(ruleset, mapping, DEFAULT_CONFIG)

        first = scanned("fused")
        assert first.fingerprint == fused_fp
        native = scanned("native")
        assert native.fingerprint == native_fp
        assert native._plan is not first._plan
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        assert scanned("native").fingerprint == fused_fp
        monkeypatch.delenv(NATIVE_DISABLE_ENV)
        assert scanned("native")._plan is native._plan
        assert scanned("fused")._plan is first._plan

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_mixed_ruleset_refuses_the_bins_only_fingerprint(
        self, backend, ruleset, data
    ):
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        old = self._bins_only_fingerprint(
            ruleset, mapping, native=backend == "native"
        )
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            assert scan.fingerprint != old
            scan.feed(data[:1000], at_end=False)
            doc = scan.snapshot()
            doc["fingerprint"] = old
            fresh = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            with pytest.raises(CheckpointError, match="different scan"):
                fresh.restore(doc, data)
            with pytest.raises(CheckpointError, match="different scan"):
                fresh.restore_detached(doc)


    # As of the commit before NBVA units joined the plan (0e1bad8):
    # name -> backend -> (scan_fingerprint, keys of the generated unit
    # and lane sources).  Rulesets without an NBVA unit must keep every
    # one of these — their checkpoints stay resumable and their cached
    # ``.so``s stay valid; the NBVA-bearing mix rolls over, once.  The
    # exceptions are source keys, never fingerprints — checkpoints
    # written before any of the changes still resume: lane keys (the
    # second of a pair) and unit keys (the first of the ``nfa`` / ``dfa``
    # pairs) are as of the kernels reading raw bytes through their own
    # class map (the lane kernel's grouped, packed tables rolled with it).
    PRE_NBVA = {
        "lnfa": {
            "fused": ("4f5be8323cd28222", []),
            "native": (
                "e87b5ba8a30b3da0",
                ["e3b0c44298fc1c14", "5ebdaa6b77e8e9d5"],
            ),
        },
        "nfa": {
            "fused": ("847ce74d3258c81f", []),
            "native": ("fcae215c15995b75", ["8ab0980cecee8672"]),
        },
        "dfa": {
            "fused": ("ecb415f0c230b1ad", []),
            "native": ("16aabb5461a7af58", ["bf643796d7d44708"]),
        },
        "mix": {
            "fused": ("3d74adbffc70473a", []),
            "native": (
                "9ecb192f498d9771",
                ["6a7366b3aa41bf05", "f554109919781123"],
            ),
        },
    }

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    @pytest.mark.parametrize("name", ["lnfa", "nfa", "dfa", "mix"])
    def test_only_nbva_bearing_rulesets_roll_over(self, name, backend):
        from repro.core import codegen
        from repro.core.native import source_key

        if name == "lnfa":
            ruleset = compile_ruleset(["needle", "marker", "hello|world"])
            data = b"a needle, a marker, hello"
        else:
            ruleset, data = _plan_ruleset(name)
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        old_fingerprint, old_keys = self.PRE_NBVA[name][backend]
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            plan = scan._plan
            keys = []
            if backend == "native":
                keys.append(source_key(codegen.unit_scan_source(plan.fused)))
                if plan.scanner is not None:
                    assert plan.scanner.native_active
                    keys.append(source_key(plan.scanner._native._source))
            keys = [key[:16] for key in keys]
            if name != "mix":
                assert scan.fingerprint[:16] == old_fingerprint
                assert keys == old_keys
                return
            assert scan.fingerprint[:16] != old_fingerprint
            assert not set(keys) & set(old_keys)
            scan.feed(data[:20], at_end=False)
            doc = scan.snapshot()
            doc["fingerprint"] = old_fingerprint
            fresh = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            with pytest.raises(CheckpointError, match="different scan"):
                fresh.restore(doc, data)

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_lane_source_key_ignores_what_was_walked_first(self, backend):
        """Closure ids are pure breadth-first order: portable scans of
        the plan — one from an entry word no scan produces — before the
        source is emitted do not move the pinned key."""
        from repro.core import codegen
        from repro.core.native import source_key

        ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        pinned = self.PRE_NBVA["lnfa"]["native"][1][1]
        with use_backend(backend):
            plan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)._plan
            scanner, fused = plan.scanner, plan.fused
            foreign = fused.pack([(1 << width) - 1 for width in fused.widths])
            walked = sum(map(len, scanner.lane_dfas()))
            scanner.scan(b"a needle", entry=foreign, fresh=False, at_end=False)
            scanner.scan(b"a needle, a marker, hello", fresh=True, at_end=True)
            assert sum(map(len, scanner.lane_dfas())) > walked
            masks = [layout.tile_masks for layout in plan.layouts]
            kernel = codegen.lane_scan_source(fused, masks)
            assert source_key(kernel.source)[:16] == pinned
            if backend == "native":
                assert source_key(scanner._native._source)[:16] == pinned
