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
import functools
import hashlib
import itertools
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

from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
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
from tests.conformance import cells
from tests.conformance.cells import Case
from tests.helpers import killed_at, persistence_trace, shimmed_persistence

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
        """``ENOSPC`` from the ``k``-th ``pwrite``: that checkpoint is a
        counted failure, and the scan finishes identically."""
        for k in range(3):
            pwrites = itertools.count()

            def full(_index, name, _args, k=k):
                if name == "pwrite" and next(pwrites) == k:
                    raise OSError(errno.ENOSPC, "no space left on device")

            config = EngineConfig(
                checkpoint_dir=str(tmp_path / str(k)), checkpoint_every_bytes=1000
            )
            with shimmed_persistence(full):
                outcome = BatchEngine(config).durable_scan(ruleset, data)
            assert outcome.result == reference
            assert outcome.checkpoint_failures == 1
            assert outcome.checkpoints_written > 0

    def test_torn_checkpoint_injection_then_resume(
        self, ruleset, data, reference, tmp_path
    ):
        # The second write torn one sector into its pwrite (a power cut
        # mid-overwrite): resume falls back to the first, intact one.
        sim = RAPSimulator(DEFAULT_CONFIG)
        scan = DurableScan(ruleset, sim.build_mapping(ruleset), DEFAULT_CONFIG)
        store = CheckpointStore(tmp_path)
        scan.feed(data[:800], at_end=False)
        store.write(scan.snapshot(), 800)
        scan.feed(data[800:1600], at_end=False)
        torn_write(store, scan.snapshot(), 1600)
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


def _as_version_two(doc):
    """``doc`` as the build that kept BV-cycle positions wrote it: every
    version field 2, no ``stalls``, positions in every NBVA collector's
    stats — refused by its version alone."""
    if isinstance(doc, list):
        return [_as_version_two(item) for item in doc]
    if not isinstance(doc, dict):
        return doc
    old = {key: _as_version_two(value) for key, value in doc.items()}
    old.pop("stalls", None)
    for key in ("version", "serve_version"):
        if key in old:
            old[key] = 2
    if "bv_phase_cycles" in old:
        old["bv_cycle_indices"] = list(range(old["bv_phase_cycles"]))
    return old


def _skeleton(doc):
    """``doc`` without its history: match ends and live vectors dropped,
    every number 0 and every string empty."""
    if isinstance(doc, dict):
        return {
            key: [] if key in ("matches", "vectors") else _skeleton(value)
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [_skeleton(item) for item in doc]
    return 0 if isinstance(doc, int) else "" if isinstance(doc, str) else doc


class TestBoundedState:
    @pytest.mark.skipif(
        "native" not in available_backends(), reason="native backend not available"
    )
    def test_nbva_state_does_not_grow(self):
        """A native durable scan of the mix, 64 KiB and then 1 MiB in:
        its document minus match ends is the same size at both points
        (numbers and live vectors aside) — each NBVA array's stalls are
        one count, and no BV-cycle position is kept."""
        from benchmarks.ledger.workloads import RULESETS
        from repro.workloads.inputs import generate_input

        patterns = RULESETS["snort_mix16"]()
        data = generate_input(
            "network", 1 << 20, seed=1, patterns=patterns, plant_every=600
        )
        ruleset = compile_ruleset(patterns)
        texts, at = [], 0
        with use_backend("native"):
            mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            for point in (64 << 10, 1 << 20):
                for start in range(at, point, 4096):
                    scan.feed(data[start : start + 4096], at_end=False)
                at = point
                texts.append(json.dumps(scan.snapshot()))
        early, late = (json.loads(text) for text in texts)
        assert len(json.dumps(_skeleton(early))) == len(json.dumps(_skeleton(late)))
        assert "bv_cycle_indices" not in texts[1]
        ((index, stalls),) = late["stalls"]
        assert stalls > early["stalls"][0][1] > 0

    def test_a_version_two_document_is_refused(self, ruleset, data):
        """The document of the build that kept positions is refused by
        its version, both by a restore and by a detached resume."""
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
        scan.feed(data[:1000], at_end=False)
        old = _as_version_two(json.loads(json.dumps(scan.snapshot())))
        assert old["regex"] and "stalls" not in old
        said = "unsupported checkpoint version 2 (this build reads 3)"
        with pytest.raises(CheckpointError, match=re.escape(said)):
            DurableScan(ruleset, mapping, DEFAULT_CONFIG).restore(old, data)
        with pytest.raises(CheckpointError, match=re.escape(said)):
            DurableScan(ruleset, mapping, DEFAULT_CONFIG).restore_detached(old)


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
    return json.loads(envelope.load(path, format=checkpoint.CHECKPOINT_FORMAT))["order"]


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


# name -> the forced tier of its set (the LNFA set compiles there
# unforced; "mix" is the Fig. 1 mix over MIX_STREAM, unforced).
PLAN_SETS = {
    "lnfa": (LNFA_ONLY, LNFA_STREAM, None),
    "nfa": (NFA_ONLY, NFA_STREAM, CompiledMode.NFA),
    "dfa": (DFA_FORCED, DFA_STREAM, CompiledMode.DFA),
    "nbva": (NBVA_FORCED, NBVA_STREAM, CompiledMode.NBVA),
}


@functools.cache
def _plan_case(name: str) -> Case:
    """One of the five sets as a conformance-matrix case."""
    if name == "mix":
        from repro.workloads.datasets import generate_benchmark

        return Case(generate_benchmark("Snort", 16).patterns, MIX_STREAM)
    patterns, stream, mode = PLAN_SETS[name]
    return Case(patterns, stream, compiler=CompilerConfig(forced_mode=mode))


def _plan_ruleset(name: str):
    """A newly compiled ruleset of one set, and its stream."""
    case = _plan_case(name)
    return compile_ruleset(case.patterns, case.compiler), case.data


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
@pytest.mark.parametrize("name", ["lnfa", "nfa", "dfa", "nbva", "mix"])
class TestPlanDifferential:
    """``durable_scan`` ≡ ``scan`` ≡ the ``python`` oracle, one tier at a
    time: cells of the conformance matrix (``tests/conformance``) with a
    seam, a restore and a byte-identical document at every offset."""

    def test_every_seam_and_restore(self, name, backend):
        case = _plan_case(name)
        reference, data = case.reference(), case.data
        assert any(reference.matches.values())
        if name == "lnfa":
            assert all(r.mode.value == "LNFA" for r in case.ruleset())
            assert reference.matches[5] == [len(data) - 1]
            assert all(reference.matches[rid] for rid in range(7))
        if name == "nfa":  # the end-anchored final fired, on the last byte
            assert reference.matches[2] == [len(data) - 1]
        if name == "nbva":
            assert all(r.mode.value == "NBVA" for r in case.ruleset())
            assert reference.matches[3] == [len(data) - 1]
            assert all(reference.matches[rid] for rid in range(4))
        cells.bulk(case, "auto", backend, 1)
        cells.durable(case, "auto", backends=("python", backend))
        if backend == "native":  # no silent NBVA fallback to compare
            with cells.on(backend):
                fused = cells.bound(case, "auto", backend).plan.fused
            assert all(
                fused._native_scanner().has_nbva(unit)
                for unit in range(fused.nbva_count)
            )

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
                mid = cells.canonical(scan.snapshot())
                scan.feed(data[2 * cut :], at_end=True)
                return mid, scan.finish()

        assert degraded(backend) == degraded("python")

    def test_input_jobs_2(self, name, backend, tmp_path):
        short = _plan_case(name)
        case = Case(short.patterns, short.data * 6, compiler=short.compiler)
        cells.bulk(case, "auto", backend, 2, min_chunk=16)
        engine = BatchEngine(
            EngineConfig(
                backend=backend,
                input_jobs=2,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_bytes=len(case.data) // 2 + 1,
            )
        )
        outcome = engine.durable_scan(case.ruleset(), case.data)
        assert outcome.result == case.reference()
        assert outcome.checkpoints_written == 1


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
def test_shed_bin_stays_on_the_lane_machine(backend, monkeypatch):
    """Shedding a bin must not drop the live bins onto the per-byte
    python collectors: the packed machine keeps stepping every bin — the
    shed one's lanes too (bins never interact), its reports dropped —
    and what the live bins accumulate is what an unshed scan accumulates
    for them.  Nor onto the walker: on ``native`` the kernel takes every
    segment whole, also where the shed bin shares a group with live ones
    (``keywords64``: four bins, one group)."""
    from benchmarks.ledger.workloads import keyword_patterns
    from repro.core.native import NativeScanner
    from repro.core.table import StepTable
    from repro.simulators.activity import BinActivityCollector
    from repro.simulators.fused import FusedLaneScanner
    from repro.workloads.inputs import generate_input

    spans, kernel, walked = [], [], []
    lane_step, native_scan, walk = (
        FusedLaneScanner.step, NativeScanner.scan, StepTable.walk
    )

    def counted(self, lanes, segment, **kwargs):
        spans.append(len(segment))
        depth = len(spans)
        try:
            return lane_step(self, lanes, segment, **kwargs)
        finally:
            del spans[depth:]  # a span handing itself on in parts counts once

    def compiled(self, segment, **kwargs):
        kernel.append(len(segment))
        return native_scan(self, segment, **kwargs)

    def stepped(self, cls, *args, **kwargs):
        walked.append(len(cls))
        return walk(self, cls, *args, **kwargs)

    def per_byte_oracle(self, segment, **kwargs):
        raise AssertionError("a planned backend fed a bin collector directly")

    monkeypatch.setattr(FusedLaneScanner, "step", counted)
    monkeypatch.setattr(NativeScanner, "scan", compiled)
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
            frozen = shed._bins[victim].snapshot()  # shed() wrote it back
            for scan in (whole, shed):
                del spans[:], kernel[:], walked[:]
                scan.feed(data[cut : 2 * cut], at_end=False)
                scan.feed(data[2 * cut :], at_end=True)
                assert spans == [cut, len(data) - 2 * cut]
                if backend == "native":
                    assert kernel == spans and not walked
            for scan in (whole, shed):
                scan.finish()  # the collectors, written back
        if (name, backend) == ("keywords64", "native"):
            assert shed._plan.scanner.lane_tier.endswith("1 group of 4 bins)")
        live = [key for key in shed._bins if key != victim]
        assert len(live) == len(shed._bins) - 1 >= 2
        for key in live:
            assert shed._bins[key].snapshot() == whole._bins[key].snapshot()
            assert shed._bins[key].activity() == whole._bins[key].activity()
        assert shed._bins[victim].snapshot() == frozen
        assert whole._bins[victim].snapshot() != frozen


def _keyword_stream(segments: int, size: int, seed: int):
    """``keywords64`` newly compiled, its mapping, and ``segments``
    segments of ``size`` bytes after a 4 KiB lead-in, witnesses planted."""
    from benchmarks.ledger.workloads import keyword_patterns
    from repro.workloads.inputs import generate_input

    ruleset = compile_ruleset(keyword_patterns())
    mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
    data = generate_input(
        "network", 4096 + segments * size, seed=seed,
        patterns=keyword_patterns(), plant_every=700,
    )
    cuts = range(4096, len(data), size)
    return ruleset, mapping, data[:4096], [data[at : at + size] for at in cuts]


def _digest(scan: DurableScan) -> str:
    return hashlib.sha256(cells.canonical(scan.snapshot())).hexdigest()


NATIVE = pytest.mark.skipif(
    "native" not in available_backends(), reason="native backend unavailable"
)


@NATIVE
def test_a_resident_lane_feed_is_one_crossing_and_no_fold(monkeypatch):
    """A lanes-only durable scan keeps its lane machine resident: each of
    100 steady-state 4 KiB feeds makes exactly one library call, and none
    converts lane state (``NativeScanner._enter`` / ``_leave``) or walks
    it in Python.  Its snapshot at every offset is the ``python``
    backend's, by SHA-256."""
    from repro.core import native
    from repro.core.table import StepTable

    ruleset, mapping, lead, segments = _keyword_stream(100, 4096, seed=11)
    events = []

    def logged(name, original):
        return lambda *args, **kwargs: events.append(name) or original(
            *args, **kwargs
        )

    monkeypatch.setattr(native, "_LIB_MEMO", {})  # libraries loaded anew, below
    for library in (native._CffiLibrary, native._CtypesLibrary):
        monkeypatch.setattr(
            library, "fn", lambda self, name, _fn=library.fn: logged(
                name, _fn(self, name)
            ),
        )
    for name in ("_enter", "_leave"):
        original = getattr(native.NativeScanner, name)
        monkeypatch.setattr(native.NativeScanner, name, logged(name, original))
    monkeypatch.setattr(StepTable, "walk", logged("walk", StepTable.walk))
    digests = {}
    for backend in ("python", "native"):
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            scan.feed(lead, at_end=False)
            digests[backend] = [_digest(scan)]
            for segment in segments:
                del events[:]
                scan.feed(segment, at_end=False)
                if backend == "native":
                    assert events == ["rap_scan_span"]
                digests[backend].append(_digest(scan))
        assert scan.drain()  # the planted witnesses were reported
    assert digests["native"] == digests["python"]


@NATIVE
def test_shedding_keeps_the_kernel(monkeypatch):
    """After a bin is shed, its lanes step on inside the packed machine
    (they no longer enter empty beside live neighbours, which is no state
    of their group's closure): none of 100 later feeds walks in Python,
    every one is one kernel call, and the snapshot at every later offset
    and the finished run, priced, are the ``python`` backend's."""
    from repro.core.native import NativeScanner
    from repro.core.table import StepTable

    ruleset, mapping, lead, segments = _keyword_stream(100, 512, seed=12)
    walked, kernel = [], []
    walk, native_scan = StepTable.walk, NativeScanner.scan
    monkeypatch.setattr(
        StepTable, "walk", lambda *a, **k: walked.append(len(a[1])) or walk(*a, **k)
    )
    monkeypatch.setattr(
        NativeScanner, "scan",
        lambda self, data, **k: kernel.append(len(data)) or native_scan(
            self, data, **k
        ),
    )
    digests, priced = {}, {}
    for backend in ("python", "native"):
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG, weights={1: 0.1})
            scan.feed(lead, at_end=False)
            ((kind, *_),) = scan.shed(1e-9, "test pressure")
            assert kind == "bin"
            del walked[:], kernel[:]
            digests[backend] = []
            for k, segment in enumerate(segments):
                scan.feed(segment, at_end=k == len(segments) - 1)
                digests[backend].append(_digest(scan))
            if backend == "native":
                assert not walked and kernel == list(map(len, segments))
            priced[backend] = RAPSimulator(DEFAULT_CONFIG).run_from_activity(
                ruleset, scan.finish(), mapping
            )
    assert digests["native"] == digests["python"]
    assert priced["native"] == priced["python"]
    assert priced["native"].energy_uj.hex() == priced["python"].energy_uj.hex()


def _as_the_parent_wrote(doc, fingerprint: str):
    """``doc`` as the build before one state version per boundary wrote
    it: every version field 1, the fingerprint of the previous recipe —
    which folded in the fusion layout, and so named the backend."""
    if isinstance(doc, list):
        return [_as_the_parent_wrote(item, fingerprint) for item in doc]
    if not isinstance(doc, dict):
        return doc
    old = {key: _as_the_parent_wrote(value, fingerprint) for key, value in doc.items()}
    for key in ("version", "serve_version"):
        if key in old:
            old[key] = 1
    if "fingerprint" in old:
        old["fingerprint"] = fingerprint
    return old


@pytest.mark.skipif(not PLANNED_BACKENDS, reason="fused backend not available")
class TestPlanFingerprint:
    """One fingerprint recipe — the ruleset document, the hardware
    config and the bin size, hashed — the same on every backend."""

    # name -> (scan_fingerprint, key of the one generated source a native
    # binding emits), one row for every backend: the fingerprint names
    # none.  ("mix" is the paper's Fig. 1 mix.  The keys of every binding
    # with units — "nfa", "dfa", "mix" — moved when the state-vector step
    # replaced the gather; "lnfa", lanes alone, did not.)
    PINNED = {
        "lnfa": ("d595f123b45f155c", ["699bf7d9a1fa7cbc"]),
        "nfa": ("47fdbf4da19d8421", ["8633ff7bb04fdf45"]),
        "dfa": ("08c85ccd44781aa5", ["609518755053b36a"]),
        "mix": ("23ea81447e9dcd85", ["6b9a8c5fec044eb2"]),
    }

    # What the previous recipe wrote for the module's mixed ruleset.
    PARENT_FINGERPRINTS = {
        "python": "98c53b33d61ca44398ba7e2bd2c4f5d7aa22c4ca9bfb91df76ed968cb3b5ae2b",
        "fused": "7e9030e87dd8fa3491173c019023a570f05bccb1a1d1ce0789ce6fd1a5127bc7",
        "native": "b7978e356c957fd3b4c79e243b83fc15c0a655a23a0e98b90182655b4bea71f7",
    }

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", ["lnfa", "nfa", "dfa", "mix"])
    def test_fingerprint_and_keys_pinned(self, name, backend):
        from repro.core import codegen
        from repro.core.native import source_key
        from repro.simulators.rap import bind

        if name == "lnfa":
            ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        else:
            ruleset, _ = _plan_ruleset(name)
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        fingerprint, pinned = self.PINNED[name]
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            fused = bind(ruleset, DEFAULT_CONFIG, mapping=mapping).plan.fused
            kernel = codegen.binding_source(fused, fused.tile_masks)
            keys = [source_key(kernel.source)]
            if backend == "native":
                assert source_key(fused._native_scanner()._source) == keys[0]
        assert scan.fingerprint[:16] == fingerprint
        assert [key[:16] for key in keys] == pinned

    def test_backend_flip_between_scans_rebinds(self, monkeypatch):
        # One ruleset and mapping *object* scanned under fused, native,
        # disabled native and fused again: each scan runs the binding of
        # the backend in force at that moment, and all write one
        # fingerprint.
        from repro.core.native import NATIVE_DISABLE_ENV

        if "native" not in PLANNED_BACKENDS:
            pytest.skip("native backend not available")
        ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)

        def scanned(backend: str):
            with use_backend(backend):
                return DurableScan(ruleset, mapping, DEFAULT_CONFIG)

        first = scanned("fused")
        native = scanned("native")
        assert native._plan is not first._plan
        monkeypatch.setenv(NATIVE_DISABLE_ENV, "1")
        disabled = scanned("native")
        assert disabled._plan is first._plan
        monkeypatch.delenv(NATIVE_DISABLE_ENV)
        assert scanned("native")._plan is native._plan
        assert scanned("fused")._plan is first._plan
        assert first.fingerprint == native.fingerprint == disabled.fingerprint

    @pytest.mark.parametrize("backend", available_backends())
    def test_parent_checkpoint_refused_and_kept(
        self, backend, ruleset, data, tmp_path
    ):
        """The one rollover: a checkpoint the previous recipe wrote is
        refused by its version — not blamed on the ruleset — with the
        store and the two ways out named, and both slots stay on disk
        for the build that wrote them."""
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        store = CheckpointStore(tmp_path)
        with use_backend(backend):
            scan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)
            for offset in (700, 1400):
                scan.feed(data[offset - 700 : offset], at_end=False)
                parent = self.PARENT_FINGERPRINTS[backend]
                store.write(_as_the_parent_wrote(scan.snapshot(), parent), offset)
            config = EngineConfig(checkpoint_dir=str(tmp_path), resume=True)
            with pytest.raises(CheckpointError) as info:
                BatchEngine(config).durable_scan(ruleset, data)
        said = str(info.value)
        assert said.startswith("unsupported checkpoint version 1 (this build reads 3)")
        assert said.count(str(tmp_path)) == 2 and "without --resume" in said
        assert "the build that wrote" in said
        assert sorted(p.name for p in tmp_path.iterdir()) == list(SLOTS)
        assert store.load_latest()["fingerprint"] == parent

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_lane_source_key_ignores_what_was_walked_first(self, backend):
        """Closure ids are pure breadth-first order: portable scans of
        the plan — one from an entry word no scan produces — before the
        source is emitted do not move the pinned key."""
        from repro.core import codegen
        from repro.core.native import source_key

        ruleset = compile_ruleset(["needle", "marker", "hello|world"])
        mapping = RAPSimulator(DEFAULT_CONFIG).build_mapping(ruleset)
        pinned = self.PINNED["lnfa"][1][0]
        with use_backend(backend):
            plan = DurableScan(ruleset, mapping, DEFAULT_CONFIG)._plan
            scanner, fused = plan.scanner, plan.fused
            foreign = fused.pack([(1 << width) - 1 for width in fused.widths])
            walked = sum(map(len, scanner.lane_dfas()))
            scanner.scan(b"a needle", entry=foreign, fresh=False, at_end=False)
            scanner.scan(b"a needle, a marker, hello", fresh=True, at_end=True)
            assert sum(map(len, scanner.lane_dfas())) > walked
            masks = [layout.tile_masks for layout in plan.layouts]
            kernel = codegen.binding_source(fused, masks)
            assert source_key(kernel.source)[:16] == pinned
            if backend == "native":
                assert source_key(fused._native_scanner()._source)[:16] == pinned
