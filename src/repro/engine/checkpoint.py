"""Durable scans: atomic checkpoints and resumable whole-run state.

A scan over a long stream must survive the process dying under it — an
OOM kill, a host reboot, a deploy — without losing hours of work or,
worse, silently changing its answer.  Two pieces make that possible:

* :class:`DurableScan` drives every functional collector of one run
  (per-regex NFA/NBVA collectors, per-bin LNFA collectors) segment by
  segment and can serialize its **entire** mid-stream state — scanner
  frontiers, counter vectors, activity counters, match lists — as one
  JSON document.  Restoring that document and feeding the remaining
  bytes reproduces the uninterrupted run bit for bit, because every
  engine's segment contract guarantees segmentation independence.
* :class:`CheckpointStore` persists those documents through
  :mod:`repro.io.envelope` — the compile cache's checksummed envelope,
  written in place into one of two slot files and synced once — so a
  torn or bit-rotten checkpoint is *detected*, discarded, and the other
  slot's intact one used instead.  Corruption can cost re-scanned
  bytes, never correctness.

A checkpoint binds to its scan via :func:`~repro.io.serialize.scan_fingerprint`
(ruleset + hardware + bin size) and to its input via a SHA-256 over the
consumed prefix; resuming under a different ruleset, config, or input
raises :class:`~repro.errors.CheckpointError` instead of producing a
plausible-but-wrong result.  Nothing binds it to a backend: every
backend writes the same snapshot, so a checkpoint resumes on any.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import logging
import math
import os
import time
from pathlib import Path

from repro.compiler.program import CompiledMode, CompiledRuleset
from repro.core.registry import resolve_backend
from repro.errors import CheckpointError, QuarantineEntry
from repro.hardware.config import HardwareConfig
from repro.io import envelope
from repro.io.envelope import STATE_VERSION
from repro.mapping.mapper import Mapping
from repro.simulators.activity import (
    BinActivityCollector,
    RegexActivityCollector,
)
from repro.simulators.rap import RunActivity, bind

CHECKPOINT_FORMAT = "rap-repro-checkpoint"

# Intact checkpoints retained per store, one slot file each: the newest
# plus one fallback, so a torn latest (crash mid-write, injected
# truncation) still leaves a usable restore point.
KEEP = 2
SLOTS = tuple(f"slot-{index}.json" for index in range(KEEP))
EMPTY = (-1, 0)  # the order key of a slot holding nothing intact
LEGACY = ("ckpt-*.json", ".ckpt-*.tmp")  # pre-slot builds' files (not read), orphans

log = logging.getLogger(__name__)

# How long a writer waits on another writer's exclusive lock before
# giving up (the caller treats it like any other failed write: the scan
# keeps its previous restore point).
LOCK_TIMEOUT_SECONDS = 5.0


def version_refused(
    what: str, version, store_dir: Path | None, phase: str
) -> CheckpointError:
    """The refusal of a document another build's ``STATE_VERSION``
    wrote, naming where it lies and the two ways out."""
    where = store_dir or "the checkpoint directory"
    return CheckpointError(
        f"unsupported {what} version {version!r} (this build reads "
        f"{STATE_VERSION}): finish the scan with the build that wrote "
        f"{where}, or rerun without --resume (or delete {where})",
        phase=phase,
    )


def session_dirname(session: str) -> str:
    """A filesystem-safe directory name for one session's namespace.

    Alphanumerics, dash, underscore, and dot pass through; anything
    else percent-encodes, and over-long names truncate with a content
    hash so distinct sessions can never collide on one directory.
    """
    quoted = "".join(
        c if c.isalnum() or c in "-_." else f"%{ord(c):02x}"
        for c in session
    )
    if len(quoted) > 64:
        digest = hashlib.sha256(session.encode()).hexdigest()[:16]
        quoted = f"{quoted[:47]}-{digest}"
    return quoted


class CheckpointStore:
    """Two slot files of checksummed scan checkpoints, written in place.

    Each slot is one :mod:`repro.io.envelope` document whose payload
    carries a snapshot and its order key ``[offset, sequence]``; the
    latest checkpoint is the intact slot with the higher key.  A write
    overwrites the **other** slot (one ``pwrite``, one ``fdatasync``), so
    a crash at any instant leaves the previous checkpoint or the new one
    as the latest intact, never neither.  Which slot that is comes off
    the disk: the store trusts what it last wrote or verified only while
    both slots still begin with the same bytes (they hold the checksum),
    and verifies both in full otherwise — a split-brain writer may have
    been here, or died here (docs/engine.md, "Atomic checkpoints").

    Two safeguards make a *shared* root safe:

    * ``session`` namespaces the store into a per-session subdirectory
      (``root/<session>/``), so independent scans sharing one configured
      root never see each other's slots.
    * an exclusive ``flock`` on the directory itself serializes writes,
      loads and clears of two stores pointed at the *same* directory (a
      split-brain resume of one session).  Loads take it too: an in-place
      write is visible half done, and a reader beside it would unlink
      the slot as corrupt.
    """

    def __init__(self, root: str | Path, *, session: str | None = None):
        self.root = Path(root)
        if session is not None:
            self.root = self.root / session_dirname(session)
        self.session = session
        self._slots = [self.root / name for name in SLOTS]
        self.discarded = 0  # corrupt entries dropped during load
        self.bytes_written = 0  # slot bytes put on disk, padding included
        self.sync_seconds = 0.0  # spent inside fsync / fdatasync
        self._known = None  # per slot, (head, order key) as last written or verified

    @contextlib.contextmanager
    def _exclusive(self, create: bool = False):
        """Hold the store's exclusive lock for one critical section,
        yielding the locked directory descriptor.  Raises
        ``OSError(EWOULDBLOCK)`` after the acquisition timeout — callers
        already treat a failed write as lost durability, never a failed
        scan.

        The lock is a ``flock`` on the directory's own descriptor, opened
        per section: there is no lock file to go stale, the kernel drops
        the lock the instant its holder dies, and a holder that is
        stopped but alive keeps it.
        """
        if create and not self.root.is_dir():  # the store's first write
            self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root, os.O_RDONLY)
        try:
            deadline = time.monotonic() + LOCK_TIMEOUT_SECONDS
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise OSError(
                            errno.EWOULDBLOCK,
                            f"checkpoint store {self.root}"
                            + (f" (session={self.session})" if self.session else "")
                            + " is locked by another writer: gave up after "
                            f"{LOCK_TIMEOUT_SECONDS:g} s",
                        ) from None
                    time.sleep(0.002)
            yield fd
        finally:
            os.close(fd)

    def _paths(self) -> list[Path]:
        """Intact slot files, oldest first."""
        self.load_latest()
        ranked = sorted(zip((key for _, key in self._known or []), self._slots))
        return [path for key, path in ranked if key != EMPTY]

    def write(self, payload_doc: dict, offset: int) -> Path:
        """Durably persist one snapshot taken at ``offset``.

        Raises ``OSError`` when the disk is full (or the lock times out);
        the caller decides whether a failed checkpoint is fatal — for
        the durable scan it is not, the scan just keeps going with the
        previous restore point.
        """
        with self._exclusive(create=True) as dirfd:
            if self._known is None or any(
                envelope.head(path) != seen
                for path, (seen, _) in zip(self._slots, self._known)
            ):
                self._survey()
            known, keys = self._known, [key for _, key in self._known]
            victim = keys.index(min(keys))  # never the newest intact
            order = (offset, 1 + max(sequence for _, sequence in keys))
            entry = {"doc": payload_doc, "order": order}
            payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
            data = envelope.seal(
                payload, format=CHECKPOINT_FORMAT, block=envelope.BLOCK
            )
            self._known = None  # a failed write knows nothing of the slots
            self.sync_seconds += envelope.overwrite(self._slots[victim], data, dirfd)
            self.bytes_written += len(data)
            known[victim] = (data[: envelope.HEAD], order)
            self._known = known
        return self._slots[victim]

    def _survey(self) -> list[dict | None]:
        """Both slots verified in full, under the lock: their documents
        (``None``: nothing intact; corrupt slots are unlinked)."""
        found = [self._load_one(path) for path in self._slots]
        self._known = [(seen, order) for seen, order, _ in found]
        return [payload_doc for _, _, payload_doc in found]

    def load_latest(self) -> dict | None:
        """The newest intact snapshot payload, or ``None``.

        Corrupt slots (bad envelope, checksum mismatch, undecodable
        payload) are unlinked and the other one used — the recovery path
        a torn latest checkpoint exercises.  Raises ``CheckpointError``
        when another writer keeps the store locked.
        """
        try:
            with self._exclusive():
                docs = self._survey()
        except FileNotFoundError:
            return None
        except OSError as err:
            raise CheckpointError(str(err), phase="checkpoint") from err
        keys = [key for _, key in self._known]
        if max(keys) == EMPTY and (old := len(list(self.root.glob(LEGACY[0])))):
            log.warning(
                f"{old} checkpoint file(s) of an older layout in {self.root} are "
                "not read: the scan restarts from byte 0"
            )
        return docs[keys.index(max(keys))]

    def _load_one(self, path: Path) -> tuple[bytes, tuple[int, int], dict | None]:
        """One slot's head, order key and document; a corrupt one is empty."""
        seen = envelope.head(path)
        if not seen:  # absent, or as a killed creator left it
            return b"", EMPTY, None
        try:
            entry = json.loads(envelope.load(path, format=CHECKPOINT_FORMAT))
            (offset, sequence), payload_doc = map(int, entry["order"]), entry["doc"]
        except (OSError, envelope.EnvelopeError) as err:
            return self._discard(path, str(err))
        except (ValueError, KeyError, TypeError) as err:
            return self._discard(path, f"undecodable payload: {err}")
        return seen, (offset, sequence), payload_doc

    def _discard(self, path: Path, reason: str) -> tuple[bytes, tuple[int, int], None]:
        log.debug("checkpoint %s corrupt (%s); discarded", path.name, reason)
        self.discarded += 1
        with contextlib.suppress(OSError):
            os.unlink(path)
        return b"", EMPTY, None

    def clear(self) -> None:
        """Remove every checkpoint (the scan completed), old builds' too."""
        self._known = None
        with contextlib.ExitStack() as held:
            # A held lock must not fail scan completion; whatever a
            # concurrent writer re-creates is its own to clear.
            with contextlib.suppress(OSError):
                held.enter_context(self._exclusive())
            litter = [path for old in LEGACY for path in self.root.glob(old)]
            for path in [*self._slots, *litter]:
                with contextlib.suppress(OSError):
                    os.unlink(path)


class DurableScan:
    """One resumable scan: every collector of a run, fed in lockstep.

    Feeding segments whose concatenation is the stream produces, via
    :meth:`finish`, the exact :class:`~repro.simulators.rap.RunActivity`
    a sequential :meth:`RAPSimulator.collect_activities` call would —
    regardless of segmentation and of any snapshot/restore round trips
    in between.  Pricing that activity once then yields a bit-identical
    :class:`~repro.simulators.result.SimulationResult`.

    Under budget pressure with ``degrade="shed"``, :meth:`shed` freezes
    the lowest-weight work units (a regex, or a whole LNFA bin): they
    stop consuming cycles but their partial activity still prices into
    the final (partial) result, and each shed pattern lands in the
    quarantine report with phase ``"degrade"``.
    """

    def __init__(
        self,
        ruleset: CompiledRuleset,
        mapping: Mapping,
        hw: HardwareConfig,
        *,
        bin_size: int | None = None,
        weights: dict[int, float] | None = None,
    ):
        self._ruleset = ruleset
        self._mapping = mapping
        self._weights = dict(weights or {})
        self._unions = {
            r.regex_id
            for r in ruleset
            if r.mode is CompiledMode.LNFA and len(r.lnfas) > 1
        }
        self._regex: dict[int, RegexActivityCollector] = {
            r.regex_id: RegexActivityCollector(r)
            for r in ruleset
            if r.mode is not CompiledMode.LNFA
        }
        # On the fused and native backends the collectors are stepped by
        # the ruleset's fused plan — the very plan a bulk scan executes:
        # all LNFA bins through one lane-packed machine per segment, each
        # NFA/DFA unit once for every regex sharing it.  The feeders are
        # stateless between feeds (they read and write the collectors'
        # KernelStates), so snapshot and restore go through the
        # collectors unchanged and resuming stays byte-identical — on
        # this backend or any other.
        self._plan = None
        self._regex_feeder = None
        self._bin_feeder = None
        layouts: dict = {}  # bin key -> geometry the plan already packed
        binding = bind(ruleset, hw, mapping=mapping)
        if resolve_backend() in ("fused", "native"):
            from repro.simulators.fused import FusedBinFeeder, FusedRegexFeeder

            self._plan = binding.plan
            self._regex_feeder = FusedRegexFeeder(self._plan, self._regex)
            layouts = dict(zip(self._plan.bin_keys, self._plan.layouts))
        self._bins: dict[tuple[int, int], BinActivityCollector] = {
            (index, bin_index): BinActivityCollector(
                bin_obj, hw, layouts.get((index, bin_index))
            )
            for index, bin_index, bin_obj in mapping.lnfa_bins()
        }
        if self._plan is not None and self._bins:
            self._bin_feeder = FusedBinFeeder(
                list(self._bins.values()), self._plan.scanner
            )
        self.fingerprint = binding.fingerprint(bin_size)
        self._offset = 0
        self._hasher = hashlib.sha256()
        self._detached = False
        self._shed: set[tuple] = set()
        self.quarantine_entries: list[QuarantineEntry] = []

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._offset

    @property
    def live_units(self) -> int:
        """Work units still being fed (not shed)."""
        return len(self._regex) + len(self._bins) - len(self._shed)

    def match_lists(self) -> dict[int, list[int]]:
        """Per-regex match end positions consumed so far.

        The returned lists are the collectors' live, append-only
        containers — callers slice them for incremental event emission
        (the streaming service diffs against a per-regex emitted count
        every segment) and must not mutate them.  A regex compiled to
        several LNFA sequences reports once per sequence, in one bin or
        several: its list is their sorted union, as a bulk scan's
        result has it (a new list, still growing only at its end).
        """
        out = {rid: collector.matches for rid, collector in self._regex.items()}
        for collector in self._bins.values():
            out.update(collector.matches)
        for rid in self._unions:
            out[rid] = sorted(
                {end for c in self._bins.values() for end in c.matches.get(rid, ())}
            )
        return out

    def feed(self, segment: bytes, *, at_end: bool = True) -> None:
        """Consume the next segment of the stream on every live unit."""
        shed_regexes = {key[1] for key in self._shed if key[0] == "regex"}
        tin = None
        if self._plan is not None and segment:
            # One translation per segment, shared by every unit.
            tin = self._plan.fused.translate(segment)
            self._regex_feeder.feed(tin, at_end=at_end, skip=shed_regexes)
        else:
            for rid, collector in self._regex.items():
                if rid not in shed_regexes:
                    collector.feed(segment, at_end=at_end)
        shed_bins = {self._bins[key[1:]] for key in self._shed if key[0] == "bin"}
        if self._bin_feeder is not None:
            self._bin_feeder.feed(segment, at_end=at_end, tin=tin, skip=shed_bins)
        else:
            for collector in self._bins.values():
                if collector not in shed_bins:
                    collector.feed(segment, at_end=at_end)
        self._offset += len(segment)
        self._hasher.update(segment)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The scan's complete state as one JSON-ready document.

        ``input_sha`` is a plain SHA-256 over the consumed prefix for a
        scan started (or restored with bytes) in this process, and a
        chain digest for a lineage resumed detached — the ``detached``
        flag says which, so :meth:`restore` can refuse what it cannot
        verify.  Undetached snapshots keep their pre-detach bytes
        stable (no new key).
        """
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": STATE_VERSION,
            "fingerprint": self.fingerprint,
            "offset": self._offset,
            "input_sha": self._hasher.copy().hexdigest(),
            "regex": [
                [rid, collector.snapshot()]
                for rid, collector in sorted(self._regex.items())
            ],
            "bins": [
                [index, bin_index, collector.snapshot()]
                for (index, bin_index), collector in sorted(
                    self._bins.items()
                )
            ],
            "shed": sorted(list(key) for key in self._shed),
            "quarantine": [
                {
                    "phase": e.phase,
                    "error": e.error,
                    "error_type": e.error_type,
                    "pattern": e.pattern,
                    "pattern_index": e.pattern_index,
                    "task_index": e.task_index,
                    "attempts": e.attempts,
                }
                for e in self.quarantine_entries
            ],
        }
        if self._detached:
            doc["detached"] = True
        return doc

    def _check_header(self, doc: dict, store_dir: Path | None) -> None:
        """Refuse a snapshot that does not belong to this exact scan."""
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not a checkpoint document (format={doc.get('format')!r})",
                phase="checkpoint",
            )
        if doc.get("version") != STATE_VERSION:
            raise version_refused(
                "checkpoint", doc.get("version"), store_dir, "checkpoint"
            )
        if doc.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                "checkpoint belongs to a different scan: ruleset, hardware "
                "config or bin size changed since it was written",
                phase="checkpoint",
            )

    def _parse_state(self, doc: dict) -> tuple:
        """The snapshot's state fields, structurally validated."""
        try:
            offset = int(doc["offset"])
            input_sha = doc["input_sha"]
            regex_docs = dict(
                (int(rid), sub) for rid, sub in doc["regex"]
            )
            bin_docs = {
                (int(index), int(bin_index)): sub
                for index, bin_index, sub in doc["bins"]
            }
            shed = {tuple(key) for key in doc.get("shed", [])}
            quarantine = [
                QuarantineEntry(**entry) for entry in doc.get("quarantine", [])
            ]
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(
                f"malformed checkpoint document: {err}", phase="checkpoint"
            ) from err
        if set(regex_docs) != set(self._regex) or set(bin_docs) != set(
            self._bins
        ):
            raise CheckpointError(
                "checkpoint work units do not match this scan's mapping",
                phase="checkpoint",
            )
        return offset, input_sha, regex_docs, bin_docs, shed, quarantine

    def _adopt(self, regex_docs: dict, bin_docs: dict) -> None:
        for rid, sub in regex_docs.items():
            self._regex[rid].restore(sub)
        for key, sub in bin_docs.items():
            self._bins[key].restore(sub)

    def restore(self, doc: dict, data: bytes, store_dir: Path | None = None) -> None:
        """Adopt a snapshot, verifying it belongs to *this* scan.

        ``data`` is the full input stream: the snapshot's consumed
        prefix must hash to the recorded digest, or the checkpoint was
        taken over different bytes and resuming would silently corrupt
        the result — that is a :class:`~repro.errors.CheckpointError`.
        ``store_dir`` is where the snapshot was read from, for the
        refusal of one another build wrote.
        """
        self._check_header(doc, store_dir)
        if doc.get("detached"):
            raise CheckpointError(
                "checkpoint belongs to a detached (streaming) resume "
                "lineage: its input binding is a chain digest, not a "
                "re-hashable prefix — resume it with restore_detached",
                phase="checkpoint",
            )
        (
            offset,
            input_sha,
            regex_docs,
            bin_docs,
            shed,
            quarantine,
        ) = self._parse_state(doc)
        if offset > len(data):
            raise CheckpointError(
                f"checkpoint offset {offset} beyond the input "
                f"({len(data)} bytes): not the same stream",
                phase="checkpoint",
            )
        prefix_sha = hashlib.sha256(data[:offset]).hexdigest()
        if prefix_sha != input_sha:
            raise CheckpointError(
                "checkpoint was taken over a different input: the consumed "
                f"prefix ({offset} bytes) does not hash to the recorded "
                "digest",
                phase="checkpoint",
            )
        self._adopt(regex_docs, bin_docs)
        self._offset = offset
        hasher = hashlib.sha256()
        hasher.update(data[:offset])
        self._hasher = hasher
        self._detached = False
        self._shed = shed
        self.quarantine_entries = quarantine

    def restore_detached(self, doc: dict, store_dir: Path | None = None) -> None:
        """Adopt a snapshot without the consumed prefix bytes.

        The streaming service evicts idle sessions to checkpoints and
        resumes them on reconnect — possibly in another process, where
        the consumed prefix no longer exists to re-hash.  The
        fingerprint check still binds the snapshot to this exact scan
        configuration; the input binding degrades from a re-verifiable
        prefix hash to a *chain digest* seeded from the recorded
        ``input_sha``, so every later snapshot of the resumed lineage
        remains positively bound to the byte sequence actually consumed
        (two lineages that fed different bytes can never converge on
        one digest).
        """
        self._check_header(doc, store_dir)
        (
            offset,
            input_sha,
            regex_docs,
            bin_docs,
            shed,
            quarantine,
        ) = self._parse_state(doc)
        if not isinstance(input_sha, str) or not input_sha:
            raise CheckpointError(
                "malformed checkpoint document: input_sha missing",
                phase="checkpoint",
            )
        self._adopt(regex_docs, bin_docs)
        self._offset = offset
        self._hasher = hashlib.sha256(
            b"rap-detached-chain:" + input_sha.encode()
        )
        self._detached = True
        self._shed = shed
        self.quarantine_entries = quarantine

    # -- graceful degradation ------------------------------------------------

    def _unit_weight(self, key: tuple) -> float:
        if key[0] == "regex":
            return self._weights.get(key[1], 1.0)
        _, index, bin_index = key
        bin_obj = self._mapping.arrays[index].bins[bin_index]
        return min(
            self._weights.get(item.regex_id, 1.0) for item in bin_obj.items
        )

    def _unit_cost(self, key: tuple) -> int:
        """Accumulated activity — how much work the unit has consumed."""
        if key[0] == "regex":
            return self._regex[key[1]].activity().active_state_cycles
        return self._bins[(key[1], key[2])].activity().woken_tile_cycles

    def shed(self, fraction: float, reason: str) -> list[tuple]:
        """Freeze the lowest-weight live units, quarantining their patterns.

        ``fraction`` of the live units (at least one) stop being fed;
        ties on weight break toward the most expensive unit (shed what
        costs most first), then by key for determinism.  Returns the
        shed unit keys.
        """
        live = [
            key
            for key in (
                [("regex", rid) for rid in self._regex]
                + [("bin", i, b) for (i, b) in self._bins]
            )
            if key not in self._shed
        ]
        if not live:
            return []
        count = min(len(live), max(1, math.ceil(fraction * len(live))))
        live.sort(
            key=lambda key: (
                self._unit_weight(key),
                -self._unit_cost(key),
                key,
            )
        )
        victims = live[:count]
        compiled_by_id = {r.regex_id: r for r in self._ruleset}
        for key in victims:
            self._shed.add(key)
            if key[0] == "regex":
                rids = [key[1]]
            else:
                bin_obj = self._mapping.arrays[key[1]].bins[key[2]]
                rids = sorted({item.regex_id for item in bin_obj.items})
            for rid in rids:
                compiled = compiled_by_id.get(rid)
                self.quarantine_entries.append(
                    QuarantineEntry(
                        phase="degrade",
                        error=reason,
                        error_type="BudgetExceededError",
                        pattern=compiled.pattern if compiled else None,
                        pattern_index=rid,
                    )
                )
        return victims

    # -- completion ----------------------------------------------------------

    def finish(self) -> RunActivity:
        """The accumulated activity, in sequential collection order."""
        return RunActivity.in_collection_order(
            self._ruleset,
            self._mapping,
            lambda r: self._regex[r.regex_id].activity(),
            lambda index, bin_index: self._bins[(index, bin_index)].activity(),
            self._offset,
        )


__all__ = [
    "CHECKPOINT_FORMAT",
    "KEEP",
    "CheckpointStore",
    "DurableScan",
    "session_dirname",
]
