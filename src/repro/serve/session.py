"""One streaming scan session: epochs over a :class:`DurableScan`.

A session is the unit the service supervises, evicts, and resumes.  Its
whole state is (a) the current epoch's durable-scan snapshot and (b) a
small envelope of serve-level counters — which generation it is
scanning under, where the epoch started in the global stream, how many
matches and how much energy prior epochs contributed, and how many
match events per regex have already been emitted.  Persisting that
envelope through the :class:`~repro.engine.checkpoint.CheckpointStore`
is what makes a session crash-proof: another worker recompiles the
envelope's patterns (a compile-cache hit), restores the scan detached,
and continues bit-identically.

Two mechanics deserve a note:

* **Deferred segments.**  End-anchored patterns (``foo$``) need the
  final segment fed with ``at_end=True``, but a streaming server only
  learns a segment was final when the ``end`` frame arrives.  The
  session therefore holds each data segment *pending* and feeds it when
  the next frame shows whether more data follows.  Pending bytes are
  not durable — checkpoints and the resume offset exclude them, so a
  reconnecting client replays from exactly the last fed byte.
* **Epochs.**  A hot reload rotates the session onto a fresh scan at a
  segment boundary: the old epoch's activity is priced once with the
  old ruleset, its matches and energy roll into the prior totals, and
  the new epoch starts at the current global offset under the new
  generation.  A reload to an identical fingerprint never rotates.
"""

from __future__ import annotations

import logging
import time

from repro.engine.checkpoint import CheckpointStore, DurableScan, version_refused
from repro.errors import CheckpointError
from repro.io.envelope import STATE_VERSION
from repro.serve.registry import TenantEntry
from repro.simulators.rap import RAPSimulator

SESSION_FORMAT = "rap-serve-session"

log = logging.getLogger(__name__)


class ScanSession:
    """The server-side state of one tenant's streaming scan."""

    def __init__(
        self,
        tenant: str,
        session_id: str,
        entry: TenantEntry,
        store: CheckpointStore,
        hw,
        *,
        bin_size: int | None = None,
        weight: float = 1.0,
    ):
        self.tenant = tenant
        self.id = session_id
        self.entry = entry
        self.store = store
        self.hw = hw
        self.bin_size = bin_size
        self.weight = weight
        self.scan = DurableScan(
            entry.ruleset, entry.mapping, hw, bin_size=bin_size
        )
        self.epoch_start = 0  # global offset where the current epoch began
        self.prior_matches = 0  # matches rolled up from completed epochs
        self.prior_energy_uj = 0.0
        self._emitted: dict[int, int] = {}  # rid -> events emitted (epoch)
        # ((epoch_start, scan offset, generation), energy) last priced
        self._priced: tuple[tuple[int, int, int], float] | None = None
        self._pending: bytes | None = None
        self.ended = False
        self.last_active = time.monotonic()
        self.checkpoint_error: str | None = None  # why the last failed one did

    # -- identity ------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self.entry.generation

    @property
    def offset(self) -> int:
        """Bytes durably consumed (pending segment excluded) — the
        global position a resuming client replays its input from."""
        return self.epoch_start + self.scan.offset

    @property
    def pending_bytes(self) -> int:
        return len(self._pending) if self._pending is not None else 0

    def touch(self) -> None:
        self.last_active = time.monotonic()

    def park(self) -> None:
        """Drop the held (non-durable) segment before detaching.

        The resume offset excludes pending bytes, so a reconnecting
        client replays them as fresh data frames; keeping them would
        feed them twice."""
        self._pending = None

    def idle_seconds(self) -> float:
        return time.monotonic() - self.last_active

    # -- streaming -----------------------------------------------------------

    def feed(self, segment: bytes) -> list[list[int]]:
        """Accept the next data segment; returns newly emitted events.

        The segment itself is held pending (see the module docstring);
        what actually reaches the scan — and produces the returned
        ``[global_end_offset, regex_id]`` events — is the *previous*
        pending segment, now known not to be final.
        """
        self.touch()
        if not segment:
            # An empty frame says nothing about whether more data
            # follows: the held segment may still be the final one.
            return []
        events = []
        if self._pending is not None:
            events = self._feed_now(self._pending, at_end=False)
        self._pending = segment
        return events

    def end(self) -> list[list[int]]:
        """The stream is complete: feed the held segment as final."""
        self.touch()
        pending = self._pending if self._pending is not None else b""
        self._pending = None
        events = self._feed_now(pending, at_end=True)
        self.ended = True
        return events

    def _feed_now(self, segment: bytes, *, at_end: bool) -> list[list[int]]:
        self.scan.feed(segment, at_end=at_end)
        return self._drain_events()

    def _drain_events(self) -> list[list[int]]:
        """Match ends newly appended since the last drain, globalized."""
        events: list[list[int]] = []
        for rid, ends in sorted(self.scan.match_lists().items()):
            done = self._emitted.get(rid, 0)
            if len(ends) > done:
                events.extend(
                    [self.epoch_start + end, rid] for end in ends[done:]
                )
                self._emitted[rid] = len(ends)
        events.sort()
        return events

    # -- accounting ----------------------------------------------------------

    def _epoch_matches(self) -> int:
        return sum(len(ends) for ends in self.scan.match_lists().values())

    def _epoch_energy_uj(self) -> float:
        # Pricing is a whole ``finish()`` + ``run_from_activity``, and
        # one frame's replies ask for it two or three times with no
        # byte fed in between: price each point of the stream once.
        key = (self.epoch_start, self.scan.offset, self.generation)
        if self._priced is None or self._priced[0] != key:
            result = RAPSimulator(self.hw).run_from_activity(
                self.entry.ruleset, self.scan.finish(), self.entry.mapping
            )
            self._priced = (key, result.energy_uj)
        return self._priced[1]

    def total_matches(self) -> int:
        """Authoritative match total across every epoch (not derived
        from emitted events, so replayed emissions never double count)."""
        return self.prior_matches + self._epoch_matches()

    def total_energy_uj(self) -> float:
        """Energy priced so far: completed epochs plus the live one."""
        return self.prior_energy_uj + self._epoch_energy_uj()

    # -- hot reload ----------------------------------------------------------

    def maybe_swap(self, entry: TenantEntry) -> list[list[int]] | None:
        """Rotate onto ``entry`` at this segment boundary.

        Returns the events flushed from the old epoch's held segment
        (the swap point is *after* all bytes received so far), or
        ``None`` when ``entry`` is the fingerprint already being
        scanned — the no-op reload.
        """
        if entry.fingerprint == self.entry.fingerprint:
            return None
        events = []
        if self._pending is not None:
            events = self._feed_now(self._pending, at_end=False)
            self._pending = None
        # Close the books on the old epoch under its own ruleset.
        self.prior_matches += self._epoch_matches()
        self.prior_energy_uj += self._epoch_energy_uj()
        self.epoch_start = self.offset
        self.entry = entry
        self.scan = DurableScan(
            entry.ruleset, entry.mapping, self.hw, bin_size=self.bin_size
        )
        self._emitted = {}
        return events

    # -- durability ----------------------------------------------------------

    def envelope(self) -> dict:
        """The session's complete persistable state."""
        return {
            "serve_format": SESSION_FORMAT,
            "serve_version": STATE_VERSION,
            "tenant": self.tenant,
            "session": self.id,
            "patterns": list(self.entry.patterns),
            "generation": self.entry.generation,
            "weight": self.weight,
            "epoch_start": self.epoch_start,
            "prior_matches": self.prior_matches,
            "prior_energy_uj": self.prior_energy_uj,
            "emitted": sorted(self._emitted.items()),
            "scan": self.scan.snapshot(),
        }

    def checkpoint(self) -> bool:
        """Persist the envelope; ``False`` when the write failed (the
        session keeps its previous restore point, scanning continues)."""
        try:
            self.store.write(self.envelope(), self.offset)
            return True
        except OSError as err:
            self.checkpoint_error = (
                f"tenant={self.tenant} session={self.id} offset={self.offset}: {err}"
            )
            log.warning("checkpoint failed: %s", self.checkpoint_error)
            return False

    @classmethod
    def from_envelope(
        cls,
        envelope: dict,
        registry,
        store: CheckpointStore,
        *,
        weight: float | None = None,
    ) -> "ScanSession":
        """Rebuild a session from its persisted envelope.

        The envelope's own patterns are recompiled (a compile-cache hit
        on any worker that has seen them) so the scan restores against
        the exact fingerprint that wrote the checkpoint, even if the
        tenant namespace has since moved on — the session then rotates
        to the current generation at its next segment boundary.
        """
        try:
            if envelope.get("serve_format") != SESSION_FORMAT:
                raise CheckpointError(
                    "not a serve session envelope "
                    f"(serve_format={envelope.get('serve_format')!r})",
                    phase="serve",
                )
            if envelope.get("serve_version") != STATE_VERSION:
                raise version_refused(
                    "serve session",
                    envelope.get("serve_version"),
                    store.root,
                    "serve",
                )
            tenant = envelope["tenant"]
            session_id = envelope["session"]
            patterns = tuple(envelope["patterns"])
            generation = int(envelope["generation"])
            epoch_start = int(envelope["epoch_start"])
            prior_matches = int(envelope["prior_matches"])
            prior_energy_uj = float(envelope["prior_energy_uj"])
            emitted = {
                int(rid): int(count) for rid, count in envelope["emitted"]
            }
            scan_doc = envelope["scan"]
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(
                f"malformed serve session envelope: {err}", phase="serve"
            ) from err
        ruleset, mapping, fingerprint = registry.compile(patterns)
        entry = TenantEntry(
            tenant=tenant,
            generation=generation,
            patterns=patterns,
            ruleset=ruleset,
            mapping=mapping,
            fingerprint=fingerprint,
        )
        session = cls(
            tenant,
            session_id,
            entry,
            store,
            registry.hw,
            bin_size=registry.bin_size,
            weight=(
                weight
                if weight is not None
                else float(envelope.get("weight", 1.0))
            ),
        )
        session.scan.restore_detached(scan_doc, store.root)
        session.epoch_start = epoch_start
        session.prior_matches = prior_matches
        session.prior_energy_uj = prior_energy_uj
        session._emitted = emitted
        return session


__all__ = ["SESSION_FORMAT", "ScanSession"]
