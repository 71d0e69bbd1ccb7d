"""Scan once, price many: memoized functional activity over one input.

The architecture simulators (RAP, BVAP, CAMA, CA) price *events*, not
architectures: two simulators executing the same automaton over the same
input consume identical activity counts and differ only in the Table 1
cost model they apply.  An :class:`ActivityTrace` makes that sharing
explicit — it memoizes each functional scan by the regex's *functional
fingerprint* (mode, anchors, automaton structure), so e.g. the CAMA and
CA points of Fig. 12 (both forced-NFA compiles of the same patterns)
reuse one scan, and all four designs are priced from a single pass over
each input.

This module bridges the core layer to the simulators' activity
collectors, so unlike the rest of :mod:`repro.core` it imports upward;
import it as ``repro.core.trace`` (it is deliberately not re-exported
from ``repro.core`` to keep the kernel layer import-cycle-free).
"""

from __future__ import annotations

from dataclasses import replace

from repro.compiler.program import CompiledRegex
from repro.hardware.config import HardwareConfig
from repro.mapping.binning import Bin
from repro.simulators.activity import (
    BinActivity,
    RegexActivity,
    collect_bin_activity,
    collect_regex_activity,
)


def regex_fingerprint(compiled: CompiledRegex):
    """What determines a regex's functional behavior on an input.

    Everything the execution engines consult: mode, anchors, and the
    automaton's structure (positions, character classes, edges, counter
    groups — all frozen, structurally hashable dataclasses).  The
    ``regex_id`` and source pattern text are deliberately excluded; two
    differently numbered compiles of equivalent automata share one scan.
    """
    return (
        compiled.mode,
        compiled.anchored_start,
        compiled.anchored_end,
        compiled.automaton,
    )


class ActivityTrace:
    """Memoized per-regex / per-bin functional activity of one input."""

    def __init__(self, data: bytes):
        self.data = data
        #: Functional scans actually executed (cache misses).  The
        #: fig12 scan-count test pins this to the number of distinct
        #: fingerprints, proving no input is ever scanned twice.
        self.scan_count = 0
        # per fingerprint: the activity and its BV cycles' positions
        self._regex: dict[object, tuple[RegexActivity, list[int]]] = {}
        # Bins are mutable-ish aggregates without a cheap structural
        # key, so they memoize by identity; holding the (bin, hw) refs
        # keeps their ids unique for the trace's lifetime.
        self._bins: dict[tuple[int, int], tuple[Bin, HardwareConfig, BinActivity]] = {}

    def regex_activity(self, compiled: CompiledRegex) -> RegexActivity:
        """This regex's activity, scanning only on the first request.

        The result is rebound to ``compiled.regex_id`` with fresh list
        copies, so simulators that share a scan can never alias each
        other's match lists.
        """
        found = self._scan(compiled)[0]
        return replace(
            found, regex_id=compiled.regex_id, matches=list(found.matches)
        )

    def bv_cycle_indices(self, compiled: CompiledRegex) -> list[int]:
        """The positions at which this regex triggers the BV phase (none
        for an NFA-mode regex), scanning only on the first request."""
        return list(self._scan(compiled)[1])

    def stall_cycles(self, regexes) -> int:
        """The cycles in which one of ``regexes`` (co-located in one
        array) triggers the BV phase: the union of their positions."""
        return len(set().union(*(self._scan(r)[1] for r in regexes)))

    def _scan(self, compiled: CompiledRegex) -> tuple[RegexActivity, list[int]]:
        key = regex_fingerprint(compiled)
        found = self._regex.get(key)
        if found is None:
            cycles: list[int] = []
            found = collect_regex_activity(compiled, self.data, bv_cycles=cycles)
            self.scan_count += 1
            found = self._regex[key] = found, cycles
        return found

    def bin_activity(self, bin_obj: Bin, hw: HardwareConfig) -> BinActivity:
        """One LNFA bin's activity, scanning only on the first request."""
        key = (id(bin_obj), id(hw))
        entry = self._bins.get(key)
        if entry is None:
            activity = collect_bin_activity(bin_obj, self.data, hw)
            self.scan_count += 1
            entry = (bin_obj, hw, activity)
            self._bins[key] = entry
        return entry[2]
