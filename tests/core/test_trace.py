"""ActivityTrace: scan-once memoization and aliasing safety."""

import pytest

from repro.compiler import CompiledMode, CompilerConfig, compile_pattern
from repro.core import trace as trace_mod
from repro.core.trace import ActivityTrace, regex_fingerprint
from repro.simulators.asic_base import shared_trace

DATA = b"xxabcdyyabcdzz"


def compiled(pattern: str, regex_id: int = 0):
    # Forced NFA keeps the mode deterministic (short literals would
    # otherwise be decided into LNFA bins, which trace per bin instead).
    return compile_pattern(
        pattern, regex_id, CompilerConfig(forced_mode=CompiledMode.NFA)
    )


class TestFingerprint:
    def test_excludes_regex_id(self):
        assert regex_fingerprint(compiled("abcd", 0)) == regex_fingerprint(
            compiled("abcd", 7)
        )

    def test_distinguishes_automata(self):
        assert regex_fingerprint(compiled("abcd")) != regex_fingerprint(
            compiled("abce")
        )


class TestMemoization:
    def test_identical_automata_share_one_scan(self):
        trace = ActivityTrace(DATA)
        a0 = trace.regex_activity(compiled("abcd", 0))
        a7 = trace.regex_activity(compiled("abcd", 7))
        assert trace.scan_count == 1
        assert a0.regex_id == 0
        assert a7.regex_id == 7
        assert a0.matches == a7.matches == [5, 11]

    def test_distinct_automata_scan_separately(self):
        trace = ActivityTrace(DATA)
        trace.regex_activity(compiled("abcd"))
        trace.regex_activity(compiled("abc"))
        assert trace.scan_count == 2

    def test_scans_counted_at_the_collector(self, monkeypatch):
        real = trace_mod.collect_regex_activity
        calls = []
        monkeypatch.setattr(
            trace_mod,
            "collect_regex_activity",
            lambda c, d, **kw: calls.append(c.regex_id) or real(c, d, **kw),
        )
        trace = ActivityTrace(DATA)
        for rid in range(4):
            trace.regex_activity(compiled("abcd", rid))
        assert calls == [0]
        assert trace.scan_count == 1

    def test_shared_results_never_alias(self):
        trace = ActivityTrace(DATA)
        a0 = trace.regex_activity(compiled("abcd", 0))
        a0.matches.append(999)
        trace.bv_cycle_indices(compiled("abcd", 0)).append(999)
        a7 = trace.regex_activity(compiled("abcd", 7))
        assert 999 not in a7.matches
        assert 999 not in trace.bv_cycle_indices(compiled("abcd", 7))

    def test_bin_activity_memoizes_by_identity(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            trace_mod,
            "collect_bin_activity",
            lambda b, d, h: calls.append(b) or len(calls),
        )
        trace = ActivityTrace(DATA)
        bin_a, bin_b, hw = object(), object(), object()
        assert trace.bin_activity(bin_a, hw) == 1
        assert trace.bin_activity(bin_a, hw) == 1
        assert trace.bin_activity(bin_b, hw) == 2
        assert calls == [bin_a, bin_b]
        assert trace.scan_count == 2


class TestSharedTraceGuard:
    def test_none_makes_a_private_trace(self):
        trace = shared_trace(DATA, None)
        assert isinstance(trace, ActivityTrace)
        assert trace.data == DATA

    def test_same_trace_passes_through(self):
        trace = ActivityTrace(DATA)
        assert shared_trace(DATA, trace) is trace

    def test_equal_content_passes(self):
        trace = ActivityTrace(bytes(DATA))
        assert shared_trace(bytes(DATA), trace) is trace

    def test_different_data_raises(self):
        trace = ActivityTrace(b"something else")
        with pytest.raises(ValueError, match="different data"):
            shared_trace(DATA, trace)
