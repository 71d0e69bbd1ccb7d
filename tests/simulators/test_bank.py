"""Bank-level I/O streaming simulation tests (Section 3.3)."""

import pytest

from repro.simulators.bank import ArrayStream, BankSimulator


def stream(name="a0", stalls=None, reports=()):
    return ArrayStream(
        name=name,
        stall_after=dict(stalls or {}),
        reports_at=frozenset(reports),
    )


class TestBasicStreaming:
    def test_unstalled_array_approaches_one_symbol_per_cycle(self):
        result = BankSimulator().run([stream()], 2000)
        assert result.effective_throughput > 0.95
        assert result.output_interrupts == 0
        assert result.dma_backpressure_cycles == 0

    def test_all_symbols_consumed(self):
        result = BankSimulator().run([stream()], 500)
        assert result.input_symbols == 500
        assert result.array_finish_cycles["a0"] > 0

    def test_zero_arrays_rejected(self):
        with pytest.raises(ValueError):
            BankSimulator().run([], 10)

    def test_too_many_arrays_rejected(self):
        streams = [stream(f"a{i}") for i in range(5)]
        with pytest.raises(ValueError):
            BankSimulator().run(streams, 10)

    def test_four_arrays_share_the_bank(self):
        streams = [stream(f"a{i}") for i in range(4)]
        result = BankSimulator().run(streams, 1000)
        assert result.effective_throughput > 0.9


class TestStalls:
    def test_stalls_reduce_throughput(self):
        stalls = {i: 8 for i in range(0, 1000, 10)}  # 10% activation, depth 8
        result = BankSimulator().run([stream(stalls=stalls)], 1000)
        # steady state: 1 + 0.1*8 cycles per symbol
        assert 0.5 < result.effective_throughput < 0.62

    def test_fifos_decouple_sibling_arrays(self):
        """A stalling array slows its siblings only *partially*: they run
        ahead until the shared sliding window tethers them (the paper's
        "partially hide the latency across arrays")."""
        stalls = {i: 16 for i in range(0, 600, 20)}  # 480 stall cycles
        slow = stream("slow", stalls=stalls)
        fast = stream("fast")
        result = BankSimulator().run([slow, fast], 600)
        assert result.array_finish_cycles["fast"] < result.array_finish_cycles["slow"]
        # the window lets the fast array run a full buffer ahead, hiding
        # part (not all) of the sibling's stall time
        hidden = 480 - result.array_starved_cycles["fast"]
        assert 0 < result.array_starved_cycles["fast"] < 480
        assert hidden > 100

    def test_burst_stall_absorbed_by_window(self):
        """One isolated deep stall barely moves aggregate throughput."""
        result = BankSimulator().run([stream(stalls={100: 64})], 2000)
        assert result.effective_throughput > 0.9


class TestOutputPath:
    def test_reports_delivered(self):
        reports = set(range(0, 500, 25))
        result = BankSimulator().run([stream(reports=reports)], 500)
        assert result.reports_delivered == len(reports)

    def test_interrupts_on_match_storms(self):
        """Match rates far above the 10% design point trip interrupts and
        cost throughput — the paper's output-path sizing assumption."""
        calm = BankSimulator().run(
            [stream(reports=set(range(0, 2000, 50)))], 2000
        )
        storm = BankSimulator().run(
            [stream(reports=set(range(0, 2000, 2)))], 2000
        )
        assert storm.output_interrupts > calm.output_interrupts
        assert storm.effective_throughput < calm.effective_throughput
        assert storm.interrupt_stall_cycles > 0
        assert storm.reports_delivered == 1000

    def test_report_backpressure_never_drops_reports(self):
        reports = set(range(300))  # every symbol reports
        result = BankSimulator().run([stream(reports=reports)], 300)
        assert result.reports_delivered == 300


class TestDmaPressure:
    def test_shared_window_needs_only_one_symbol_per_cycle(self):
        """All arrays read the same broadcast stream, so a 1-symbol/cycle
        DMA sustains four arrays at full rate."""
        sim = BankSimulator(dma_symbols_per_cycle=1)
        streams = [stream(f"a{i}") for i in range(4)]
        result = sim.run(streams, 800)
        assert result.effective_throughput > 0.95

    def test_stalled_array_backs_the_window_up_to_dma(self):
        """A persistently slow array pins the window tail; once the
        window fills, DMA sees back-pressure."""
        stalls = {i: 16 for i in range(0, 1000, 4)}
        slow = stream("slow", stalls=stalls)
        fast = stream("fast")
        result = BankSimulator().run([slow, fast], 1000)
        assert result.dma_backpressure_cycles > 0
        assert result.mean_input_occupancy > 16


class TestConservation:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(50, 400),
        st.lists(
            st.tuples(st.integers(0, 399), st.integers(1, 12)), max_size=12
        ),
        st.sets(st.integers(0, 399), max_size=30),
        st.integers(1, 3),
    )
    def test_everything_is_consumed_and_delivered(
        self, symbols, stall_specs, reports, sibling_count
    ):
        """Whatever the schedule, the bank consumes every symbol on every
        array and delivers every report exactly once."""
        stalls = {
            idx: depth for idx, depth in stall_specs if idx < symbols
        }
        reports_in_range = frozenset(r for r in reports if r < symbols)
        streams = [
            ArrayStream("main", stall_after=stalls, reports_at=reports_in_range)
        ] + [ArrayStream(f"s{i}") for i in range(sibling_count - 1)]
        result = BankSimulator().run(streams, symbols)
        assert result.reports_delivered == len(reports_in_range)
        assert result.total_cycles >= symbols
        for name, finish in result.array_finish_cycles.items():
            assert finish > 0, name
        # lower bound: the stalled array needs at least its stall budget
        assert result.total_cycles >= symbols  # sanity floor


class TestStreamsFromActivities:
    def test_builder(self):
        from repro.simulators.activity import RegexActivity
        from repro.compiler import CompiledMode
        from repro.simulators.bank import streams_from_activities

        activity = RegexActivity(
            regex_id=0,
            mode=CompiledMode.NBVA,
            cycles=100,
            matches=[5, 50],
        )
        (built,) = streams_from_activities(
            [("array0", [(activity, [5, 6, 7])])], {"array0": 8}
        )
        assert built.stall_after == {5: 8, 6: 8, 7: 8}
        assert built.reports_at == frozenset({5, 50})
