"""Bank-level I/O streaming simulation (Section 3.3).

The RAP bank streams input through a two-level buffer hierarchy:

* the 128-entry ping-pong **Bank Input Buffer** holds a sliding window of
  the stream filled by DMA;
* each array's 8-entry **input FIFO** decouples its consumption from its
  siblings — when one array stalls in a bit-vector-processing phase, the
  others keep draining their FIFOs (the "partially hide the latency
  across arrays" mechanism);
* a **polling arbiter** refills the FIFOs from the window when any array
  is in NBVA mode (otherwise the window is broadcast);
* matches flow through 2-entry **output FIFOs** onto a shared bus into
  the 64-entry ping-pong **Bank Output Buffer**; when it fills, an
  interrupt stalls the bank while the CPU drains it.

This simulator executes that protocol cycle by cycle given each array's
stall schedule and match schedule (both produced by the functional
engines), quantifying effective throughput, buffer occupancies,
DMA back-pressure, and output interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.buffers import Fifo, PingPongBuffer
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig


@dataclass(frozen=True)
class ArrayStream:
    """One array's demand on the I/O system.

    ``stall_cycles`` maps input symbol index -> extra cycles the array
    spends before consuming the *next* symbol (the bit-vector phase);
    ``report_cycles`` is the set of symbol indices that produce a match
    report.
    """

    name: str
    stall_after: dict[int, int] = field(default_factory=dict)
    reports_at: frozenset[int] = frozenset()


@dataclass
class BankIoResult:
    """What the bank-level run measured."""

    input_symbols: int
    total_cycles: int
    dma_backpressure_cycles: int
    array_starved_cycles: dict[str, int]
    array_finish_cycles: dict[str, int]
    output_interrupts: int
    interrupt_stall_cycles: int
    reports_delivered: int
    mean_input_occupancy: float
    mean_output_occupancy: float

    @property
    def effective_throughput(self) -> float:
        """Symbols per cycle actually sustained by the whole bank."""
        return self.input_symbols / self.total_cycles if self.total_cycles else 0.0


class BankSimulator:
    """Cycle-level simulation of one bank's streaming protocol."""

    def __init__(
        self,
        hw: HardwareConfig = DEFAULT_CONFIG,
        *,
        dma_symbols_per_cycle: int = 4,
        interrupt_drain_cycles: int = 32,
        bus_reports_per_cycle: int = 1,
    ):
        self.hw = hw
        self.dma_symbols_per_cycle = dma_symbols_per_cycle
        self.interrupt_drain_cycles = interrupt_drain_cycles
        self.bus_reports_per_cycle = bus_reports_per_cycle

    def run(self, streams: list[ArrayStream], input_symbols: int) -> BankIoResult:
        """Stream ``input_symbols`` through the bank protocol."""
        if not streams:
            raise ValueError("a bank needs at least one array stream")
        if len(streams) > self.hw.arrays_per_bank:
            raise ValueError(
                f"{len(streams)} arrays exceed the bank's "
                f"{self.hw.arrays_per_bank}"
            )
        hw = self.hw
        # The Bank Input Buffer is a multi-reader sliding window over the
        # stream: every array reads each symbol, so a slot retires only
        # once the slowest array has passed it.  Model it as the interval
        # [min(fed), produced) bounded by the buffer capacity; the
        # ping-pong organisation means DMA refills in half-buffer bursts.
        window_capacity = hw.bank_input_buffer_entries
        window_occupancy_sum = 0
        out_buffer = PingPongBuffer(hw.bank_output_buffer_entries, "bank-out")
        in_fifos = {
            s.name: Fifo(hw.array_input_fifo_entries, f"{s.name}-in")
            for s in streams
        }
        out_fifos = {
            s.name: Fifo(hw.array_output_fifo_entries, f"{s.name}-out")
            for s in streams
        }

        produced = 0  # symbols DMA'd into the window so far
        fed = {s.name: 0 for s in streams}  # symbols moved into each FIFO
        consumed = {s.name: 0 for s in streams}
        stall_left = {s.name: 0 for s in streams}
        starved = {s.name: 0 for s in streams}
        finish = {s.name: 0 for s in streams}
        # The shared window can only advance past symbols every array has
        # read; we emulate that by bounding the fastest reader to the
        # window size ahead of the slowest.
        dma_backpressure = 0
        interrupts = 0
        interrupt_stall = 0
        drain_left = 0
        delivered = 0

        cycle = 0
        guard = (input_symbols + 1) * (
            4 + max(
                (max(s.stall_after.values()) if s.stall_after else 0)
                for s in streams
            )
        ) + self.interrupt_drain_cycles * (input_symbols + 8)
        while any(consumed[s.name] < input_symbols for s in streams):
            cycle += 1
            if cycle > guard:
                raise RuntimeError("bank simulation failed to make progress")

            # CPU interrupt drain freezes the whole bank.
            if drain_left > 0:
                drain_left -= 1
                interrupt_stall += 1
                out_buffer.observe()
                continue

            # 1. DMA refill of the sliding window, bounded so the fastest
            # array never outruns the slowest by more than the window.
            window_tail = min(fed.values())
            room = window_capacity - (produced - window_tail)
            allowed = min(
                self.dma_symbols_per_cycle,
                max(room, 0),
                input_symbols - produced,
            )
            if allowed > 0:
                produced += allowed
            elif produced < input_symbols and room <= 0:
                dma_backpressure += 1

            # 2. Polling arbiter: move symbols from the window into array
            # FIFOs (round-robin, one per array per cycle), each array
            # reading through its own cursor.
            for stream in streams:
                fifo = in_fifos[stream.name]
                if fifo.full:
                    continue
                if fed[stream.name] < produced:
                    fifo.push(fed[stream.name])
                    fed[stream.name] += 1

            # 3. Arrays consume one symbol per cycle unless stalled.
            for stream in streams:
                name = stream.name
                if consumed[name] >= input_symbols:
                    continue
                if stall_left[name] > 0:
                    stall_left[name] -= 1
                    continue
                fifo = in_fifos[name]
                if fifo.empty:
                    starved[name] += 1
                    continue
                index = fifo.peek()
                if index in stream.reports_at and out_fifos[name].full:
                    # report back-pressure: hold the symbol until the bus
                    # frees the output FIFO
                    out_fifos[name].stats.rejected += 1
                    continue
                fifo.pop()
                consumed[name] += 1
                if consumed[name] >= input_symbols:
                    finish[name] = cycle
                stall_left[name] = stream.stall_after.get(index, 0)
                if index in stream.reports_at:
                    out_fifos[name].push(index)

            # 4. Output bus: array FIFOs -> bank output buffer.
            moved = 0
            for stream in streams:
                fifo = out_fifos[stream.name]
                while not fifo.empty and moved < self.bus_reports_per_cycle:
                    if out_buffer.back_free == 0:
                        out_buffer.try_swap()
                    if out_buffer.back_free == 0:
                        break
                    out_buffer.fill([fifo.pop()])
                    moved += 1

            # 5. Interrupt when the output buffer can no longer absorb
            # reports: the filling half is full while the other half
            # still holds undrained data (a swap cannot help).
            out_buffer.try_swap()
            if out_buffer.back_free == 0 and out_buffer.front_available > 0:
                total_out = (
                    out_buffer.front_available + out_buffer.half_capacity
                )
                interrupts += 1
                drain_left = self.interrupt_drain_cycles
                delivered += total_out
                out_buffer = PingPongBuffer(
                    hw.bank_output_buffer_entries, "bank-out"
                )

            window_occupancy_sum += produced - min(fed.values())
            out_buffer.observe()
            for fifo in in_fifos.values():
                fifo.observe()

        # final drain of whatever reports remain buffered
        delivered += out_buffer.front_available + (
            out_buffer.half_capacity - out_buffer.back_free
        )
        delivered += sum(len(f) for f in out_fifos.values())

        return BankIoResult(
            input_symbols=input_symbols,
            total_cycles=cycle,
            dma_backpressure_cycles=dma_backpressure,
            array_starved_cycles=dict(starved),
            array_finish_cycles=dict(finish),
            output_interrupts=interrupts,
            interrupt_stall_cycles=interrupt_stall,
            reports_delivered=delivered,
            mean_input_occupancy=window_occupancy_sum / cycle if cycle else 0.0,
            mean_output_occupancy=out_buffer.stats.mean_occupancy,
        )


def streams_from_activities(
    names_and_activities, depth_of: dict[str, int]
) -> list[ArrayStream]:
    """Build :class:`ArrayStream` descriptors from regex activities.

    ``names_and_activities`` yields ``(array_name, [(RegexActivity, BV
    cycles), ...])`` — the positions from an :class:`~repro.core.trace.
    ActivityTrace`; each array's stall schedule is the union of its
    regexes' bit-vector phases at its configured depth, and its report
    schedule the union of their match positions.
    """
    streams = []
    for name, activities in names_and_activities:
        depth = depth_of.get(name, 0)
        stalls: dict[int, int] = {}
        reports: set[int] = set()
        for activity, bv_cycles in activities:
            for index in bv_cycles:
                stalls[index] = depth
            reports.update(activity.matches)
        streams.append(
            ArrayStream(
                name=name,
                stall_after=stalls,
                reports_at=frozenset(reports),
            )
        )
    return streams
