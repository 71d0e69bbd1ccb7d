"""Ablation bench: the two-level I/O buffering of Section 3.3.

Quantifies how much NBVA stall latency the bank's buffer hierarchy hides
for the sibling arrays, and what match storms beyond the 10%-match-rate
design point cost through output-buffer interrupts.
"""

from repro.compiler import CompiledMode
from repro.experiments.common import ExperimentConfig, build_mode_workload
from repro.experiments.common import compile_forced
from repro.core.trace import ActivityTrace
from repro.simulators.bank import ArrayStream, BankSimulator, streams_from_activities


def test_ablation_io_buffer_hiding():
    """Replay a real NBVA workload's stall schedule through the bank:
    the buffered siblings lose far less throughput than the stalling
    array itself."""
    config = ExperimentConfig.scaled()
    workload = build_mode_workload("Yara", CompiledMode.NBVA, config)
    ruleset = compile_forced(
        list(workload.benchmark.patterns),
        CompiledMode.NBVA,
        config,
        bv_depth=workload.chosen_depth,
    )

    def build_and_run():
        # the python oracle's trace keeps each regex's BV-cycle positions
        trace = ActivityTrace(workload.data)
        activities = [
            (trace.regex_activity(r), trace.bv_cycle_indices(r)) for r in ruleset
        ]
        nbva_stream = streams_from_activities(
            [("nbva", activities)], {"nbva": workload.chosen_depth}
        )[0]
        sibling = ArrayStream(name="sibling")
        sim = BankSimulator()
        together = sim.run([nbva_stream, sibling], len(workload.data))
        alone = sim.run([nbva_stream], len(workload.data))
        return together, alone

    together, alone = build_and_run()

    # The shared window tethers the sibling to the stalling array, but
    # the buffering hides part of the stall time.
    stall_total = sum(
        v for v in together.array_starved_cycles.values()
    )
    assert (
        together.array_finish_cycles["sibling"]
        <= together.array_finish_cycles["nbva"]
    )
    assert together.total_cycles <= alone.total_cycles + 8
    finish = together.array_finish_cycles
    print(
        f"\nNBVA array finished at {finish['nbva']} cycles; buffered "
        f"sibling at {finish['sibling']} (window hid "
        f"{finish['nbva'] - finish['sibling']} cycles of exposure)"
    )


def test_ablation_output_path_sizing():
    """The 64-entry output buffer absorbs the paper's <10% match rate;
    storms above it trip CPU interrupts and cost real throughput."""

    def sweep():
        out = {}
        for rate_every in (64, 16, 4, 2):
            reports = frozenset(range(0, 4000, rate_every))
            result = BankSimulator().run(
                [ArrayStream("a0", reports_at=reports)], 4000
            )
            out[rate_every] = result
        return out

    results = sweep()
    assert results[64].output_interrupts <= results[2].output_interrupts
    assert results[2].effective_throughput < results[64].effective_throughput
    # no reports are ever lost, whatever the rate
    for rate_every, result in results.items():
        assert result.reports_delivered == len(range(0, 4000, rate_every))
    print(
        "\nmatch-rate sweep (1/N symbols): "
        + ", ".join(
            f"1/{k}: {v.effective_throughput:.2f} sym/cyc, "
            f"{v.output_interrupts} IRQs"
            for k, v in sorted(results.items(), reverse=True)
        )
    )
