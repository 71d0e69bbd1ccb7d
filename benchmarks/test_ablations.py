"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one RAP mechanism and measures its contribution:

* Shift-And vector transfer vs crossbar transfer for linear patterns
  (Section 3.2's Theta(n) vs Theta(n^2) argument);
* multi-LNFA binning on vs off (Fig. 7's power gating);
* the NBVA unfolding threshold (Section 4.1's compiler knob);
* the single-column set1 optimization (Section 3.1).
"""

import pytest

from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
from repro.experiments.common import ExperimentConfig, build_mode_workload
from repro.simulators import RAPSimulator


@pytest.fixture(scope="module")
def lnfa_workload():
    return build_mode_workload(
        "Prosite", CompiledMode.LNFA, ExperimentConfig.scaled()
    )


@pytest.fixture(scope="module")
def nbva_workload():
    return build_mode_workload(
        "Snort", CompiledMode.NBVA, ExperimentConfig.scaled()
    )


def test_ablation_lnfa_vector_vs_crossbar(lnfa_workload):
    """Linear patterns on the LNFA path (active-vector shift) vs the NFA
    path (full crossbar transfer): the vector path must win on energy."""
    patterns = list(lnfa_workload.benchmark.patterns)
    data = lnfa_workload.data
    lnfa_rs = compile_ruleset(patterns, CompilerConfig())
    nfa_rs = compile_ruleset(
        patterns, CompilerConfig(forced_mode=CompiledMode.NFA)
    )
    sim = RAPSimulator()

    def run_both():
        return (
            sim.run(lnfa_rs, data, bin_size=16),
            sim.run(nfa_rs, data),
        )

    vector, crossbar = run_both()
    assert vector.matches == crossbar.matches
    assert vector.energy_uj < crossbar.energy_uj
    # the crossbar path pays for state-transition switch accesses the
    # vector path does not perform at all
    assert crossbar.energy_breakdown_pj.get("state-transition", 0) > 0
    assert vector.energy_breakdown_pj.get("state-transition", 0) == 0
    print(
        f"\nvector {vector.energy_uj:.3f} uJ vs crossbar "
        f"{crossbar.energy_uj:.3f} uJ "
        f"({crossbar.energy_uj / vector.energy_uj:.2f}x)"
    )


def test_ablation_binning(lnfa_workload):
    """Binning concentrates initial states: energy falls, matches don't."""
    patterns = list(lnfa_workload.benchmark.patterns)
    data = lnfa_workload.data
    ruleset = compile_ruleset(patterns, CompilerConfig())
    sim = RAPSimulator()

    def run_both():
        return (
            sim.run(ruleset, data, bin_size=1),
            sim.run(ruleset, data, bin_size=32),
        )

    unbinned, binned = run_both()
    assert binned.matches == unbinned.matches
    assert binned.energy_uj < unbinned.energy_uj
    print(
        f"\nbinning saves "
        f"{(1 - binned.energy_uj / unbinned.energy_uj) * 100:.1f}% energy"
    )


def test_ablation_unfold_threshold(nbva_workload):
    """Raising the threshold unfolds more repetitions: more states, fewer
    counters; the language (matches) never changes."""
    patterns = list(nbva_workload.benchmark.patterns)
    data = nbva_workload.data
    sim = RAPSimulator()

    def sweep():
        out = {}
        for threshold in (4, 16, 64):
            ruleset = compile_ruleset(
                patterns,
                CompilerConfig(unfold_threshold=threshold, bv_depth=8),
            )
            out[threshold] = (ruleset, sim.run(ruleset, data))
        return out

    results = sweep()
    match_sets = [r.matches for _, r in results.values()]
    assert all(m == match_sets[0] for m in match_sets)
    states = {t: rs.total_states for t, (rs, _) in results.items()}
    assert states[4] <= states[16] <= states[64], states
    nbva_counts = {
        t: len(rs.by_mode(CompiledMode.NBVA))
        for t, (rs, _) in results.items()
    }
    assert nbva_counts[64] <= nbva_counts[4]
    print(f"\nstates per threshold: {states}; NBVA regexes: {nbva_counts}")


def test_ablation_set1_single_column(nbva_workload):
    """The set1 optimization stores one initial-vector column per entry
    state instead of a full-width vector; measure the columns it saves."""
    patterns = list(nbva_workload.benchmark.patterns)
    ruleset = compile_ruleset(patterns, CompilerConfig(bv_depth=8))

    def accounting():
        optimized = 0
        unoptimized = 0
        for regex in ruleset.by_mode(CompiledMode.NBVA):
            for request in regex.tile_requests:
                optimized += request.set1_columns
                # without the optimization, every entry stores a vector
                # as wide as the BV it initializes
                if request.set1_columns:
                    per_group_width = request.bv_columns
                    unoptimized += per_group_width
        return optimized, unoptimized

    optimized, unoptimized = accounting()
    assert optimized < unoptimized
    print(
        f"\nset1 columns: {optimized} optimized vs {unoptimized} full-width "
        f"({unoptimized - optimized} CAM columns saved)"
    )
