"""Bench: regenerate Table 3 (LNFA mode vs NFA mode and SotA ASICs).

Paper shape expectations: LNFA mode has the lowest energy of the RAP
modes on every benchmark (79% average saving at paper scale — smaller
here, where per-array constants weigh more); its area is at worst on par
with NFA mode (the paper's 1.5x win needs full-size rule sets to
amortize bin padding); LNFA and NFA modes share the same throughput
(one symbol per cycle, no stalls).
"""

from repro.experiments import table3_lnfa


def test_table3_lnfa(config):
    result = table3_lnfa.run(config)
    print()
    print(result.to_table())
    norm = result.normalized_averages()

    # LNFA mode is the cheapest way RAP can run these regexes.
    for row in result.rows:
        assert row.energy_uj["LNFA"] < row.energy_uj["NFA"], row.benchmark

    # Average energy advantage over the NFA mode and the baselines.
    assert norm["energy_uj"]["NFA"] > 1.5
    assert norm["energy_uj"]["CAMA"] > 1.1
    assert norm["energy_uj"]["BVAP"] > 1.1

    # BVAP drags its provisioned BVMs along for plain NFAs.
    assert norm["area_mm2"]["BVAP"] > 1.2

    # Area: parity or better on average vs a dedicated NFA run.
    assert norm["area_mm2"]["NFA"] > 0.8

    # LNFA mode keeps NFA-mode throughput: one input symbol per cycle.
    for row in result.rows:
        assert abs(row.throughput["LNFA"] - row.throughput["NFA"]) < 1e-9
        assert abs(row.throughput["LNFA"] - 2.08) < 0.01
