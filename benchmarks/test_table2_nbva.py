"""Bench: regenerate Table 2 (NBVA mode vs NFA mode and SotA ASICs).

Paper shape expectations (Section 5.4 / DESIGN.md): NFA mode costs
~3-4x the energy and area of NBVA mode on repetition-heavy suites and
~1x on RegexLib; BVAP is the only design cheaper in energy but pays
more area; CA is the largest; counting stalls make NBVA throughput <=
NFA throughput, with ClamAV slowest.
"""

from repro.experiments import table2_nbva

REP_HEAVY = ["Snort", "Suricata", "Yara", "ClamAV"]


def test_table2_nbva(config):
    result = table2_nbva.run(config)
    print()
    print(result.to_table())
    norm = result.normalized_averages()

    # NFA mode pays heavily for unfolding on repetition-heavy suites.
    for name in REP_HEAVY:
        row = result.row(name)
        assert row.energy_uj["NFA"] > 2.5 * row.energy_uj["NBVA"], name
        assert row.area_mm2["NFA"] > 2.0 * row.area_mm2["NBVA"], name

    # RegexLib gains little from counting (small, rare repetitions) —
    # far less than the repetition-heavy suites do.
    regexlib = result.row("RegexLib")
    regexlib_gain = regexlib.energy_uj["NFA"] / regexlib.energy_uj["NBVA"]
    assert regexlib_gain < 2.0
    for name in REP_HEAVY:
        row = result.row(name)
        assert row.energy_uj["NFA"] / row.energy_uj["NBVA"] > regexlib_gain

    # Average ordering across designs (geometric mean vs NBVA baseline).
    assert norm["energy_uj"]["NFA"] > norm["energy_uj"]["CAMA"] > 1.5
    assert norm["energy_uj"]["BVAP"] < 1.0, "BVAP's dedicated BVM is cheaper"
    assert norm["area_mm2"]["BVAP"] > 1.0, "BVAP's fixed slots waste area"
    assert norm["area_mm2"]["CA"] == max(
        norm["area_mm2"].values()
    ), "CA is the largest design"
    assert norm["area_mm2"]["NFA"] > 2.0

    # Throughput: NBVA stalls; the clock ordering holds elsewhere.
    for row in result.rows:
        assert row.throughput["NBVA"] <= row.throughput["NFA"] + 1e-9
        assert abs(row.throughput["NFA"] - 2.08) < 0.01
        assert abs(row.throughput["CAMA"] - 2.14) < 0.01
        assert abs(row.throughput["CA"] - 1.82) < 0.01
    clamav = result.row("ClamAV")
    assert clamav.throughput["NBVA"] == min(
        r.throughput["NBVA"] for r in result.rows
    ), "ClamAV's deep BVs stall the most"
