"""Bench: regenerate Fig. 12 (overall RAP vs BVAP / CAMA / CA).

Paper shape expectations: RAP leads CAMA and CA on energy efficiency
(1.5x and 1.2x) and compute density (1.3x and 2.5x); it at least matches
BVAP's compute density (1.6x at paper scale) at comparable energy
efficiency; CAMA burns the most power; RegexLib is RAP's worst case
(pure-NFA work pays the reconfiguration controller).
"""

from repro.experiments import fig12_asic


def test_fig12_asic(config):
    result = fig12_asic.run(config)
    print()
    print(result.ratio_table())

    # Energy efficiency: RAP beats CAMA and CA on average.
    assert result.mean_ratio("CAMA", "energy_eff") < 0.8
    assert result.mean_ratio("CA", "energy_eff") < 0.9

    # Compute density: RAP at least matches every baseline on average
    # and clearly beats CA.
    for arch in ("BVAP", "CAMA", "CA"):
        assert result.mean_ratio(arch, "compute_density") < 1.1, arch
    assert result.mean_ratio("CA", "compute_density") < 0.65

    # Power: CAMA is the hungriest (no compression, fastest clock).
    assert result.mean_ratio("CAMA", "power_w") > 1.5

    # Per-benchmark highlights of Section 5.5.
    for name in ("Yara", "ClamAV"):
        row = result.row(name)
        assert row.ratio("CAMA", "energy_eff") < 0.75, (
            f"{name}: NBVA-dominated suites favour RAP strongly"
        )
    regexlib = result.row("RegexLib")
    others = [r for r in result.rows if r.benchmark != "RegexLib"]
    assert regexlib.ratio("CAMA", "energy_eff") > min(
        r.ratio("CAMA", "energy_eff") for r in others
    ), "RegexLib (pure NFA) is among RAP's weakest wins vs CAMA"

    # Every architecture reports physically sane numbers.
    for row in result.rows:
        for point in row.points.values():
            assert point.energy_uj > 0
            assert point.area_mm2 > 0
            assert 0 < point.throughput <= 2.15
            assert point.power_w > 0
