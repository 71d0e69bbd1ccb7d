"""Bench: regenerate Fig. 10 (design-space exploration).

Paper shape expectations: deeper BVs trade throughput (longer
bit-vector-processing stalls) for area/energy (higher compression);
larger bins trade padding area for power-gating energy.
"""

from repro.experiments import fig10_dse


def test_fig10_dse(config):
    result = fig10_dse.run(config)
    print()
    print(result.to_table())

    # Fig. 10a: throughput never improves with depth; on the large-bound
    # suites, depth buys area.
    for sweep in result.nbva_sweeps:
        norm = sweep.normalized()
        throughputs = [t for _, _, _, t in norm]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(throughputs, throughputs[1:])
        ), f"{sweep.benchmark}: throughput must fall with depth"
    for name in ("ClamAV", "Snort", "Yara"):
        sweep = result.sweep("nbva", name)
        assert sweep.point(32).area_mm2 < sweep.point(4).area_mm2, name
    clamav = result.sweep("nbva", "ClamAV")
    assert clamav.point(32).area_mm2 < 0.6 * clamav.point(4).area_mm2

    # Small-bound suites are insensitive to depth (nothing to compress).
    for name in ("RegexLib", "SpamAssassin"):
        sweep = result.sweep("nbva", name)
        assert sweep.point(32).area_mm2 <= sweep.point(4).area_mm2 * 1.05

    # Fig. 10b: big bins concentrate initial states -> lower energy;
    # throughput is untouched by binning.
    for sweep in result.lnfa_sweeps:
        big = sweep.point(32)
        small = sweep.point(1)
        assert big.energy_uj < small.energy_uj, sweep.benchmark
        assert abs(big.throughput - small.throughput) < 1e-9

    # The chosen parameters are recorded and legal.
    for sweep in result.nbva_sweeps:
        assert sweep.chosen in (4, 8, 16, 32)
    for sweep in result.lnfa_sweeps:
        assert sweep.chosen in (1, 2, 4, 8, 16, 32)
