"""Bench: regenerate Table 4 (RAP vs the hAP FPGA on ANMLZoo).

Paper shape expectations: RAP sustains >10x hAP's throughput on every
suite; hAP's published throughput is nearly flat across suites; RAP
remains more energy-efficient.  (The paper's 1.7-5.5x power ratios
assume full-size rule sets; scaled-down workloads draw proportionally
less power, so only the ordering is asserted.)
"""

from repro.experiments import table4_fpga


def test_table4_fpga(config):
    result = table4_fpga.run(config)
    print()
    print(result.to_table())

    for row in result.rows:
        assert row.throughput_ratio > 10, row.benchmark
        assert row.rap_power_w < row.fpga_power_w
        rap_eff = row.rap_throughput / row.rap_power_w
        fpga_eff = row.fpga_throughput / row.fpga_power_w
        assert rap_eff > fpga_eff, row.benchmark

    # Snort is hAP's slowest published point, so RAP's lead peaks there.
    snort = result.row("Snort")
    assert snort.throughput_ratio == max(
        r.throughput_ratio for r in result.rows
    )
