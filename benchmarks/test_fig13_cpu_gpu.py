"""Bench: regenerate Fig. 13 (RAP vs GPU and CPU software engines).

Paper shape expectations: RAP's throughput is roughly an order of
magnitude above the GPU engine and far above the CPU, at a small
fraction of their power, for >100x / >1000x energy-efficiency leads.
"""

from repro.experiments import fig13_cpu_gpu


def test_fig13_cpu_gpu(config):
    result = fig13_cpu_gpu.run(config)
    print()
    print(result.to_table())

    for row in result.rows:
        assert row.rap_throughput > 5 * row.gpu_throughput, row.benchmark
        assert row.rap_throughput > 25 * row.cpu_throughput, row.benchmark
        assert row.rap_power_w < row.gpu_power_w / 10
        assert row.efficiency_vs_gpu > 100, row.benchmark
        assert row.efficiency_vs_cpu > 1000, row.benchmark
        # the GPU beats the CPU on both axes (HybridSA's result)
        assert row.gpu_throughput > row.cpu_throughput
        assert row.gpu_power_w < row.cpu_power_w
