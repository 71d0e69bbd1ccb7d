"""Fig. 12 scans each (automaton, input) exactly once across all designs.

The acceptance property of the shared-trace flow: pricing RAP, BVAP,
CAMA, and CA on one benchmark performs one functional scan per distinct
regex fingerprint (and one per LNFA bin), never re-scanning the input
for another architecture — CAMA and CA compile to identical NFAs and
must share every scan.
"""

from repro.core import trace as trace_mod
from repro.core.trace import ActivityTrace, regex_fingerprint
from repro.experiments.common import (
    ALL_BENCHMARK_NAMES,
    ExperimentConfig,
    build_workload,
)
from repro.experiments.fig12_asic import ARCHITECTURES, simulate_benchmark

SMALL = ExperimentConfig(benchmark_size=6, input_length=1500)


def test_each_fingerprint_scanned_once(monkeypatch):
    real_regex = trace_mod.collect_regex_activity
    real_bin = trace_mod.collect_bin_activity
    regex_scans: list = []
    bin_scans: list = []
    requests: list = []
    monkeypatch.setattr(
        trace_mod,
        "collect_regex_activity",
        lambda c, d, **kw: regex_scans.append(regex_fingerprint(c))
        or real_regex(c, d, **kw),
    )
    monkeypatch.setattr(
        trace_mod,
        "collect_bin_activity",
        lambda b, d, h: bin_scans.append(id(b)) or real_bin(b, d, h),
    )
    real_request = ActivityTrace.regex_activity
    monkeypatch.setattr(
        ActivityTrace,
        "regex_activity",
        lambda self, c: requests.append(1) or real_request(self, c),
    )

    name = ALL_BENCHMARK_NAMES[0]
    workload = build_workload(name, SMALL)
    trace = ActivityTrace(workload.data)
    row = simulate_benchmark(workload, SMALL, trace)

    # Every architecture actually priced, from this very trace.
    assert set(row.points) == set(ARCHITECTURES)
    # No fingerprint (and no bin) was ever scanned twice.
    assert len(regex_scans) == len(set(regex_scans))
    assert len(bin_scans) == len(set(bin_scans))
    # Every scan went through the shared trace's miss counter.
    assert trace.scan_count == len(regex_scans) + len(bin_scans)
    # Sharing genuinely happened: the four designs requested far more
    # activities than were scanned (CAMA and CA alone request identical
    # fingerprints for every pattern).
    assert len(requests) > len(regex_scans)


def test_private_trace_is_equivalent():
    """A caller-supplied trace and the default private one agree."""
    name = ALL_BENCHMARK_NAMES[0]
    workload = build_workload(name, SMALL)
    shared = simulate_benchmark(workload, SMALL, ActivityTrace(workload.data))
    private = simulate_benchmark(workload, SMALL)
    for arch in ARCHITECTURES:
        assert shared.points[arch] == private.points[arch]
