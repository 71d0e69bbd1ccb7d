"""Self-tests of the ledger's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (not
part of tier-1, whose ``testpaths`` is ``tests/``).  They check the
arithmetic the numbers rest on, not the numbers.
"""

import json
import statistics
import types

import pytest

from benchmarks.ledger import compare, harness, stats, workloads
from benchmarks.ledger.trace import Tracer, self_times


# -- span arithmetic ----------------------------------------------------------


def test_self_time_is_span_minus_direct_children():
    #   root 0..10, child a 1..4 (grandchild 2..3), child b 5..9
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["a", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == {"root": 3.0, "a": 6.0, "leaf": 1.0}
    # Nothing is counted twice: self times add up to the root's span.
    assert sum(self_times(spans).values()) == 10.0


def test_tracer_nests_spans_and_tags_ops():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", -1, 7)
    assert (inner[0], inner[3], inner[4]) == ("inner", 0, 7)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_wrap_records_observes_and_restores():
    module = types.ModuleType("fake")

    def double(x):
        return 2 * x

    module.double = double
    seen = []
    tracer = Tracer()
    with tracer.wrapped(
        [(module, "double", "fake.double", lambda a, k, r: seen.append((a, r)))]
    ):
        assert module.double is not double
        assert module.double(4) == 8
    assert module.double is double
    assert seen == [((4,), 8)]
    assert [s[0] for s in tracer.spans] == ["fake.double"]


def test_wrap_restores_originals_even_on_exception():
    class Layer:
        def work(self):
            raise RuntimeError("boom")

    class Child(Layer):
        pass  # inherits work: restoring must delete, not re-set

    original = Layer.__dict__["work"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.wrapped(
            [(Layer, "work", "layer.work"), (Child, "work", "child.work")]
        ):
            Child().work()
    assert Layer.__dict__["work"] is original
    assert "work" not in Child.__dict__
    # The failed call still left a closed span behind.
    assert all(span[2] is not None for span in tracer.spans)


def test_wrap_refuses_non_functions():
    module = types.ModuleType("fake")
    module.value = 3
    with pytest.raises(TypeError):
        Tracer().wrap(module, "value", "fake.value")


# -- percentiles and spread -----------------------------------------------------


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile(range(101), 90, min_beyond=0) == 90


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(range(99), 90)  # 9.9 beyond
    assert stats.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        stats.percentile(range(999), 99)
    # Every workload's minimum op count satisfies the p90 rule.
    for workload in workloads.WORKLOADS.values():
        assert workload.min_ops * 0.1 >= stats.SAMPLES_BEYOND


def test_windowed_rate_is_the_median_slice():
    steady = [0.010] * 100
    assert stats.windowed_rate(steady, 1000) == pytest.approx(100_000)
    burst = [0.010] * 70 + [0.050] * 30  # three slices of ten hit by a burst
    assert stats.windowed_rate(burst, 1000) == pytest.approx(100_000)
    assert stats.windowed_rate([0.010] * 5, 1000) == pytest.approx(100_000)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)
    assert stats.spread([5.0]) == 0.0


# -- digests ------------------------------------------------------------------


def _result(matches, energy):
    metrics = types.SimpleNamespace(cycles=100)
    return types.SimpleNamespace(
        matches=matches, metrics=metrics, stall_cycles=0,
        energy_breakdown_pj=energy,
    )


def test_digest_ignores_container_order_only():
    a = _result({0: [5, 9], 1: [3]}, {"x": 1.5, "y": 2.25})
    b = _result({1: [3], 0: [9, 5]}, {"y": 2.25, "x": 1.5})
    assert stats.result_digest(a) == stats.result_digest(b)
    moved = _result({0: [5, 10], 1: [3]}, {"x": 1.5, "y": 2.25})
    drifted = _result({0: [5, 9], 1: [3]}, {"x": 1.5000000000000002, "y": 2.25})
    assert stats.result_digest(a) != stats.result_digest(moved)
    assert stats.result_digest(a) != stats.result_digest(drifted)


def test_digest_of_a_real_scan_repeats():
    patterns = ["abc", "a.c", "xy*z"]
    data = b"zzabcxyyzaxc" * 20
    python = harness.oracle(patterns, data)
    again = harness.oracle(patterns, data)
    assert stats.result_digest(python) == stats.result_digest(again)
    assert stats.sim_counts(python)["matches"] == python.match_count


# -- workloads and the spec ---------------------------------------------------


def test_seed_changes_inputs_but_not_rulesets():
    workload = workloads.WORKLOADS["bulk_mix_paper"]
    patterns0, block0 = workloads.build_inputs(workload, 0)
    patterns1, block1 = workloads.build_inputs(workload, 1)
    again_patterns, again_block = workloads.build_inputs(workload, 0)
    assert patterns0 == patterns1 == again_patterns
    assert block0 == again_block
    assert block0 != block1
    assert len(block0) == len(block1) == workload.block_bytes


def test_durable_scans_the_block_of_the_bulk_keyword_workload():
    bulk = workloads.WORKLOADS["bulk_lnfa_cold"]
    durable = workloads.WORKLOADS["durable_ckpt"]
    assert (bulk.ruleset, bulk.block_bytes, bulk.plant_every) == (
        durable.ruleset, durable.block_bytes, durable.plant_every,
    )


def test_benchmark_json_names_the_workloads_and_layers_the_code_reports():
    from benchmarks.ledger import layers

    spec = harness.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]
    # Limits of the benchmark contract the file is refused for breaking.
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers.OP_LAYERS) <= per_layer
    assert {f"compiler.costmodel_ratio.{c}" for c in layers.COSTMODEL_CONSTANTS} <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "scan_MBps", "op_p50_ms", "peak_rss_mb",
    }


def test_hermetic_env_scrubs_and_redirects(monkeypatch, tmp_path):
    for name in harness.SCRUBBED_ENV:
        monkeypatch.setenv(name, "stray")
    monkeypatch.setenv("RAP_CACHE_DIR", "/somewhere/else")
    env = harness.hermetic_env(tmp_path / "cache")
    assert not set(harness.SCRUBBED_ENV) & set(env)
    assert env["RAP_CACHE_DIR"] == str(tmp_path / "cache")
    assert str(harness.ROOT / "src") in env["PYTHONPATH"]


# -- compare ------------------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    kwargs = {"better": "lower", "bound": 0.10}
    assert compare.verdict(steady, [104.0] * 5, **kwargs)["verdict"] == "ok"
    assert compare.verdict(steady, [115.0] * 5, **kwargs)["verdict"] == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [112.0] * 5, **kwargs)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [70.0] * 5, **kwargs)["verdict"] == "ok"
    assert compare.verdict(noisy, [140.0] * 5, **kwargs)["verdict"] == "worse"
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(steady, [85.0] * 5, **higher)["verdict"] == "worse"
    assert compare.verdict(steady, [95.0] * 5, **higher)["verdict"] == "ok"


def test_compare_exit_code_and_exactness(tmp_path, capsys):
    spec = harness.load_spec()
    names = [m["name"] for m in spec["end_to_end"]]

    def doc(scale, digest):
        return {
            "end_to_end": {"bulk_lnfa_cold": {n: [scale * 10.0] * 3 for n in names}},
            "exact": {"bulk_lnfa_cold@0/golden": digest},
        }

    a, b, c = (tmp_path / f"{x}.json" for x in "abc")
    a.write_text(json.dumps(doc(1.0, "d1")))
    b.write_text(json.dumps(doc(1.0, "d1")))
    c.write_text(json.dumps(doc(1.0, "d2")))
    assert compare.main(str(a), str(b), spec) == 0
    assert compare.main(str(a), str(c), spec) == 1
    assert "NOT IDENTICAL" in capsys.readouterr().out


# -- host-speed normalisation ---------------------------------------------------


def test_normalise_cancels_a_uniform_slowdown():
    latencies = [0.010, 0.011, 0.012, 0.010, 0.011]
    fast = stats.normalise(latencies, [stats.CAL_REF_S] * 5)
    slow = stats.normalise([t * 1.3 for t in latencies], [stats.CAL_REF_S * 1.3] * 5)
    assert fast == pytest.approx(latencies)
    assert slow == pytest.approx(latencies)


def test_normalise_ignores_one_descheduled_spin():
    spins = [stats.CAL_REF_S] * 7
    spins[3] *= 50  # the calibration loop itself got descheduled once
    assert stats.normalise([0.01] * 7, spins) == pytest.approx([0.01] * 7)
    with pytest.raises(ValueError):
        stats.normalise([0.01, 0.02], [stats.CAL_REF_S])


# -- the contract form, end to end ----------------------------------------------


def test_contract_smoke_reports_every_end_to_end_metric():
    import subprocess
    import sys

    spec = harness.load_spec()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "bulk_mix_paper",
         "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 11
    assert {
        name: value["unit"] for name, value in doc["metrics"].items()
    } == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(value["value"] > 0 for value in doc["metrics"].values())
    assert not (harness.ROOT / ".ledger_work").exists()
