"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest bench/test_harness.py -q
"""
from __future__ import annotations

import json
import sys

import pytest

import gate
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace, golden=None):
    return run.run_workload(workload, workloads.DEFAULT_SEED, 0.01, trace,
                            size=run.TINY, golden=golden)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_lists_share_only_parameter_free_calls(workload):
    def keys(repeat):
        return {c.key for c in workloads.generate(workload, 0, repeat).calls}

    for repeat in (1, workloads.WARMUP):
        assert all("bell" in key for key in keys(0) & keys(repeat))


def test_wrong_golden_value_is_counted_as_failed():
    golden = gate.load_golden("mixed-loworder")
    first = workloads.generate("mixed-loworder", workloads.DEFAULT_SEED).calls[0]
    golden[first.key] = "0" * 64
    result = tiny("mixed-loworder", 0, golden)
    assert not result["correct"]
    assert result["failed"] >= 1 and run.ops_failed_frac(result) > 0


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = tiny("mixed-loworder", 1)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1] and counts[0]["protocols.calls"] > 0


def test_missing_layer_function_reads_as_missing():
    tracer = spans.Tracer()
    tracer._bind("swapsim.fock", "no_such_function", "fock.fidelity",
                 tracer._span_wrapper)
    metrics = tracer.metrics()
    assert "fock.fidelity_ms" not in metrics and "fock.fidelity_calls" not in metrics
    assert metrics["fock.reorder_ms"] == 0
