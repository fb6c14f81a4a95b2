"""Self-tests of the benchmark: layer coverage and tracer hygiene.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs at a tiny instruction budget, traced, so a renamed
or no-longer-called public method fails here instead of silently
zeroing its layer's numbers.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layer_trace  # noqa: E402
import sweeps  # noqa: E402
from repro.harness import runner  # noqa: E402
from repro.harness.spec import Scale  # noqa: E402

# The warmup outlasts one refresh interval (tREFI), so REF is issued.
TINY = dataclasses.replace(Scale(), single_core_instructions=1500,
                           multi_core_instructions=1000,
                           warmup_cpu_cycles=32000)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


TARGET_KEYS = [(module, cls_name, attr)
               for module, cls_name, attr, _, _ in layer_trace.TARGETS]


def _originals():
    """Every target attribute's raw object, as stored on its owner."""
    return {(module, cls_name, attr):
            vars(layer_trace.resolve(module, cls_name))[attr]
            for module, cls_name, attr in TARGET_KEYS}


def _traced_tiny(workload, tmp_path):
    specs = workload.specs(1, TINY)
    untraced = sweeps.cold_sweep(specs, workload.jobs, str(tmp_path), "u")
    tracer = layer_trace.Tracer(dump_dir=str(tmp_path))
    with tracer:
        traced = sweeps.cold_sweep(specs, workload.jobs, str(tmp_path), "t")
    tracer.merge_worker_dumps()
    return specs, untraced, traced, tracer


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    try:
        for name, workload in sweeps.WORKLOADS.items():
            runs[name] = _traced_tiny(workload,
                                      tmp_path_factory.mktemp(name))
    finally:
        runner.configure_disk_cache(None)
        runner.clear_memo()
    return runs


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(sweeps.WORKLOADS)


@pytest.mark.parametrize("name", list(sweeps.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(traced_runs, name):
    _, untraced, traced, tracer = traced_runs[name]
    metrics = layer_trace.per_layer_metrics(
        tracer, traced.seconds, untraced.seconds,
        sweeps.WORKLOADS[name].jobs)
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    share = metrics["trace.self_share"][0]
    assert 0.0 < share <= 1.0


@pytest.mark.parametrize("name", list(sweeps.WORKLOADS))
def test_tracing_does_not_perturb_results(traced_runs, name):
    specs, untraced, traced, _ = traced_runs[name]
    assert sweeps.point_failures(specs, untraced, None) == set()
    reference = sweeps.sweep_digests(untraced.sweep)
    assert sweeps.point_failures(specs, traced, reference) == set()


def test_every_wrapped_call_is_reached(traced_runs):
    """Each target is called by at least one workload."""
    calls = {name: 0 for name in layer_trace.Tracer().stats}
    for _, _, _, tracer in traced_runs.values():
        for name, stat in tracer.stats.items():
            calls[name] += stat.calls
    assert [name for name, n in calls.items() if n == 0] == []


def test_every_layer_has_self_time(traced_runs):
    total = {layer: 0.0 for layer in layer_trace.LAYERS}
    for _, _, _, tracer in traced_runs.values():
        for layer, seconds in tracer.layer_self_times().items():
            total[layer] += seconds
    assert [layer for layer, s in total.items() if s <= 0] == []


def test_untraced_path_leaves_attributes_identical(tmp_path):
    before = _originals()
    workload = sweeps.WORKLOADS["fig9-light"]
    try:
        sweeps.cold_sweep(workload.specs(1, TINY)[:2], 1, str(tmp_path),
                          "plain")
    finally:
        runner.configure_disk_cache(None)
        runner.clear_memo()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_uninstall_restores_every_attribute():
    before = _originals()
    tracer = layer_trace.Tracer()
    with tracer:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_missing_target_fails_loudly(monkeypatch):
    before = _originals()
    monkeypatch.setattr(layer_trace, "TARGETS", layer_trace.TARGETS + (
        ("repro.dram.channel", "Channel", "no_such_method",
         "dram.channel", layer_trace.COUNT),))
    with pytest.raises(AttributeError):
        layer_trace.Tracer().install()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_rationale_covers_every_metric():
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        rationale = json.load(fh)
    bench = _benchmark()
    assert set(rationale["workloads"]) == {w["name"]
                                           for w in bench["workloads"]}
    covered = [name for group in rationale["per_layer"]
               for name in group["metrics"]]
    assert sorted(covered) == sorted(m["name"] for m in bench["per_layer"])
