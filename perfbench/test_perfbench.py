"""Tests of the benchmark itself: the checker bites, traced counts repeat, names match.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from run import GOLDENS, HERE, ROOT, Checker, set_up

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = json.loads(GOLDENS.read_text())["default_seed"]
HELD_OUT_SEED = json.loads(GOLDENS.read_text())["held_out_seed"]

# Per-layer metrics that must be nonzero on each workload that exercises them.
SHOT_LAYERS = [
    "simulator.run_shots.calls", "simulator.run_shots.pct", "simulator.run_shots.self_pct",
    "simulator.shots", "simulator.meaningful_fraction", "simulator.shots_per_s",
    "simulator.meaningful_shots_per_s",
    "gates.apply_matrix.calls", "gates.apply_matrix.calls_in_simulator",
    "gates.apply_matrix.calls_per_op", "gates.apply_matrix.bytes_computed",
    "gates.apply_matrix.pct",
    "rng.substream_value.calls", "rng.substream_value.pct",
    "rng.substream_seed.calls", "rng.substream_seed.pct",
    "experiments.self_pct", "dilation.svd_scaled.calls", "dilation.svd_scaled.pct",
]
TRANSFER_LAYERS = [
    "transfer.spectral_summary.calls", "transfer.spectral_summary.iterations",
    "transfer.spectral_summary.pct",
    "transfer.assemble_transfer.calls", "transfer.assemble_transfer.pct",
]
MODEL_LAYERS = ["model.r_matrix.calls", "model.r_matrix.pct", "trace.overhead_ratio",
                "trace.op_s_mean"]
FIRES = {
    "estimate": SHOT_LAYERS + TRANSFER_LAYERS + MODEL_LAYERS,
    "deep": SHOT_LAYERS + MODEL_LAYERS,
    "oracle": TRANSFER_LAYERS + MODEL_LAYERS,
}
# Counts that must repeat exactly between two traced runs of one seed.
COUNT_UNITS = ("count", "B")


@pytest.fixture
def scratch():
    """A fresh directory inside the checkout (the benchmark writes nowhere else)."""
    path = run.OUT / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def outputs():
    """One op of each workload at the default seed, with its workload and goldens."""
    done = {}
    for name in run.WORKLOADS:
        workload, pinned, _ = set_up(name, DEFAULT_SEED)
        done[name] = (workload, pinned, workload.op(0))
    return done


def check(workload, pinned, out) -> Checker:
    checker = Checker(workload, pinned)
    checker.run(0, lambda: (out, 0.0))
    return checker


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_pinned_outputs_pass(outputs, name):
    checker = check(*outputs[name])
    assert checker.failures == []


def test_perturbed_estimate_golden_fails(outputs):
    workload, pinned, out = outputs["estimate"]
    for key in ("f0", "f1", "estimate"):
        bad = [dict(r) for r in pinned]
        bad[0][key] = math.nextafter(bad[0][key], math.inf)
        checker = check(workload, bad, out)
        assert checker.failed == 1, key


def test_one_wrong_histogram_count_fails(outputs):
    workload, pinned, (vec, diag) = outputs["deep"]
    hist = diag.final_histogram
    counts = dict(hist.counts)
    low, high = sorted(counts, key=counts.get)[:2]
    # move one shot between two records: sums and statistics still hold
    counts[low] -= 1
    counts[high] += 1
    moved = dataclasses.replace(diag, final_histogram=dataclasses.replace(hist, counts=counts))
    assert workload.problems((vec, moved)) == []
    assert check(workload, pinned, (vec, moved)).failed == 1
    counts[high] += 1  # one extra count: the histogram no longer sums
    extra = dataclasses.replace(diag, final_histogram=dataclasses.replace(hist, counts=counts))
    assert workload.problems((vec, extra)) != []


def test_oracle_tolerance(outputs):
    workload, pinned, out = outputs["oracle"]
    near = dataclasses.replace(out, ratio=out.ratio * (1 + 1e-10))
    far = dataclasses.replace(out, ratio=out.ratio * (1 + 1e-6))
    assert check(workload, pinned, near).failed == 0
    assert check(workload, pinned, far).failed == 1


def test_corrupted_goldens_give_nonzero_error_rate(scratch):
    goldens = json.loads(GOLDENS.read_text())
    goldens["deep"]["ops"][str(DEFAULT_SEED)][0]["meaningful_shots"] += 1
    path = scratch / "goldens.json"
    path.write_text(json.dumps(goldens))
    workload, pinned, _ = set_up("deep", DEFAULT_SEED, goldens_path=path)
    checker = Checker(workload, pinned)
    run.run_untraced(workload, checker, seconds=0.0)
    assert checker.attempted == 1 and checker.failed == 1


@pytest.mark.parametrize("name", ["estimate", "deep"])
def test_held_out_seed_is_pinned_and_passes(name):
    workload, pinned, _ = set_up(name, HELD_OUT_SEED)
    assert len(pinned) == run.INPUTS_PER_SEED
    checker = Checker(workload, pinned)
    checker.run(1, lambda: (workload.op(1), 0.0))
    assert checker.failures == []


def traced_metrics(name, seed=DEFAULT_SEED):
    workload, pinned, _ = set_up(name, seed)
    checker = Checker(workload, pinned)
    tracer, plain, traced = run.run_traced(workload, checker, seconds=60.0)
    assert checker.failures == []
    return run.per_layer_metrics(tracer, plain, traced)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_metrics_fire_and_counts_repeat(monkeypatch, name):
    monkeypatch.setattr(run, "TRACED_OPS", 2)
    first, second = traced_metrics(name), traced_metrics(name)
    assert list(first) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in FIRES[name]:
        assert first[metric][0] > 0, metric
    for metric, (value, unit) in first.items():
        if unit in COUNT_UNITS:
            assert second[metric][0] == value, metric


def test_wrappers_reach_every_caller_binding():
    run.import_package()
    mods = sys.modules
    bindings = [
        ("vertexsim.simulator", "apply_matrix"), ("vertexsim.transfer", "apply_matrix"),
        ("vertexsim.gates", "apply_matrix"),
        ("vertexsim.experiments", "run_shots"), ("vertexsim.experiments", "spectral_summary"),
        ("vertexsim.experiments", "svd_scaled"), ("vertexsim.experiments", "r_matrix"),
        ("vertexsim.experiments", "substream_seed"), ("vertexsim.simulator", "substream_seed"),
        ("vertexsim.simulator", "substream_value"), ("vertexsim", "estimate_lambda1"),
    ]
    with run.Tracer().installed():
        for module, attr in bindings:
            assert hasattr(getattr(mods[module], attr), "__wrapped__"), (module, attr)
    for module, attr in bindings:
        assert not hasattr(getattr(mods[module], attr), "__wrapped__"), (module, attr)


def test_end_to_end_names_match_benchmark_json():
    metrics = run.end_to_end_metrics([1.0], 1.0)
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]


def test_fails_without_the_package(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "estimate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
