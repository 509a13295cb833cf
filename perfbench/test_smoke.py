"""Smoke test of the benchmark on tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "cli_pairwise": {"inliers": 5, "outliers": 2},
    "third_order": {"inliers": 6, "outliers": 2, "knn": 20, "triangles": 40},
    "oracle_sweep": {"inliers": 3, "outliers": (0, 1)},
}


@pytest.fixture(autouse=True)
def tiny_inputs(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _tiny(workload, trace):
    return ("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))


def test_benchmark_json_matches_the_printed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED)
    layer = [(m[0], m[1], m[2]) for m in tracing.LAYER_METRICS]
    layer.append(("trace.overhead", "ratio", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    code, lines, result = _run(capsys, *_tiny(workload, 0))
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0
    report = "\n".join(lines[:-1])
    for name in ("accuracy_mean", "failed_ratio", *units):
        assert f" {name} " in report
    if workload == "oracle_sweep":
        assert " global_opt_rate " in report


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_layer_metric_and_restores_names(capsys, workload):
    code, _, result = _run(capsys, *_tiny(workload, 1))
    assert code == 0 and result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])
        if name.endswith("self_s") or name.endswith("target_s"):
            assert metric["value"] >= 0.0

    spans = np.load(ROOT / ".perfbench" / f"spans-{workload}.npz")
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    assert (dur - covered).min() >= -1e-9
    assert list(spans["names"]) == tracing.NAMES

    for name, module in sys.modules.items():
        if name == "adgm" or name.startswith("adgm."):
            for value in vars(module).values():
                assert not hasattr(value, "__wrapped__"), (name, value)
    init = sys.modules["adgm.tensor"].SparseTensor.__init__
    assert not hasattr(init, "__wrapped__")


def test_failed_check_makes_the_command_fail(capsys, monkeypatch):
    # Each instance is digested twice, when written and when read back.
    # Warm-up instances get equal digests; every timed instance fails its
    # read-back check.
    calls = itertools.count()

    def digest(instance):
        k = next(calls)
        return k // 2 if k < 2 * run.SETUP_REPS else k

    monkeypatch.setattr(workloads, "instance_digest", digest)
    code, _, result = _run(capsys, *_tiny("cli_pairwise", 0))
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *_tiny("third_order", 0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
