"""Tiny-size runs of every workload, and BENCHMARK.json against the
harness."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = run.ROOT


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes(name, trace, tmp_path):
    result, detail = run.run_workload(name, 3, 0, trace, str(tmp_path),
                                      tiny=True)
    assert detail["failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 5
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    w = workloads.build(name, 3, str(tmp_path), tiny=True)
    assert detail["counts"]["optimizer_steps"] == w.steps
    if trace:
        metrics = result["metrics"]
        assert metrics["consensus.steps"]["value"] == w.steps
        assert metrics["numkit.adam_step.calls"]["value"] == w.steps
        assert detail["missing_targets"] == []
    else:
        assert set(detail["digests"]) == {"train", "localize"}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "default-pipeline", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
