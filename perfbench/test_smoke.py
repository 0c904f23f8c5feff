"""Smoke test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness  # noqa: E402
from perfbench.harness import END_TO_END, PER_LAYER, run_benchmark  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: events per pass: enough for races on every workload, small enough to be quick
TINY = {"text-churn": 3000, "binary-sync": 3000, "windows-process": 1024}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_metrics_and_counted_work(name):
    result, detail = run_benchmark(name, 1, 0, trace=False, events=TINY[name], root=ROOT)
    assert result["correct"], detail
    assert result["failed"] == 0 and detail["race_line_mismatches"] == 0
    assert detail["reference_race_lines"] > 0
    assert result["attempted"] >= detail["passes"] * TINY[name]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, traced_detail = run_benchmark(
        name, 1, 0, trace=True, events=TINY[name], root=ROOT
    )
    assert traced["correct"], traced_detail
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == PER_LAYER
    assert traced["metrics"]["trace.overhead"]["value"] > 0
    # counted work repeats exactly across two runs of one seed
    assert traced_detail["counted_work"] == detail["counted_work"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_gate_catches_a_wrong_race_line(monkeypatch):
    wrong = ["race 1.hot write:1:0:0 write:2:0:0 seq=0"]
    monkeypatch.setattr(harness, "reference_lines", lambda lines: wrong)
    result, detail = run_benchmark("text-churn", 1, 0, trace=False, events=1000, root=ROOT)
    assert not result["correct"]
    assert detail["race_line_mismatches"] > 0 and result["failed"] > 0


def test_command_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no program to run."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
