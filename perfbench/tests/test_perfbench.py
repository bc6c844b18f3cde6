"""The benchmark's own tests: tiny-size smoke runs and count determinism.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int = 1, trace: int = 0) -> dict:
    """One tiny run; returns the parsed last line of its output."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = run(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == units(section)
    values = [entry["value"] for entry in result["metrics"].values()]
    assert all(isinstance(value, float) for value in values)
    if section == "end_to_end":
        assert all(value > 0 for value in values)


@pytest.mark.parametrize("workload, counts", [
    ("mean-200k", ("converge_steps", "msgs_per_node")),
    ("churn-50k", ("epoch_steps", "msgs_per_node")),
])
def test_counts_repeat_exactly_at_one_seed(workload, counts):
    first, second = run(workload, seed=3), run(workload, seed=3)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_no_program_means_no_result(tmp_path):
    """Beside only BENCHMARK.json and its own files, a run fails quietly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
