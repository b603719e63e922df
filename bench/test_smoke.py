"""Fast smoke check of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest bench -q

Runs every workload as a smoke run (``--seconds 0``: two outer iterations),
untraced and traced, and checks the result line against ``BENCHMARK.json``:
every metric name present with its unit and a numeric value, outputs
correct.  Also checks that the benchmark refuses to run without the library
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
