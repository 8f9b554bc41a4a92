"""The benchmark command passes its own gate on both workloads.

``benchmarks/run.py`` checks each round's CSVs, counts failed
operations and compares seed 1's CSV bodies with the reference hashes.
A change that breaks any of these would otherwise fail only in a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["nsfnet_sweep", "metro_aware"])
def test_the_benchmark_command_is_correct_and_matches_the_reference_hashes(workload):
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "0", "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert f"reference hashes: {workload} seed 1 matches" in run.stderr.splitlines()
