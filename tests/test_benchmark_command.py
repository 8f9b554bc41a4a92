"""The benchmark command passes its own gate on both workloads.

``benchmarks/run.py`` checks each round's CSVs, counts failed
operations and compares seed 1's CSV bodies with the reference hashes.
A change that breaks any of these would otherwise fail only in a
benchmark run.  Its traced run reports every per-layer metric that
``BENCHMARK.json`` declares, which a span renamed or no longer reached
would break.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _benchmark(workload, trace, seed=1):
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    return run, summary


# Seed 2 of nsfnet_sweep is the first whose aware plane forbids a range
# (at 1 dB), so it checks the path where a pair job splits.
@pytest.mark.parametrize(
    "workload, seed",
    [("nsfnet_sweep", 1), ("metro_aware", 1), ("nsfnet_sweep", 2)],
    ids=["nsfnet_sweep", "metro_aware", "nsfnet_sweep-seed2"],
)
def test_the_benchmark_command_is_correct_and_matches_the_reference_hashes(workload, seed):
    run, _ = _benchmark(workload, 0, seed)
    assert f"reference hashes: {workload} seed {seed} matches" in run.stderr.splitlines()


@pytest.mark.parametrize("workload", ["nsfnet_sweep", "metro_aware"])
def test_the_traced_benchmark_command_reports_every_declared_layer(workload):
    _, summary = _benchmark(workload, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [entry["name"] for entry in declared if entry["name"] not in summary["metrics"]]
    assert not missing, missing
