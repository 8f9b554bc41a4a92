"""Smoke test: the quick narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# demos/attack_scenarios.py is left out: it simulates for about a minute.
QUICK_DEMOS = ["detection_walkthrough.py", "first_fit_walkthrough.py", "physical_layer_tour.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr
