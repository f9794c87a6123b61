"""Smoke test: demos 01-04 run to completion as scripts, with warnings as errors.

Demo 05 is left out because it is a full training run of about half a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_divergences_and_threshold_classifiers.py",
    "02_risk_bounds.py",
    "03_label_shift_correction.py",
    "04_synthetic_scenarios.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
