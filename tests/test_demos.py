"""Smoke test: every demo runs to completion without writing to stderr."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    ["01_contrastive_losses.py", "02_similarity_metrics.py", "03_flow_extraction.py", "04_temperature_sweep.py"],
)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
