"""Smoke test: the quick demos run to completion without writing to stderr.
Demo 04 (about a minute) is left out; its sweep settings are covered by
test_criterion_4_sweep_soft_beats_hard."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_contrastive_losses.py", "02_similarity_metrics.py", "03_flow_extraction.py"])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
