"""Every demo runs to completion without writing to stderr, and its stdout
matches its pin in the golden manifest (`tests/golden.py`)."""

import hashlib

import pytest

import golden


def test_every_demo_has_a_stdout_pin():
    assert sorted(golden.demo_digests()) == sorted(golden.demo_pin(demo) for demo in golden.DEMOS)


@pytest.mark.parametrize("demo", golden.DEMOS)
def test_demo_runs_cleanly(demo):
    result = golden.run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == golden.demo_digests().get(golden.demo_pin(demo)), (
        f"{demo}'s stdout differs from its pin in tests/golden.json:\n{result.stdout.decode()}"
    )
