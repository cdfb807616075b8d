"""The CLI's outputs on small fixed inputs match the committed golden
manifest byte for byte (see `tests/golden.py`, which also rewrites it)."""

import golden


def test_cli_outputs_match_the_golden_manifest():
    want = golden.load()
    got = golden.outputs()
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"outputs differ from tests/golden.json: {moved}"
