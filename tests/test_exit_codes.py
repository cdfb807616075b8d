"""Property test of the exit-code contract: whatever bytes an input file
holds, a command exits 0 (ok) or 2 (input error) and never raises."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convflow.cli import main
from convflow.corpus import serialize_unified
from convflow.embedding import save_embeddings
from convflow.synth import planted_flow


def _valid_inputs() -> dict[str, bytes]:
    pf = planted_flow(k_user=3, k_system=3, n_dialogs=30, dim=8, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for fmt in ("jsonl", "binary"):
            path = os.path.join(tmp, fmt)
            save_embeddings(pf.store, path, format=fmt)
            with open(path, "rb") as fh:
                files[fmt] = fh.read()
    files["corpus"] = serialize_unified(pf.dialogs)
    files["acts"] = b"[raw_to_standard]\ninform\tinform\nask\trequest\n[standard_to_parent]\nrequest\trequest\n"
    files["config"] = b'{"seed": 3, "epsilon": 0.02, "tau": 0.05, "kshot": [1, 2], "repetitions": 2}'
    return files


VALID = _valid_inputs()

# (mutated file, command) pairs; every other input stays valid
COMMANDS = {
    "ingest": ["ingest", "--corpus", "{corpus}", "--acts", "{acts}", "--out", "{out}/ingest.json"],
    "eval": ["eval", "--corpus", "{corpus}", "--embeddings", "{embeddings}", "--config", "{config}",
             "--out", "{out}/report.json"],
    "extract": ["extract", "--corpus", "{corpus}", "--embeddings", "{embeddings}", "--config", "{config}",
                "--out", "{out}/flow", "--clusters-user", "3", "--clusters-system", "3"],
    "sweep": ["sweep", "--corpus", "{corpus}", "--config", "{config}", "--grid", "0.5", "--epochs", "1",
              "--out", "{out}/sweep.tsv"],
}
CASES = [
    ("corpus", "ingest"), ("corpus", "eval"), ("corpus", "extract"), ("corpus", "sweep"),
    ("jsonl", "eval"), ("jsonl", "extract"), ("binary", "eval"), ("binary", "extract"),
    ("acts", "ingest"), ("config", "eval"), ("config", "extract"), ("config", "sweep"),
]

_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(min_value=0),
    st.binary(min_size=1, max_size=4),
)


def _mutate(data: bytes, mutations) -> bytes:
    for op, at, chunk in mutations:
        at %= len(data) + 1
        if op == "replace":
            data = data[:at] + chunk + data[at + len(chunk) :]
        elif op == "insert":
            data = data[:at] + chunk + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + len(chunk) :]
        else:
            data = data[:at]
    return data


def _run(target: str, command: str, data: bytes) -> int:
    embeddings = "binary" if target == "binary" else "jsonl"
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": tmp}
        for name in ("corpus", "acts", "config", embeddings):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data if name == target else VALID[name])
        paths["embeddings"] = paths[embeddings]
        return main([arg.format(**paths) for arg in COMMANDS[command]])


def test_valid_inputs_exit_0():
    for target, command in CASES:
        assert _run(target, command, VALID[target]) == 0, (target, command)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=st.sampled_from(CASES), mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_input_exits_0_or_2(case, mutations):
    target, command = case
    assert _run(target, command, _mutate(VALID[target], mutations)) in (0, 2)


# Positions in a corpus turn, as paths from the turn; a trailing 0 is the
# list's first item.
_LISTS = [("domains",), *(("labels", "dialog_acts", key) for key in ("acts", "main_acts", "original_acts")),
          ("labels", "slots"), ("labels", "intents")]
_TURN_POSITIONS = [(), ("speaker",), ("text",), ("labels",), ("labels", "dialog_acts"), *_LISTS,
                   *((*path, 0) for path in _LISTS)]
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    command=st.sampled_from(["ingest", "eval", "extract", "sweep"]),
    dialog=st.integers(min_value=0),
    turn=st.integers(min_value=0),
    position=st.sampled_from(_TURN_POSITIONS),
    value=_JSON_VALUE,
)
def test_retyped_turn_value_exits_0_or_2(command, dialog, turn, position, value):
    """Valid JSON, with one value in one turn swapped for any JSON value."""
    root = json.loads(VALID["corpus"])
    turns = list(root["dialogs"].values())[dialog % len(root["dialogs"])]
    *path, last = (turn % len(turns), *position)
    holder = turns
    for key in path:
        holder = holder[key]
    if isinstance(last, int) and not holder:
        holder.append(value)
    else:
        holder[last] = value
    assert _run("corpus", command, json.dumps(root).encode()) in (0, 2)


@pytest.mark.parametrize("command", ["ingest", "extract", "sweep"])
def test_unpaired_surrogate_escape_exits_2(command, capsys):
    # byte mutations cannot spell this escape; writing the text back as UTF-8 would fail
    corpus = VALID["corpus"].replace(b'"text": "', b'"text": "\\ud800', 1)
    assert _run("corpus", command, corpus) == 2
    assert "turn 0: 'text' holds an unpaired surrogate" in capsys.readouterr().err
