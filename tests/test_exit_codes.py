"""Property test of the exit-code contract: whatever bytes an input file
holds, a command exits 0 (ok) or 2 (input error) and never raises; whatever
the remote encoder replies, it exits 0, 2 or 3 (remote error). That holds
also for JSON nested as deep as the interpreter's recursion limit, at each
of the four places JSON enters."""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convflow import remote
from convflow.cli import main
from convflow.corpus import serialize_unified, utterance_id
from convflow.embedding import save_embeddings
from convflow.synth import planted_flow
from mockserver import Handler, serving

PLANTED = planted_flow(k_user=3, k_system=3, n_dialogs=30, dim=8, seed=5)


def _valid_inputs() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for fmt in ("jsonl", "binary"):
            path = os.path.join(tmp, fmt)
            save_embeddings(PLANTED.store, path, format=fmt)
            with open(path, "rb") as fh:
                files[fmt] = fh.read()
    files["corpus"] = serialize_unified(PLANTED.dialogs)
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


# the largest |x| of a vector: every float from the smallest subnormal to near the largest float
_MAGNITUDE = st.floats(min_value=5e-324, max_value=1.7e308)


def _with_peak(vector, magnitude: float) -> list[float]:
    """`vector` scaled so that its largest |x| is `magnitude` exactly."""
    peak = max(map(abs, vector))
    return [x / peak * magnitude for x in vector]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(command=st.sampled_from(["eval", "extract"]), magnitude=_MAGNITUDE)
def test_vector_of_any_finite_magnitude_exits_0_and_prints_nothing(command, magnitude):
    """One JSONL vector is scaled to the drawn magnitude: a square that over- or
    underflows neither zeroes its unit vector nor fails it as the zero vector."""
    first, rest = VALID["jsonl"].split(b"\n", 1)
    record = json.loads(first)
    record["vector"] = _with_peak(record["vector"], magnitude)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run("jsonl", command, json.dumps(record).encode() + b"\n" + rest)
    assert (code, err.getvalue()) == (0, "")


# what an encoder can send: any bytes, any JSON value, a nesting too deep for
# the parser, or one vector per text (a count off by one at times) that is the
# planted vector scaled to a drawn magnitude or a drawn list of JSON values
_TEXT_VECTORS = {t.text: PLANTED.store[utterance_id(d.dialog_id, i)].tolist()
                 for d in PLANTED.dialogs for i, t in enumerate(d.turns)}
_COUNT_OFF_BY = st.just(0) | st.sampled_from([-1, 1])
_REPLY = st.one_of(
    st.tuples(st.just("planted"), _MAGNITUDE, _COUNT_OFF_BY),
    st.tuples(st.just("vectors"), st.lists(_JSON_VALUE | _MAGNITUDE, max_size=4), _COUNT_OFF_BY),
    st.tuples(st.just("bytes"), st.binary(max_size=24)),
    st.tuples(st.just("json"), _JSON_VALUE),
    st.tuples(st.just("deep"), st.integers(min_value=1, max_value=5000)),
)


def _reply_body(reply, texts: list[str]) -> bytes:
    kind, *drawn = reply
    if kind == "bytes":
        return drawn[0]
    if kind == "json":
        return json.dumps(drawn[0]).encode()
    if kind == "deep":
        return b"[" * drawn[0] + b"]" * drawn[0]
    value, extra = drawn
    n = max(len(texts) + extra, 0)
    if kind == "planted":
        vectors = [_with_peak(_TEXT_VECTORS[text], value) for text in (texts * 2)[:n]]
    else:
        vectors = [value] * n
    return json.dumps({"vectors": vectors}).encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(status=st.just(200) | st.sampled_from([204, 400, 404, 429, 500, 503]), reply=_REPLY)
def test_any_encoder_reply_exits_0_2_or_3_without_a_traceback(status, reply):
    class Encoder(Handler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            self.reply(_reply_body(reply, payload["texts"]), status)

    with tempfile.TemporaryDirectory() as tmp, serving(Encoder, "/embed") as url, \
            mock.patch.object(remote, "sleep", lambda seconds: None), \
            mock.patch.dict(os.environ, {"D2F_EMBED_URL": url}), contextlib.redirect_stderr(io.StringIO()) as err:
        corpus = os.path.join(tmp, "corpus")
        with open(corpus, "wb") as fh:
            fh.write(VALID["corpus"])
        code = main(["eval", "--corpus", corpus, "--reps", "2", "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (code, err.getvalue())
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()


# a JSON value nested to the interpreter's recursion limit plus an offset, in
# lists or in objects; json.loads fails past a depth near the limit, which
# depends on the Python version and on how deep the parse starts
_NESTING = st.tuples(st.integers(min_value=-30, max_value=5), st.sampled_from(["[", '{"k": ']))


def _nested(nesting) -> bytes:
    offset, opening = nesting
    depth = sys.getrecursionlimit() + offset
    return (opening * depth + "0" + ("]" if opening == "[" else "}") * depth).encode()


def _in_a_fresh_thread(function):
    """`function()` on a new thread, whose stack starts empty as a command's
    does, so the limit falls inside the offsets; raises what it raised."""
    outcome = []

    def run():
        try:
            outcome.append(function())
        except BaseException as exc:  # re-raised on the test's own thread
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def _nested_input_run(site: str, nested: bytes) -> int:
    """One command with `nested` at `site`: in an ignored field of the first
    corpus turn (`ingest --corpus`), as the config file's `seed` value, in an
    ignored field of the first JSONL record, or in an ignored field of each
    remote encoder reply."""
    if site == "corpus":
        corpus = VALID["corpus"].replace(b'"speaker": ', b'"extra": ' + nested + b', "speaker": ', 1)
        return _run("corpus", "ingest", corpus)
    if site == "config":
        return _run("config", "eval", b'{"seed": ' + nested + b"}")
    if site == "jsonl":
        return _run("jsonl", "eval", VALID["jsonl"].replace(b"{", b'{"extra": ' + nested + b", ", 1))

    class Encoder(Handler):
        def do_POST(self):
            texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
            vectors = json.dumps([_TEXT_VECTORS[text] for text in texts]).encode()
            self.reply(b'{"extra": ' + nested + b', "vectors": ' + vectors + b"}")

    with tempfile.TemporaryDirectory() as tmp, serving(Encoder, "/embed") as url, \
            mock.patch.dict(os.environ, {"D2F_EMBED_URL": url}):
        corpus = os.path.join(tmp, "corpus")
        with open(corpus, "wb") as fh:
            fh.write(VALID["corpus"])
        return main(["eval", "--corpus", corpus, "--reps", "2", "--out", os.path.join(tmp, "report.json")])


@pytest.mark.parametrize("site", ["corpus", "config", "jsonl", "reply"])
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(nesting=_NESTING)
def test_json_nested_near_the_recursion_limit_exits_0_2_or_3(site, nesting):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _in_a_fresh_thread(lambda: _nested_input_run(site, _nested(nesting)))
    expected = (0, 3) if site == "reply" else (0, 2)
    assert code in expected and "Traceback" not in err.getvalue(), (code, err.getvalue())


# ---------------------------------------------------------------------------
# Flag and config values: edge values of every value-taking flag and every
# config key exit 0 or 2, and an exit 0 writes only finite numbers
# ---------------------------------------------------------------------------

# a small valid run of each command: its config-key settings, given as flags
# or in the config file, and its other flags; a drawn flag is appended and wins
BASE = {
    "ingest": ({"corpus": "corpus", "out": "ingest.json"}, []),
    "eval": ({"corpus": "corpus", "embeddings": "jsonl", "repetitions": 2, "out": "report.json"}, []),
    "extract": ({"corpus": "corpus", "embeddings": "jsonl", "out": "flow", "clusters_user": 3, "clusters_system": 3}, []),
    "losscheck": ({}, ["--cases", "2"]),
    "sweep": ({"corpus": "corpus", "out": "sweep.tsv"}, ["--grid", "0.5", "--epochs", "1"]),
}
OUTPUTS = ("report.json", "flow/flow.json", "sweep.tsv")

# "0" first: Hypothesis draws a strategy's simplest value, its first, early.
# Flags that scale the work (_WORK) get no large positive value.
_INTS = ["0", "-1", "1", "-0", "+2", "3", "00", str(2**31), str(2**32), str(2**63 - 1), str(2**63), str(-(2**63)),
         str(-(2**63) - 1), "1_000", "1e3", "0x10", "1.5", "nan", "inf", "", " ", "abc"]
_WORK = [v for v in _INTS if v not in ("1_000", str(2**31), str(2**32), str(2**63 - 1), str(2**63))]
_FLOATS = ["0", "-0.0", "nan", "-nan", "inf", "-inf", "1e-300", "5e-324", "1e400", "-1e400", "0.5", "1", "1.5", "-1",
           "1e308", "", "abc", "0,5"]
_LISTS = ["0", "", ",", "1", "1,2", "2,1", "1,1", "1,,2", "-1", "1000", str(2**63), "a,b", "1.5", "nan", "inf",
          "1e400", "-0.0", "1e-300", "0.5,nan", "0.5,1e400", "0.5:0.5:1", "0.1:0.3:0.1", "1:0:0.1", "0:1:0",
          "0:1:-0.1", "nan:1:0.1", "0.1:inf:0.1", "0:1:1e-9", "1:2", "::", "0.5:1:0.5:1"]
FLAGS = {
    ("ingest", "--out"): _LISTS,
    ("ingest", "--acts"): _LISTS,
    ("eval", "--kshot"): _LISTS,
    ("eval", "--ndcg-k"): _INTS,
    ("eval", "--reps"): _WORK,
    ("eval", "--seed"): _INTS,
    ("extract", "--epsilon"): _FLOATS,
    ("extract", "--clusters-user"): _INTS,
    ("extract", "--clusters-system"): _INTS,
    ("extract", "--seed"): _INTS,
    ("losscheck", "--cases"): _WORK,
    ("losscheck", "--seed"): _INTS,
    ("sweep", "--grid"): _LISTS,
    ("sweep", "--epochs"): _WORK,
    ("sweep", "--tau"): _FLOATS,
    ("sweep", "--seed"): _INTS,
}

# each config key with a command that reads it; every key is also given a
# value of every other JSON type
_JSON_VALUES = [0, -1, 1, 2**63, -(2**63) - 1, 10**400, -0.0, 1e-300, 5e-324, 0.5, 1e308, float("nan"), float("inf"),
                float("-inf"), True, False, None, "", "1", "abc", "a\x00b", [], [0], [1, 2], [2, 1], [1, 1], [1.5],
                [-1], ["1"], [True], [2**63], {}, {"k": 1}]
_JSON_WORK = [v for v in _JSON_VALUES if not (isinstance(v, int) and not isinstance(v, bool) and v > 3)]
CONFIG_KEYS = {
    "seed": ("eval", _JSON_VALUES),
    "epsilon": ("extract", _JSON_VALUES),
    "tau": ("sweep", _JSON_VALUES),
    "kshot": ("eval", _JSON_VALUES),
    "ndcg_k": ("eval", _JSON_VALUES),
    "repetitions": ("eval", _JSON_WORK),
    "clusters_user": ("extract", _JSON_VALUES),
    "clusters_system": ("extract", _JSON_VALUES),
    "corpus": ("ingest", _JSON_VALUES),
    "embeddings": ("eval", _JSON_VALUES),
    "out": ("sweep", _JSON_VALUES),
}


def _floats(value):
    """The floats in a parsed JSON value; its ints are finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


def _run_with(command: str, flag: str | None = None, config: dict | None = None) -> int:
    """Run `command`'s small valid argv, with `flag` appended or its config-key
    settings updated by `config` and passed in a config file, in a fresh
    working directory; return the exit code, argparse's too. On exit 0, every
    number in a written report, flow graph or sweep table is finite."""
    settings, argv = BASE[command]
    argv = [command, *argv]
    if config is None:
        for key, value in settings.items():
            argv += ["--reps" if key == "repetitions" else "--" + key.replace("_", "-"), str(value)]
        argv.append(flag)
    else:
        argv += ["--config", "config.json"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in ("corpus", "jsonl"):
                with open(name, "wb") as fh:
                    fh.write(VALID[name])
            if config is not None:
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump({**settings, **config}, fh)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
            if code == 0:
                for path in filter(os.path.exists, OUTPUTS):
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                    if path.endswith(".json"):
                        numbers = list(_floats(json.loads(text)))
                    else:
                        numbers = [float(cell) for line in text.splitlines()[1:] for cell in line.split("\t")]
                    assert all(math.isfinite(x) for x in numbers), (argv, path, text)
            return code
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("command, flag", list(FLAGS), ids=[f"{c}{f}" for c, f in FLAGS])
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_flag_value_exits_0_or_2(command, flag, data):
    value = data.draw(st.sampled_from(FLAGS[command, flag]))
    assert _run_with(command, flag=f"{flag}={value}") in (0, 2)


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data())
def test_config_value_exits_0_or_2(key, data):
    command, values = CONFIG_KEYS[key]
    value = data.draw(st.sampled_from(values))
    assert _run_with(command, config={key: value}) in (0, 2)
