"""Inside `src/convflow`, only `corpus.utterances` calls `corpus.utterance_id`:
every join from a corpus turn to its embedding, its cluster or its trajectory
step walks the same (utterance id, turn) pairs, so the id rule and the turn
order are written once. `utterance_id` stays public for callers outside the
package. The `{dialog_id}:{index}` f-string itself is written only in
`utterance_id`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convflow"
HOMES = {("corpus.py", "utterances"), ("corpus.py", "utterance_id")}


def _is_id_call(node: ast.AST) -> bool:
    """`utterance_id(...)`, also as an attribute, or an import of the name."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).split(".")[-1] == "utterance_id"
    return isinstance(node, ast.ImportFrom) and any(alias.name == "utterance_id" for alias in node.names)


def _is_id_format(node: ast.AST) -> bool:
    """An f-string that joins a dialog id and one more value by ':', as in `f"{d.dialog_id}:{i}"`."""
    return (
        isinstance(node, ast.JoinedStr)
        and [type(v) for v in node.values] == [ast.FormattedValue, ast.Constant, ast.FormattedValue]
        and node.values[1].value == ":"
        and ast.unparse(node.values[0].value).split(".")[-1] == "dialog_id"
    )


def stray_ids(paths, homes=HOMES) -> list[str]:
    """`file:line` of each call or import of `utterance_id` and each
    `{dialog_id}:{x}` f-string, except inside the functions `homes` names."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in homes
            for inner in ast.walk(node)
        }
        found += sorted(
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if id(node) not in exempt and (_is_id_call(node) or _is_id_format(node))
        )
    return [f"{name}:{line}" for name, line in found]


def test_only_corpus_utterances_makes_utterance_ids():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10  # the scan found the package
    assert stray_ids(paths) == []
    # without the exemptions the scan finds the call in `utterances` and the f-string in `utterance_id`
    tree = ast.parse((SRC / "corpus.py").read_text(encoding="utf-8"))
    lines = {node.name: node.body[-1].lineno for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert stray_ids([SRC / "corpus.py"], homes=set()) == [
        f"corpus.py:{lines['utterance_id']}", f"corpus.py:{lines['utterances']}"
    ]


def test_the_scan_flags_each_hand_rolled_id(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "from . import corpus\n"
        "from .corpus import utterance_id as uid_of\n"
        "def f(dialogs):\n"
        "    a = [corpus.utterance_id(d.dialog_id, i) for d in dialogs for i in range(len(d.turns))]\n"
        "    b = [f'{d.dialog_id}:{i}' for d in dialogs for i in range(len(d.turns))]\n"
        "    c = [f'{d.dialog_id}-{i}', f'{d.dialog_id}:', f'{d.speaker}:{i}', utterances(dialogs)]\n"
        "    return a, b, c\n"
    )
    assert stray_ids([path]) == ["cli.py:2", "cli.py:4", "cli.py:5"]
    assert stray_ids([path], homes={("cli.py", "f")}) == ["cli.py:2"]
