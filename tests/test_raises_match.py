"""Every bad-input failure is one type, InputError, and every remote fault is
RemoteError; only the message tells two failures apart. So a test that
expects one of them must name the message, or it passes on any other
failure of that family."""

import ast
import pathlib

GENERIC = {"InputError", "RemoteError"}


def _names(node: ast.expr) -> set[str]:
    """The class names in a `pytest.raises` first argument (a name, a dotted
    name or a tuple of them)."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def bare_generic_raises(paths) -> tuple[int, list[str]]:
    """How many `pytest.raises` calls expect InputError or RemoteError, and
    `file:line` of each that has no `match=`."""
    checked, bare = 0, []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "pytest.raises"
                and node.args
                and _names(node.args[0]) & GENERIC
            ):
                checked += 1
                if not any(kw.arg == "match" for kw in node.keywords):
                    bare.append(f"{path.name}:{node.lineno}")
    return checked, bare


def test_every_input_or_remote_error_expectation_names_its_message():
    checked, bare = bare_generic_raises(sorted(pathlib.Path(__file__).parent.glob("*.py")))
    assert checked > 30  # the scan found the suite's expectations (43 when written)
    assert not bare, f"pytest.raises(InputError/RemoteError) without match=: {bare}"


def test_the_scan_flags_a_bare_expectation(tmp_path):
    path = tmp_path / "test_example.py"
    path.write_text(
        "import pytest\n"
        "from convflow import errors\n"
        "def test_a():\n"
        "    with pytest.raises(InputError, match='k=3 exceeds'):\n"
        "        pass\n"
        "    with pytest.raises(errors.RemoteError):\n"
        "        pass\n"
        "    with pytest.raises((ValueError, InputError)) as exc:\n"
        "        pass\n"
        "    with pytest.raises(ValueError):\n"
        "        pass\n"
    )
    assert bare_generic_raises([path]) == (3, ["test_example.py:6", "test_example.py:8"])
