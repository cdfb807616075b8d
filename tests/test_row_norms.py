"""Every norm in `src/convflow` goes through `embedding.row_norms`, directly
or through `l2_normalize`, so all of them round alike: a row's norm is the
square root of its stacked 1xd @ dx1 dot with itself, which rounds as
`np.linalg.norm` of the row alone does. `np.linalg.norm(x, axis=...)` sums
a matrix's rows differently, and a hand-written copy of the stacked dot is
one more place a fix to the formula has to reach."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convflow"
HOME = ("embedding.py", "row_norms")  # the one place the formula is written


def _is_axis_norm(node: ast.AST) -> bool:
    """`np.linalg.norm(x, ord, axis)` or a `norm(..., axis=...)` call."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "norm"
        and (len(node.args) >= 3 or any(kw.arg == "axis" for kw in node.keywords))
    )


def _is_stacked_self_dot(node: ast.AST) -> bool:
    """`x[:, None, :] @ x[:, :, None]` (or `np.matmul` of them): both sides
    index the same expression, and the indices add an axis."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        sides = [node.left, node.right]
    elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "matmul" and len(node.args) == 2:
        sides = node.args
    else:
        return False
    return (
        all(isinstance(side, ast.Subscript) for side in sides)
        and ast.unparse(sides[0].value) == ast.unparse(sides[1].value)
        and all("None" in ast.unparse(side.slice) for side in sides)
    )


def stray_norms(paths, home=HOME) -> list[str]:
    """`file:line` of each axis norm call and each stacked row self-dot,
    except inside the function `home` names."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == home
            for inner in ast.walk(node)
        }
        found += sorted(
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if id(node) not in exempt and (_is_axis_norm(node) or _is_stacked_self_dot(node))
        )
    return [f"{name}:{line}" for name, line in found]


def test_every_norm_in_src_goes_through_row_norms():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10  # the scan found the package
    assert stray_norms(paths) == []
    # without the exemption the scan finds the formula once, in row_norms' return
    tree = ast.parse((SRC / "embedding.py").read_text(encoding="utf-8"))
    (home,) = [node for node in tree.body if getattr(node, "name", None) == "row_norms"]
    assert stray_norms([SRC / "embedding.py"], home=None) == [f"embedding.py:{home.body[-1].lineno}"]


def test_the_scan_flags_each_hand_written_norm(tmp_path):
    path = tmp_path / "embedding.py"
    path.write_text(
        "import numpy as np\n"
        "def row_norms(x):\n"
        "    return np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())\n"
        "def f(x, c):\n"
        "    a = np.linalg.norm(x, axis=1)\n"
        "    b = np.linalg.norm(x, None, 1)\n"
        "    s = np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())\n"
        "    t = np.matmul(x.T[:, None, :], x.T[:, :, None])\n"
        "    sims = x[:, None, :] @ c[:, None]\n"
        "    whole = np.linalg.norm(x)\n"
        "    return x @ x.T\n"
    )
    assert stray_norms([path]) == ["embedding.py:5", "embedding.py:6", "embedding.py:7", "embedding.py:8"]
    assert stray_norms([path], home=None) == ["embedding.py:3"] + stray_norms([path])
