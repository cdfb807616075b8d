"""numpy is the package's only runtime dependency: every import in
`src/convflow` names the standard library, numpy or convflow itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convflow"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "convflow"}


def foreign_imports(paths) -> list[str]:
    """`file:line module` for each import of a top-level package outside
    ALLOWED; relative imports are convflow's own."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    return found


def test_src_imports_only_stdlib_numpy_and_convflow():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert foreign_imports(paths) == []


def test_foreign_import_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport numpy as np\nfrom . import cli\n\ndef f():\n    import scipy.linalg\n")
    assert foreign_imports([module]) == ["mod.py:6 scipy.linalg"]
