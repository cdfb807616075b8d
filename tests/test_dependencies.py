"""numpy is the package's only runtime dependency: every import in
`src/convflow` names the standard library, numpy or convflow itself. The
package binds no names, so each public name has one import path, its own
module, and importing a module loads only what that module uses."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def _python(statement: str) -> subprocess.CompletedProcess:
    """Run `statement` in a fresh interpreter that imports convflow from this
    tree and turns every warning into an error."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-W", "error", "-c", statement], env=env, capture_output=True, text=True,
                          timeout=60)


def test_package_init_is_a_docstring_only():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_each_module_imports_alone_without_a_warning(module):
    result = _python(f"import convflow.{module}")
    assert (result.returncode, result.stderr) == (0, "")


def test_importing_the_corpus_module_loads_neither_numpy_nor_another_convflow_module():
    result = _python("import sys, convflow.corpus\n"
                     "print(*sorted(m for m in sys.modules if m.startswith(('numpy', 'convflow.'))))")
    assert (result.returncode, result.stdout.split()) == (0, ["convflow.corpus", "convflow.errors"]), result.stderr
