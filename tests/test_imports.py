"""Every module and script uses each name it imports and each private name it defines."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
# The package's __init__ imports names to export them.
SOURCES = sorted(path for path in [*ROOT.glob("src/cogecon/*.py"), *ROOT.glob("scripts/*.py")]
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def unused_private_names(source: str) -> list[str]:
    """The module-level _names (functions, classes, assignments) the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nfrom x import a, b\nnp.log(a)\n") == [
        "math", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_private_name():
    source = ("import math\n_A = 1\n_B: int = 2\n__all__ = []\nC = _A\n"
              "def _f():\n    return math.pi\n"
              "def _g():\n    _local = 3\n    return _local\n"
              "class _K:\n    pass\n"
              "print(_g(), [_K])\n")
    assert unused_private_names(source) == ["_B", "_f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []
