"""Every module and script uses each name it imports."""

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


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nfrom x import a, b\nnp.log(a)\n") == [
        "math", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
