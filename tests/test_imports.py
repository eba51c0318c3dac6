"""Every import in src/ and tests/ is used, unless marked ``# noqa: F401``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_covers_both_trees():
    names = {path.name for path in FILES}
    assert {"core.py", "__init__.py", "test_imports.py"} <= names


def test_oracle_flags_unused_and_honours_noqa():
    source = "import os\nimport sys  # noqa: F401\n"
    source += "from json import (  # noqa: F401\n    dumps,\n)\n"
    source += "from math import pi as tau, e\nprint(tau)\n"
    assert unused_imports(source) == [(1, "os"), (6, "e")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
