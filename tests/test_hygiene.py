"""Source hygiene checks that need no linter: every name a module of the
package imports must be used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lqccs"


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read elsewhere in the
    module (`from __future__ import annotations` is exempt)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    imported.pop("annotations", None)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = "from a import b, c\nimport d.e\nimport f as g\n\nprint(c)\n"
    assert unused_imports(src) == [(1, "b"), (2, "d"), (3, "g")]
