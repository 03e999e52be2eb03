"""Source hygiene checks that need no linter: every name a module of the
package imports must be used in that module, and every function or class
a module defines must be named somewhere else in the repository."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lqccs"


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


def unused_definitions(modules: dict, others: list) -> list:
    """(module, name) for each module-level function or class of `modules`
    (file name -> source) whose name occurs in no source of `modules` and
    no text of `others` except at its definition."""
    defined = [
        (module, node.name)
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    words = Counter(re.findall(r"\w+", "\n".join(list(modules.values()) + others)))
    definitions = Counter(name for _, name in defined)
    return sorted((m, name) for m, name in defined if words[name] <= definitions[name])


def test_no_unused_definitions():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    others.append((ROOT / "README.md").read_text())
    assert unused_definitions(modules, others) == []


def test_unused_definition_is_reported():
    src = "def kept():\n    pass\n\n\ndef dead():\n    return kept()\n\n\nclass Alive:\n    pass\n"
    assert unused_definitions({"m.py": src}, ["Alive()\n"]) == [("m.py", "dead")]
