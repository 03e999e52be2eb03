"""Source hygiene checks that need no linter: every name a module of the
package imports must be used in that module, every function or class a
module defines must be named somewhere else in the repository, and every
parameter of a function must be read by its body."""

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


def unread_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter of a named function
    that its body never reads; `self` is exempt, and so are lambdas."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((node.lineno, node.name, p.arg) for p in params
                   if p.arg != "self" and p.arg not in read)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    src = (
        "class C:\n    def m(self, a, b):\n        return a\n\n\n"
        "def f(x, *rest, key=None, **extra):\n    g = lambda unused: x\n    return g, extra\n"
    )
    assert unread_parameters(src) == [(2, "m", "b"), (6, "f", "key"), (6, "f", "rest")]
