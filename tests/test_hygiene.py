"""Source hygiene checks that need no linter: every name a module of the
package imports must be used in that module, every function or class a
module defines must be named somewhere else in the repository, every
parameter of a function must be read by its body, every defaulted
parameter must be passed by some call, and by a call outside the tests
unless allowlisted, no module but `claims` itself imports `claims`, no
module but `qcore` writes a tolerance or a rounding granularity as a
literal, and no module but `rewrite` constructs a standard form."""

import ast
import re
from collections import Counter, defaultdict
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
    that its body never reads, other than as an argument of a call to a
    function of the same name (`f(x)` or `o.f(x)` in `f`); `self` is
    exempt, and so are lambdas."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        recursed = {id(arg) for call in ast.walk(node) if isinstance(call, ast.Call)
                    and node.name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                    for arg in call.args + [kw.value for kw in call.keywords]}
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in recursed}
        out.extend((node.lineno, node.name, p.arg) for p in params
                   if p.arg != "self" and p.arg not in read)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    src = (
        "class C:\n    def m(self, a, b):\n        return a\n\n\n"
        "def f(x, *rest, key=None, **extra):\n    g = lambda unused: x\n    return g, extra\n\n\n"
        "def walk(t, env):\n    return [walk(c, env=env) for c in t]\n\n\n"
        "def size(t, acc):\n    return acc + sum(size(c, acc) for c in t)\n"
    )
    assert unread_parameters(src) == [
        (2, "m", "b"), (6, "f", "key"), (6, "f", "rest"), (11, "walk", "env")]


def unpassed_defaults(modules: dict, others: list) -> list:
    """(module, "function.parameter") for each defaulted parameter of a
    function of `modules` (file name -> source) that no call in `modules` or
    `others` passes, by position or by keyword.

    Calls are matched by the name they call: `f(...)` and `x.f(...)` both
    reach every function named `f`, and `C(...)` reaches `C.__init__`.
    Functions that share a name pool their calls, so a collision can only
    let an unpassed default through, never report a passed one. A method's
    positions start after `self` or `cls`; a call with `*args` passes every
    position from the star on, and one with `**kwargs` every parameter."""
    passed = defaultdict(set)  # called name -> positions, keywords, "*" marks
    for source in list(modules.values()) + others:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            got = passed[getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    got.add(("*", i))
                    break
                got.add(i)
            got.update(kw.arg or "**" for kw in node.keywords)
    out = []
    for module, source in modules.items():
        tree = ast.parse(source)
        classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if id(node) in classes and not static:
                positional = positional[1:]
            callee = classes[id(node)] if node.name == "__init__" else node.name
            got = passed[callee]
            stars = [i for i in got if isinstance(i, tuple)]
            defaulted = list(enumerate(positional))[len(positional) - len(a.defaults):]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out.extend(
                (module, f"{node.name}.{p.arg}")
                for i, p in defaulted
                if "**" not in got and p.arg not in got and i not in got
                and not (i is not None and any(j <= i for _, j in stars))
            )
    return sorted(out)


def test_every_default_is_passed_somewhere():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unpassed_defaults(modules, others) == []


def test_unpassed_default_is_reported():
    src = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
        "def g(a, b=1, c=2):\n    pass\n\n\n"
        "def h(a=0, b=1):\n    pass\n\n\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n        pass\n\n"
        "    def m(self, u=0, v=1):\n        pass\n"
    )
    calls = "f(0, 1)\nf(0, d=4)\ng(0, *rest)\nh(**opts)\nC(1, 2)\nC(1).m(5)\n"
    assert unpassed_defaults({"m.py": src}, [calls]) == [("m.py", "f.c"), ("m.py", "m.v")]


def defaults_only_tests_pass(src: dict, outside: list) -> list:
    """`unpassed_defaults` of the modules of `src` other than `claims`,
    counting the calls of every module of `src` and of `outside` (the
    benchmark), but not of the tests."""
    modules = dict(src)
    claims = modules.pop("claims.py")
    return unpassed_defaults(modules, [claims] + outside)


# defaulted parameters that only tests pass, each with its reason
TEST_ONLY_DEFAULTS = [
    # the console script reads sys.argv; tests pass an argument list
    ("cli.py", "main.argv"),
    # a library entry point, which reads undeclared names when given no signature
    ("parser.py", "parse_observer.sig"),
    # the dense-embedding oracle test applies Kraus lists that are not trace preserving
    ("qcore.py", "__init__.check"),
    # the plain semantics has no observer; the engine attaches one with `apply_context`
    ("semantics.py", "make_config.obs"),
]


def test_every_default_is_passed_outside_the_tests():
    src = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "bench").rglob("*.py"))]
    assert defaults_only_tests_pass(src, bench) == TEST_ONLY_DEFAULTS


def test_a_default_only_tests_pass_is_reported():
    src = {
        "m.py": "def f(a, b=1, c=2, d=3):\n    pass\n",
        "claims.py": "def g(x=0):\n    return f(0, c=1)\n",
    }
    # b is passed by the benchmark and c by `claims`, whose own defaults are
    # not checked; d only by a test, which does not count
    assert defaults_only_tests_pass(src, ["f(0, b=2)\n"]) == [("m.py", "f.d")]


def claims_imports(source: str) -> list:
    """Lines of `source` that import the `claims` module or a name from it.
    The paper-claim checkers read the engine; the engine never reads them."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            paths = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("claims" in path.split(".") for path in paths):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "claims.py"],
                         ids=lambda p: p.name)
def test_no_engine_module_imports_claims(path):
    assert claims_imports(path.read_text()) == []


def test_claims_import_is_reported():
    src = (
        "from .claims import ptag\nfrom . import claims, qcore\nimport lqccs.claims\n"
        "from .equiv import distinguish\nfrom lqccs import corpus\n"
    )
    assert claims_imports(src) == [1, 2, 3]


def tolerance_literals(source: str) -> list:
    """(line, text) for each float literal written with a negative
    exponent (`1e-9`) and each `round(x, n)` or `np.round(x, n)` whose
    digits `n` are a literal: a tolerance or a rounding granularity
    written in place instead of named."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            text = ast.get_source_segment(source, node)
            if re.search(r"[eE]-", text):
                out.append((node.lineno, text))
        elif isinstance(node, ast.Call) and "round" in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)):
            digits = node.args[1:] + [kw.value for kw in node.keywords
                                      if kw.arg in ("ndigits", "decimals")]
            if any(isinstance(d, ast.Constant) for d in digits):
                out.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(out)


# literal roundings outside `qcore`, each with its reason
TOLERANCE_LITERALS = {
    # display precision of the barb masses in printed JSON, not a
    # comparison: no verdict reads it
    "cli.py": ["round(v, 12)"],
}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "qcore.py"],
                         ids=lambda p: p.name)
def test_tolerances_are_named_in_qcore(path):
    found = [text for _, text in tolerance_literals(path.read_text())]
    assert found == TOLERANCE_LITERALS.get(path.name, [])


def test_tolerance_literal_is_reported():
    src = (
        "TOL = 1e-9\nBIG = 1.5E-3 + 2e3 + 0.001\nk = round(p, 9)\nm = np.round(a, decimals=7)\n"
        "n = round(p, DIGITS)\no = round(p)\n"
    )
    assert tolerance_literals(src) == [
        (1, "1e-9"), (2, "1.5E-3"), (3, "round(p, 9)"), (4, "np.round(a, decimals=7)")]


def std_constructions(source: str) -> list:
    """Lines of `source` that call `Std`, by its name or as an attribute.
    A standard form is a normal form, so only `rewrite.close_scopes`
    builds one; every other module rebuilds one through it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "Std" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rewrite.py"],
                         ids=lambda p: p.name)
def test_only_rewrite_constructs_a_standard_form(path):
    assert std_constructions(path.read_text()) == []


def test_std_construction_is_reported():
    src = (
        "from .syntax import Std\nfrom . import syntax\n\n"
        "a = Std((p, q), frozenset())\nb = syntax.Std(comps=(p,), chans=frozenset({'c'}))\n"
        "c = isinstance(t, Std)\nd = t.comps if isinstance(t, syntax.Std) else (t,)\n"
    )
    assert std_constructions(src) == [4, 5]
