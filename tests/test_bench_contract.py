"""The names the benchmark uses must exist in lqccs.

`bench/tracer.py` wraps lqccs functions by name and binds the arguments
of some of them by parameter name; a rename on the lqccs side would break
`bench/run.py --trace 1`. The tracer is only imported here, never
installed. `bench/worker.py` imports lqccs names inside its set-up
functions and calls them; it is only read here, never run."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import lqccs.cli  # noqa: F401  (imports every layer the tracer resolves)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


@pytest.mark.parametrize("target", tracer.SPAN_TARGETS + tracer.LEAF_TARGETS)
def test_target_resolves(target):
    owner, attr, orig = tracer._resolve(target)
    assert callable(orig)
    assert getattr(owner, attr) is orig


@pytest.mark.parametrize("target", tracer.CACHED_TARGETS)
def test_cached_target_reports_its_cache(target):
    _, _, orig = tracer._resolve(target)
    info = orig.cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("target", tracer.LEAF_TARGETS)
def test_leaf_target_is_a_plain_function(target):
    # `install` rebinds a leaf by name in the modules (or on the class)
    # that hold it; a leaf turned into a node attribute, a property or an
    # inherited method would silently stay unwrapped
    owner, attr, orig = tracer._resolve(target)
    assert inspect.isfunction(orig)
    assert vars(owner)[attr] is orig
    if not inspect.isclass(owner):
        assert orig.__module__ == owner.__name__


@pytest.mark.parametrize("target", sorted(tracer.OBSERVERS))
def test_observed_arguments_are_parameters(target):
    observe = tracer.OBSERVERS[target]
    read = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(observe)))
    _, _, orig = tracer._resolve(target)
    assert read <= set(inspect.signature(orig).parameters)


def test_observers_read_the_documented_arguments():
    read = set()
    for observe in tracer.OBSERVERS.values():
        read |= set(re.findall(r'args\["(\w+)"\]', inspect.getsource(observe)))
    assert read == {"dist", "e", "m", "rho"}


def worker_imports() -> dict:
    """{name: module} for every name `bench/worker.py` imports from lqccs."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lqccs"
        for alias in node.names
    }


def worker_calls() -> list:
    """Sorted (callee, positional count, keyword names) of the calls in
    `bench/worker.py` to a name it imports from lqccs, or to an attribute
    of one; the callee is the dotted name as written."""
    imported = worker_imports()
    calls = set()
    for node in ast.walk(ast.parse((BENCH / "worker.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            callee = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            continue
        if callee.split(".")[0] in imported:
            calls.add((callee, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def resolve_import(module: str, name: str):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("name,module", sorted(worker_imports().items()))
def test_worker_import_resolves(name, module):
    assert resolve_import(module, name) is not None


@pytest.mark.parametrize("callee,npos,keywords", worker_calls(),
                         ids=lambda v: ",".join(v) if isinstance(v, tuple) else str(v))
def test_worker_call_binds(callee, npos, keywords):
    name, *attrs = callee.split(".")
    fn = resolve_import(worker_imports()[name], name)
    for attr in attrs:
        fn = getattr(fn, attr)
    inspect.signature(fn).bind(*[None] * npos, **dict.fromkeys(keywords))


def test_worker_calls_the_forced_run_and_the_quotient_positionally():
    calls = {(callee, npos) for callee, npos, _ in worker_calls()}
    assert {("advance_unique", 2), ("density_quotient_equiv", 4)} <= calls
