"""The names the benchmark's tracer patches must exist in lqccs.

`bench/tracer.py` wraps lqccs functions by name and binds the arguments
of some of them by parameter name; a rename on the lqccs side would break
`bench/run.py --trace 1`. The tracer is only imported here, never
installed."""

import inspect
import re
import sys
from pathlib import Path

import pytest

import lqccs.cli  # noqa: F401  (imports every layer the tracer resolves)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
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
