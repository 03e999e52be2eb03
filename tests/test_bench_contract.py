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
    assert callable(orig.cache_info)


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
