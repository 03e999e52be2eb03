"""Hash-consed term nodes: equal terms are one object, the hash is that of
the field tuple, and the attributes a node caches agree with walks that
cache nothing."""

import dataclasses
import gc
import pickle
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen
from lqccs import parser
from lqccs.equiv import _node_count
from lqccs.parser import pretty
from lqccs.syntax import (
    NIL,
    Nil,
    Par,
    QubitLit,
    Recv,
    Restrict,
    Send,
    children,
    expr_qubits,
    free_channels,
    map_term,
    qubit_atoms,
    term_exprs,
)


def fields(t) -> tuple:
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t))


def rebuild(t):
    """t rebuilt bottom-up, every expression replaced by an equal copy."""
    return map_term(t, lambda c, bound: rebuild(c), dataclasses.replace)


def describe(t) -> list:
    """t as nested [class, fields] lists that hold no node."""
    return [type(t), [describe(f) if f in children(t) else f for f in fields(t)]]


def build(desc: list):
    cls, parts = desc
    return cls(*(build(p) if isinstance(p, list) else p for p in parts))


def ref_free_channels(t) -> frozenset:
    if isinstance(t, Send):
        return frozenset({t.chan})
    below = frozenset().union(*map(ref_free_channels, children(t)))
    if isinstance(t, Recv):
        return below | {t.chan}
    if isinstance(t, Restrict):
        return below - {t.chan}
    return below


def ref_qubit_atoms(t) -> frozenset:
    return frozenset().union(*map(expr_qubits, term_exprs(t)),
                             *map(ref_qubit_atoms, children(t)))


def ref_node_count(t) -> int:
    return 1 + sum(map(ref_node_count, children(t)))


def ref_pretty(t) -> str:
    # the printer's own code, with its recursion sent to the uncached body
    with mock.patch.object(parser, "pretty", parser.pretty.__wrapped__):
        return parser.pretty(t)


def cached_results(t) -> tuple:
    return hash(t), free_channels(t), qubit_atoms(t), _node_count(t), pretty(t)


def terms(seed: int) -> list:
    gen = TermGen(seed)
    return [gen.process(frozenset({"q1", "q2"}), {}, 4), gen.observer(frozenset({"o1"}), {}, 3)]


def nodes(t):
    yield t
    for c in children(t):
        yield from nodes(c)


def test_defaults_are_filled_before_interning():
    assert Nil() is Nil(()) is Nil(discards=()) is NIL
    assert Nil((QubitLit("q"),)) is Nil(discards=(QubitLit("q"),))
    assert Nil() is not Nil((QubitLit("q"),))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_interned_nodes_and_their_caches(seed):
    for t in terms(seed):
        assert rebuild(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        for node in nodes(t):
            assert hash(node) == hash(fields(node))
            assert free_channels(node) == ref_free_channels(node)
            assert qubit_atoms(node) == ref_qubit_atoms(node)
            assert _node_count(node) == ref_node_count(node)
            assert pretty(node) == ref_pretty(node)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000))
def test_dropped_term_rebuilds_alike(seed):
    for t in terms(seed):
        before, desc = cached_results(t), describe(t)
        del t
        gc.collect()
        assert cached_results(build(desc)) == before


def test_dropped_node_leaves_the_table():
    # a channel name no other test uses, so nothing else keeps the node
    t = Par(Send("interning_probe", (QubitLit("q"),)), Nil())
    before, desc, alive = cached_results(t), describe(t), weakref.ref(t)
    del t
    gc.collect()
    assert alive() is None
    t = build(desc)
    assert not hasattr(t, "_pretty")  # a new node, computed afresh
    assert cached_results(t) == before
