"""Abstract syntax for process terms, observers, and expressions.

Processes and observers share one node set; the observer fragment is the
subset without tau, restriction, and random bits, with sums limited to
receptions on pairwise distinct channels (checked by `observer_violation`).
All nodes are frozen. Term nodes are hash-consed (Filliâtre and Conchon,
"Type-Safe Modular Hash-Consing", 2006): equal terms are one object.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Union
from weakref import KeyedRef

from .errors import SortError

QUBIT = "qubit"
NAT = "nat"
BOOL = "bool"


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class NatLit:
    value: int


@dataclass(frozen=True)
class QubitLit:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of: or and = <= + - *
    left: "Expr"
    right: "Expr"


Expr = Union[Var, BoolLit, NatLit, QubitLit, Not, BinOp]


# --- process / observer terms ---------------------------------------------

_TABLE: dict = {}  # (class, fields) -> weak reference to the live node


def _forget(ref):
    if _TABLE.get(ref.key) is ref:  # not yet replaced by a newer node
        del _TABLE[ref.key]


class _Interned(type):
    """Metaclass of the term nodes: a constructor call returns the live
    node with the same class and fields (keywords and defaults bound by
    the dataclass), if any. The table holds nodes weakly, so a term that
    nothing else holds is freed."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            probe = super().__call__(*args, **kwargs)
            args = tuple(getattr(probe, f) for f in cls.__match_args__)
        key = (cls, args)
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = super().__call__(*args)
            object.__setattr__(node, "_hash", hash(args))
            _TABLE[key] = KeyedRef(node, _forget, key)
        return node


class _Node(metaclass=_Interned):
    """Base of the term nodes: `==` is identity; the hash is the field
    tuple's, as for a frozen dataclass, so set and dict order under a given
    PYTHONHASHSEED does not change. `_normal` is set on a node that is its
    own process normal form (`rewrite.mark_normal`); `cached` and
    `cached_beside` fill the other slots."""

    __slots__ = ("_hash", "_normal", "_free_channels", "_qubit_atoms", "_open_guards", "_size",
                 "_pretty", "_schemas", "_first_schema", "_moves_beside", "_barbs_beside",
                 "__weakref__")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def cached(slot: str):
    """Decorator for a function of one term: its value on a node is
    computed once and kept in the node's `slot`."""

    def wrap(compute):
        @functools.wraps(compute)
        def read(term):
            try:
                return getattr(term, slot)
            except AttributeError:
                object.__setattr__(term, slot, compute(term))
                return getattr(term, slot)

        return read

    return wrap


def cached_beside(slot: str):
    """Decorator for a function of a process and an observer: its value
    is computed once per pair and kept in a table in the observer node's
    `slot`, keyed by the process node."""
    table_of = cached(slot)(lambda obs: {})

    def wrap(compute):
        @functools.wraps(compute)
        def read(proc, obs):
            table = table_of(obs)
            if proc not in table:
                table[proc] = compute(proc, obs)
            return table[proc]

        return read

    return wrap


_node = dataclass(frozen=True, slots=True, eq=False)


@_node
class Nil(_Node):
    """Deadlock that keeps ownership of the discarded qubits (empty tuple
    is the plain inert process)."""

    discards: tuple = ()


@_node
class Tau(_Node):
    cont: "Term"


@_node
class ApplyOp(_Node):
    op: str
    args: tuple  # qubit expressions
    cont: "Term"


@_node
class Measure(_Node):
    op: str
    args: tuple
    var: str
    cont: "Term"


@_node
class Recv(_Node):
    chan: str
    vars: tuple  # one or more bound names (polyadic)
    cont: "Term"


@_node
class Send(_Node):
    chan: str
    payload: tuple  # one or more expressions


@_node
class Sum(_Node):
    left: "Term"
    right: "Term"


@_node
class Par(_Node):
    left: "Term"
    right: "Term"


@_node
class Restrict(_Node):
    body: "Term"
    chan: str


@_node
class Std(_Node):
    """The standard form ν chans (comps₁ || … || compsₙ) of a parallel
    composition under restrictions (Milner, *Communicating and Mobile
    Systems: the π-calculus*, 1999): `comps` sorted by the printed term,
    none a `Par`, `Restrict` or `Std`, and `chans` the frozenset of
    restricted channels, each free in some component. It is a normal form,
    built only by `rewrite.close_scopes`, and has no channels only when it
    has two components or more; the printer renders it as nested
    restrictions."""

    comps: tuple
    chans: frozenset


@_node
class Ite(_Node):
    cond: Expr
    then: "Term"
    els: "Term"


@_node
class RandBit(_Node):
    var: str
    cont: "Term"


Term = Union[Nil, Tau, ApplyOp, Measure, Recv, Send, Sum, Par, Restrict, Std, Ite, RandBit]

NIL = Nil()


def par_all(terms) -> Term:
    terms = list(terms)
    return functools.reduce(Par, terms) if terms else NIL


def sum_all(terms) -> Term:
    return functools.reduce(Sum, terms)


def par_components(term: Term) -> list:
    """Flatten nested Par into a component list."""
    if isinstance(term, Par):
        return par_components(term.left) + par_components(term.right)
    return [term]


def sum_guards(term: Term) -> list:
    if isinstance(term, Sum):
        return sum_guards(term.left) + sum_guards(term.right)
    return [term]


def is_guard(term: Term) -> bool:
    """K-sort membership: the alternatives a sum may contain."""
    if isinstance(term, (Nil, Tau, ApplyOp, Measure, Recv, Send, RandBit)):
        return True
    if isinstance(term, Sum):
        return is_guard(term.left) and is_guard(term.right)
    return False


# --- traversal ---------------------------------------------------------------
# The one place that knows each constructor's sub-terms, expressions and
# binders: receptions, measurements and random bits bind their variables
# in their continuations.


def children(term: Term) -> tuple:
    """The immediate sub-terms, in field order."""
    if isinstance(term, (Tau, ApplyOp, Measure, Recv, RandBit)):
        return (term.cont,)
    if isinstance(term, (Sum, Par)):
        return (term.left, term.right)
    if isinstance(term, Restrict):
        return (term.body,)
    if isinstance(term, Std):
        return term.comps
    if isinstance(term, Ite):
        return (term.then, term.els)
    return ()


def term_exprs(term: Term) -> tuple:
    """The expressions held by the node itself, in field order."""
    if isinstance(term, Nil):
        return term.discards
    if isinstance(term, (ApplyOp, Measure)):
        return term.args
    if isinstance(term, Send):
        return term.payload
    if isinstance(term, Ite):
        return (term.cond,)
    return ()


def map_term(term: Term, on_child, on_expr) -> Term:
    """The node rebuilt with each sub-term s replaced by on_child(s, names
    the node binds in s) and each expression e by on_expr(e); every other
    field is kept. A `Std` is rebuilt as the standard form of its mapped
    components under its channels (`rewrite.close_scopes`, the one
    constructor of a `Std`)."""
    if isinstance(term, Par):
        return Par(on_child(term.left, ()), on_child(term.right, ()))
    if isinstance(term, Std):
        from .rewrite import close_scopes  # rewrite imports this module
        return close_scopes([on_child(c, ()) for c in term.comps], term.chans)
    if isinstance(term, Send):
        return Send(term.chan, tuple(map(on_expr, term.payload)))
    if isinstance(term, Nil):
        return Nil(tuple(map(on_expr, term.discards)))
    if isinstance(term, Recv):
        return Recv(term.chan, term.vars, on_child(term.cont, term.vars))
    if isinstance(term, ApplyOp):
        return ApplyOp(term.op, tuple(map(on_expr, term.args)), on_child(term.cont, ()))
    if isinstance(term, Measure):
        return Measure(term.op, tuple(map(on_expr, term.args)), term.var,
                       on_child(term.cont, (term.var,)))
    if isinstance(term, Ite):
        return Ite(on_expr(term.cond), on_child(term.then, ()), on_child(term.els, ()))
    if isinstance(term, Sum):
        return Sum(on_child(term.left, ()), on_child(term.right, ()))
    if isinstance(term, Restrict):
        return Restrict(on_child(term.body, ()), term.chan)
    if isinstance(term, RandBit):
        return RandBit(term.var, on_child(term.cont, (term.var,)))
    if isinstance(term, Tau):
        return Tau(on_child(term.cont, ()))
    raise TypeError(f"not a term: {term!r}")


def map_free_vars(term: Term, f) -> Term:
    """Rewrite every free Var leaf with f; binders shadow."""
    return _map_free(term, f, frozenset())


# module-level, so that a walk leaves no reference cycle of closures
def _map_free(term: Term, f, bound: frozenset) -> Term:
    return map_term(term, lambda t, binds: _map_free(t, f, bound.union(binds) if binds else bound),
                    lambda e: _map_free_expr(e, f, bound))


def _map_free_expr(e, f, bound: frozenset):
    if isinstance(e, Var):
        return e if e.name in bound else f(e)
    if isinstance(e, Not):
        return Not(_map_free_expr(e.arg, f, bound))
    if isinstance(e, BinOp):
        return BinOp(e.op, _map_free_expr(e.left, f, bound), _map_free_expr(e.right, f, bound))
    return e


def as_qubits(term: Term, names) -> Term:
    """The term with each free Var named in `names` made a QubitLit."""
    return map_free_vars(term, lambda v: QubitLit(v.name) if v.name in names else v)


def free_qubit_args(term: Term) -> frozenset:
    """The free variable names in qubit positions: operator and measurement
    arguments, and discards."""
    found = set()
    if isinstance(term, (ApplyOp, Measure, Nil)):
        found.update(e.name for e in term_exprs(term) if isinstance(e, Var))

    def on_child(child, bound):
        found.update(free_qubit_args(child).difference(bound))
        return child

    map_term(term, on_child, lambda e: e)
    return frozenset(found)


def check_process_sorts(term: Term):
    """Reject terms outside the two-level grammar (sums of non-guards)."""
    if isinstance(term, Sum):
        for g in (term.left, term.right):
            if not is_guard(g):
                raise SortError(f"sum alternative {g!r} is not a guarded term")
            check_process_sorts(g)
        return
    for child in children(term):
        check_process_sorts(child)


def observer_violation(term: Term) -> Optional[str]:
    """Reason the term is not a valid observer, or None."""
    if isinstance(term, (Tau, RandBit)):
        return f"{type(term).__name__.lower()} is not allowed in observers"
    if isinstance(term, Restrict) or isinstance(term, Std) and term.chans:
        return "restriction is not allowed in observers"
    if isinstance(term, Sum):
        recvs = sum_guards(term)
        chans = []
        for g in recvs:
            if not isinstance(g, Recv):
                return f"observer sums may only contain receptions, found {type(g).__name__}"
            chans.append(g.chan)
        if len(set(chans)) != len(chans):
            return f"observer reception sum repeats a channel: {chans}"
        for g in recvs:
            v = observer_violation(g.cont)
            if v:
                return v
        return None
    for child in children(term):
        v = observer_violation(child)
        if v:
            return v
    return None


def check_observer(term: Term):
    v = observer_violation(term)
    if v:
        raise SortError(v)


_SETS: dict = {}  # one object per distinct cached set


@cached("_free_channels")
def free_channels(term: Term) -> frozenset:
    if isinstance(term, Send):
        out = frozenset({term.chan})
    elif isinstance(term, Recv):
        out = frozenset({term.chan}) | free_channels(term.cont)
    elif isinstance(term, Restrict):
        out = free_channels(term.body) - {term.chan}
    elif isinstance(term, Std):
        out = frozenset().union(*map(free_channels, term.comps)) - term.chans
    else:
        out = frozenset().union(*map(free_channels, children(term)))
    return _SETS.setdefault(out, out)


def channels(term: Term) -> frozenset:
    """Every channel the term names, free or bound."""
    if isinstance(term, Std):
        own = term.chans
    else:
        own = {term.chan} if isinstance(term, (Send, Recv, Restrict)) else ()
    return frozenset(own).union(*map(channels, children(term)))


def fresh_names(stem: str, n: int, taken) -> list:
    """The n least names `stem + str(i)` not in `taken`."""
    names = (name for i in itertools.count() if (name := f"{stem}{i}") not in taken)
    return list(itertools.islice(names, n))


def fresh_channel(chan: str, taken) -> str:
    """`stem#i`, for the stem of `chan` and the least i whose name is not in
    `taken`. The lexer reads no `#`, so no source channel has this form."""
    return fresh_names(chan.partition("#")[0] + "#", 1, taken)[0]


def expr_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Not):
        return expr_vars(e.arg)
    if isinstance(e, BinOp):
        return expr_vars(e.left) | expr_vars(e.right)
    return frozenset()


def expr_qubits(e: Expr) -> frozenset:
    return frozenset({e.name}) if isinstance(e, QubitLit) else frozenset()


def free_vars(term: Term) -> frozenset:
    """Free classical variables (bound by receptions, measurements, randbit)."""
    found = set()

    def on_child(child, bound):
        found.update(free_vars(child).difference(bound))
        return child

    def on_expr(e):
        found.update(expr_vars(e))
        return e

    map_term(term, on_child, on_expr)
    return frozenset(found)


@cached("_qubit_atoms")
def qubit_atoms(term: Term) -> frozenset:
    """All qubit names mentioned anywhere in the term."""
    out = frozenset().union(*map(expr_qubits, term_exprs(term)),
                            *map(qubit_atoms, children(term)))
    return _SETS.setdefault(out, out)


# --- declarations ----------------------------------------------------------


@dataclass
class Signature:
    """Channel and variable typing plus the named-operator registry.

    channels maps a name to the tuple of payload base types (len > 1 for
    polyadic channels); variables maps classical/qubit variable names to a
    base type; qubits is the declared register order for programs.
    """

    channels: dict = field(default_factory=dict)
    variables: dict = field(default_factory=dict)
    qubits: tuple = ()
    operators: dict = field(default_factory=dict)  # name -> Superoperator (fixed arity)
    measurements: dict = field(default_factory=dict)  # name -> Measurement

    def channel_type(self, chan: str):
        """The declared payload types of `chan`, or None; a `stem#i` has its stem's."""
        return self.channels.get(chan.partition("#")[0])

