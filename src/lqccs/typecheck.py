"""Linear typing of processes and observers.

The judgment assigns each term the unique set of qubit names it owns:
discards and qubit sends introduce qubits, parallel composition demands
disjoint ownership, sums and conditional branches must agree, and a
received qubit must be used by the continuation. Inference is
syntax-directed and bottom-up.
"""

from __future__ import annotations

from .errors import ChannelTypeError, LinearityError, TypingError
from .ops import resolve_measurement, resolve_operator
from .syntax import (
    BOOL,
    NAT,
    QUBIT,
    ApplyOp,
    BinOp,
    BoolLit,
    Ite,
    Measure,
    NatLit,
    Nil,
    Not,
    Par,
    QubitLit,
    RandBit,
    Recv,
    Restrict,
    Send,
    Signature,
    Std,
    Sum,
    Tau,
    Var,
    children,
)


def expr_type(e, env: dict) -> str:
    if isinstance(e, Var):
        t = env.get(e.name)
        if t is None:
            raise TypingError(f"undeclared variable {e.name!r}")
        return t
    if isinstance(e, QubitLit):
        return QUBIT
    if isinstance(e, NatLit):
        return NAT
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, Not):
        if expr_type(e.arg, env) != BOOL:
            raise TypingError("'not' expects a boolean")
        return BOOL
    if isinstance(e, BinOp):
        lt = expr_type(e.left, env)
        rt = expr_type(e.right, env)
        if e.op in ("or", "and"):
            if lt != BOOL or rt != BOOL:
                raise TypingError(f"{e.op!r} expects booleans, got {lt}, {rt}")
            return BOOL
        if e.op == "=":
            if lt != rt or lt == QUBIT:
                raise TypingError(f"'=' expects equal classical types, got {lt}, {rt}")
            return BOOL
        if lt != NAT or rt != NAT:
            raise TypingError(f"{e.op!r} expects naturals, got {lt}, {rt}")
        return BOOL if e.op == "<=" else NAT
    raise TypingError(f"not an expression: {e!r}")


def _qubit_name(e, env: dict) -> str:
    if isinstance(e, QubitLit):
        return e.name
    if isinstance(e, Var) and env.get(e.name) == QUBIT:
        return e.name
    raise LinearityError(f"{e!r} is not a qubit name")


def _qubit_tuple(exprs, env, what: str) -> frozenset:
    names = [_qubit_name(e, env) for e in exprs]
    if len(set(names)) != len(names):
        raise LinearityError(f"duplicate qubit in {what}: {names}")
    return frozenset(names)


def typecheck(sig: Signature, term) -> frozenset:
    """Infer the qubit context of a closed-enough term; raises on failure."""
    return _check(term, dict(sig.variables), sig)


def _channel(sig: Signature, chan: str, n: int, what: str) -> tuple:
    """The payload types of a declared `chan` whose arity is `n`; `what`
    names the `n` in the arity error."""
    ct = sig.channel_type(chan)
    if ct is None:
        raise ChannelTypeError(f"undeclared channel {chan!r}")
    if len(ct) != n:
        raise ChannelTypeError(f"channel {chan!r} carries {len(ct)} values, {what} {n}")
    return ct


def _check(term, env, sig) -> frozenset:
    if isinstance(term, Nil):
        return _qubit_tuple(term.discards, env, "discard")
    if isinstance(term, Tau):
        return _check(term.cont, env, sig)
    if isinstance(term, ApplyOp):
        used = _qubit_tuple(term.args, env, f"{term.op} arguments")
        resolve_operator(term.op, len(term.args), sig)
        return _owned_by_cont(used, _check(term.cont, env, sig), f"{term.op} acts on")
    if isinstance(term, Measure):
        used = _qubit_tuple(term.args, env, f"{term.op} arguments")
        resolve_measurement(term.op, len(term.args), sig)
        inner = _check(term.cont, {**env, term.var: NAT}, sig)
        return _owned_by_cont(used, inner, f"{term.op} measures")
    if isinstance(term, Recv):
        ct = _channel(sig, term.chan, len(term.vars), "pattern binds")
        if len(set(term.vars)) != len(term.vars):
            raise LinearityError(f"duplicate names in reception pattern {term.vars}")
        env2 = dict(env)
        qvars = []
        for v, t in zip(term.vars, ct):
            env2[v] = t
            if t == QUBIT:
                qvars.append(v)
        inner = _check(term.cont, env2, sig)
        for v in qvars:
            if v not in inner:
                raise LinearityError(
                    f"qubit {v!r} received on {term.chan!r} is neither sent nor discarded"
                )
        return inner - frozenset(qvars)
    if isinstance(term, Send):
        ct = _channel(sig, term.chan, len(term.payload), "payload has")
        owned = []
        for e, t in zip(term.payload, ct):
            et = expr_type(e, env)
            if et != t:
                raise ChannelTypeError(
                    f"channel {term.chan!r} expects {t}, payload {e!r} has type {et}"
                )
            if t == QUBIT:
                owned.append(_qubit_name(e, env))
        if len(set(owned)) != len(owned):
            raise LinearityError(f"qubit sent twice in one payload on {term.chan!r}")
        return frozenset(owned)
    if isinstance(term, Sum):
        return _agree(_check(term.left, env, sig), _check(term.right, env, sig),
                      "sum alternatives")
    if isinstance(term, Ite):
        if expr_type(term.cond, env) != BOOL:
            raise TypingError("conditional guard must be boolean")
        return _agree(_check(term.then, env, sig), _check(term.els, env, sig),
                      "conditional branches")
    if isinstance(term, (Par, Std)):  # a Std's channels own no qubits, as a Restrict's do not
        owned = frozenset()
        for comp in children(term):
            s = _check(comp, env, sig)
            if owned & s:
                raise LinearityError(
                    f"qubits shared across parallel components: {sorted(owned & s)}")
            owned |= s
        return owned
    if isinstance(term, Restrict):
        return _check(term.body, env, sig)
    if isinstance(term, RandBit):
        return _check(term.cont, {**env, term.var: NAT}, sig)
    raise TypingError(f"not a term: {term!r}")


def _owned_by_cont(used: frozenset, inner: frozenset, what: str) -> frozenset:
    """The prefix `what` (name and verb) has its targets owned by its continuation."""
    if not used <= inner:
        raise LinearityError(f"{what} {sorted(used - inner)} not owned by its continuation")
    return inner


def _agree(s1: frozenset, s2: frozenset, what: str) -> frozenset:
    """Both alternatives, named by `what`, own the same qubits."""
    if s1 != s2:
        raise LinearityError(f"{what} own different qubits: {sorted(s1)} vs {sorted(s2)}")
    return s1
