"""Seeded generators for well-typed terms, observers, and configurations,
used by the property-style tests."""

from __future__ import annotations

import random

import numpy as np

from lqccs import qcore
from lqccs.semantics import Distribution, make_config
from lqccs.syntax import (
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
    Sum,
    Tau,
    Var,
    map_term,
)

CHANNELS = {
    "c": (QUBIT,),
    "d": (QUBIT,),
    "k": (NAT,),
    "l": (BOOL,),
}


def make_signature(qubits=("q1", "q2", "o1"), chans=tuple(CHANNELS)) -> Signature:
    return Signature(channels={c: CHANNELS[c] for c in chans}, qubits=tuple(qubits))


class TermGen:
    def __init__(self, seed: int, sig: Signature | None = None):
        self.rng = random.Random(seed)
        self.sig = sig or make_signature()
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    # -- expressions

    def expr(self, typ: str, env: dict, depth: int = 2):
        rng = self.rng
        candidates = [v for v, t in env.items() if t == typ]
        if depth <= 0 or rng.random() < 0.4:
            if candidates and rng.random() < 0.5:
                return Var(rng.choice(candidates))
            if typ == NAT:
                return NatLit(rng.randrange(4))
            return BoolLit(rng.random() < 0.5)
        if typ == BOOL:
            kind = rng.choice(["not", "or", "and", "eq", "leq"])
            if kind == "not":
                return Not(self.expr(BOOL, env, depth - 1))
            if kind in ("or", "and"):
                return BinOp(kind, self.expr(BOOL, env, depth - 1), self.expr(BOOL, env, depth - 1))
            if kind == "eq":
                return BinOp("=", self.expr(NAT, env, depth - 1), self.expr(NAT, env, depth - 1))
            return BinOp("<=", self.expr(NAT, env, depth - 1), self.expr(NAT, env, depth - 1))
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, self.expr(NAT, env, depth - 1), self.expr(NAT, env, depth - 1))

    # -- processes, typed by construction: the result owns exactly `owned`

    def process(self, owned: frozenset, env: dict, depth: int) -> object:
        rng = self.rng
        if depth <= 0:
            return self._leaf(owned, env)
        choice = rng.random()
        if choice < 0.18:
            return self._leaf(owned, env)
        if choice < 0.30:
            return Tau(self.process(owned, env, depth - 1))
        if choice < 0.44 and owned:
            q = rng.choice(sorted(owned))
            op = rng.choice(["H", "X", "Z", "I"])
            return ApplyOp(op, (self._qref(q, env),), self.process(owned, env, depth - 1))
        if choice < 0.56 and owned:
            q = rng.choice(sorted(owned))
            var = self.fresh("m")
            env2 = dict(env)
            env2[var] = NAT
            meas = rng.choice(["M01", "Mpm"])
            return Measure(meas, (self._qref(q, env),), var, self.process(owned, env2, depth - 1))
        if choice < 0.66:
            cond = self.expr(BOOL, env, 1)
            return Ite(cond, self.process(owned, env, depth - 1), self.process(owned, env, depth - 1))
        if choice < 0.76:
            return Sum(self._guard(owned, env, depth - 1), self._guard(owned, env, depth - 1))
        if choice < 0.88 and len(owned) >= 1:
            names = sorted(owned)
            rng.shuffle(names)
            cut = rng.randrange(len(names) + 1)
            left = frozenset(names[:cut])
            right = owned - left
            return Par(self.process(left, env, depth - 1), self.process(right, env, depth - 1))
        if choice < 0.94:
            var = self.fresh("r")
            env2 = dict(env)
            env2[var] = NAT
            return RandBit(var, self.process(owned, env2, depth - 1))
        return Restrict(self.process(owned, env, depth - 1), self.rng.choice(list(self.sig.channels)))

    def restricted_par(self, owned: tuple) -> object:
        """(p || q \\ ch1) \\ ch2 || r, where p, q and r own the three sets
        of `owned`, each behind a reception on k half the time, and ch1
        and ch2 are declared channels: restrictions that often clash with
        a name beside them."""
        rng = self.rng

        def part(own):
            t = self.process(own, {}, rng.randrange(3))
            return Recv("k", ("x",), t) if rng.random() < 0.5 else t

        p, q, r = map(part, owned)
        chans = list(self.sig.channels)
        return Par(Restrict(Par(p, Restrict(q, rng.choice(chans))), rng.choice(chans)), r)

    def _qref(self, q: str, env: dict):
        if env.get(q) == QUBIT:
            return Var(q)
        return QubitLit(q)

    def _leaf(self, owned: frozenset, env: dict):
        rng = self.rng
        if owned:
            if len(owned) == 1 and rng.random() < 0.4:
                q = next(iter(owned))
                return Send("c", (self._qref(q, env),))
            return Nil(tuple(self._qref(q, env) for q in sorted(owned)))
        if rng.random() < 0.5:
            return Nil()
        return Send("k", (self.expr(NAT, env, 1),))

    def _guard(self, owned: frozenset, env: dict, depth: int):
        rng = self.rng
        kind = rng.choice(["tau", "op", "meas", "leaf", "recv"])
        if kind == "tau":
            return Tau(self.process(owned, env, depth))
        if kind == "op" and owned:
            q = rng.choice(sorted(owned))
            return ApplyOp("H", (self._qref(q, env),), self.process(owned, env, depth))
        if kind == "meas" and owned:
            q = rng.choice(sorted(owned))
            var = self.fresh("m")
            env2 = dict(env)
            env2[var] = NAT
            return Measure("M01", (self._qref(q, env),), var, self.process(owned, env2, depth))
        if kind == "recv":
            var = self.fresh("x")
            env2 = dict(env)
            env2[var] = NAT
            return Recv("k", (var,), self.process(owned, env2, depth))
        return self._leaf(owned, env)

    # -- observers

    def observer(self, owned: frozenset, env: dict, depth: int, recv_chans=("c", "d")):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return self._obs_leaf(owned, env, recv_chans)
        choice = rng.random()
        if choice < 0.3 and owned:
            q = rng.choice(sorted(owned))
            return ApplyOp(rng.choice(["H", "X"]), (self._qref(q, env),),
                           self.observer(owned, env, depth - 1, recv_chans))
        if choice < 0.5 and owned:
            q = rng.choice(sorted(owned))
            var = self.fresh("y")
            env2 = dict(env)
            env2[var] = NAT
            return Measure("M01", (self._qref(q, env),), var,
                           self.observer(owned, env2, depth - 1, recv_chans))
        if choice < 0.75 and len(recv_chans) >= 2:
            a, b = rng.sample(list(recv_chans), 2)
            return Sum(self._obs_recv(a, owned, env, depth - 1),
                       self._obs_recv(b, owned, env, depth - 1))
        split = frozenset(q for q in sorted(owned) if rng.random() < 0.5)
        return Par(self.observer(split, env, depth - 1, recv_chans),
                   self.observer(owned - split, env, depth - 1, recv_chans))

    def _obs_recv(self, chan: str, owned: frozenset, env: dict, depth: int):
        var = self.fresh("z")
        env2 = dict(env)
        env2[var] = self.sig.channels[chan][0]
        inner_owned = owned | ({var} if env2[var] == QUBIT else frozenset())
        return Recv(chan, (var,), self.observer(inner_owned, env2, depth, ()))

    def _obs_leaf(self, owned: frozenset, env: dict, recv_chans):
        rng = self.rng
        if owned:
            return Nil(tuple(self._qref(q, env) for q in sorted(owned)))
        if recv_chans and rng.random() < 0.4:
            return self._obs_recv(rng.choice(list(recv_chans)), frozenset(), env, 0)
        if rng.random() < 0.5:
            return Send("k", (NatLit(rng.randrange(2)),))
        return Nil()


def mirror(t):
    """`t` with the two sides of every `Par` and `Sum` swapped, and the
    branches of every conditional swapped under its negated guard: a
    term that types like `t`, read in the other order."""
    if isinstance(t, (Par, Sum)):
        return type(t)(mirror(t.right), mirror(t.left))
    if isinstance(t, Ite):
        return Ite(Not(t.cond), mirror(t.els), mirror(t.then))
    return map_term(t, lambda c, _: mirror(c), lambda e: e)


def random_density(rng: np.random.Generator, names) -> qcore.DensityMatrix:
    n = len(names)
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = rho / rho.trace().real
    return qcore.DensityMatrix(tuple(names), rho, check=False)


def random_config(seed: int, obs_nodes: int = 8):
    """Closed process plus observer over a shared random state: the
    process owns q1 (sent on c or discarded), the observer owns o1."""
    gen = TermGen(seed)
    rngnp = np.random.default_rng(seed)
    proc = gen.process(frozenset({"q1"}), {}, gen.rng.randrange(1, 3))
    obs = gen.observer(frozenset({"o1"}), {}, 2)
    rho = random_density(rngnp, ("q1", "o1"))
    return make_config(rho, proc, obs), gen.sig


def random_process_distribution(seed: int):
    gen = TermGen(seed)
    rngnp = np.random.default_rng(seed + 10_000)
    proc = gen.process(frozenset({"q1"}), {}, gen.rng.randrange(1, 4))
    rho = random_density(rngnp, ("q1",))
    return Distribution.point(make_config(rho, proc)), gen.sig
