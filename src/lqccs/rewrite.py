"""Expression evaluation, substitution, and structural congruence.

`normalize` computes the canonical representative of a process term's
congruence class: closed classical expressions are evaluated, literal
conditionals resolved, sum children flattened and sorted in a fixed
total order, discard tuples sorted, and every parallel composition taken
as a chain of restrictions, possibly of none, with one rule
(`close_scopes`): its components flattened and sorted, inert ones
dropped, and its scopes closed under the chain's set of channels,
renamed apart where they clash (`extend_scopes`) and pushed inward past
components that do not use the channel (and dropped when it is not free
at all). The semantics builds every residual with the same rule. A
normal form is marked as one, so normalizing it again is a cache
lookup. `normalize_observer`, which neither reads nor sets the mark,
shares the discard, conditional and prefix cases (`_normal_node`) but
has no rules for parallel composition, whose shape it keeps intact.
`substitute` is memoized like `normalize`, on interned terms.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EvalError, QubitCaptureError
from .parser import pretty, pretty_expr
from .syntax import (
    BinOp,
    BoolLit,
    Ite,
    NatLit,
    Nil,
    NIL,
    Not,
    Par,
    QubitLit,
    RandBit,
    Recv,
    Restrict,
    Send,
    Sum,
    Tau,
    Var,
    channels,
    expr_vars,
    fresh_channel,
    free_channels,
    map_free_vars,
    map_term,
    par_all,
    par_components,
    qubit_atoms,
    sum_all,
    sum_guards,
)

# --- evaluation -------------------------------------------------------------


def eval_expr(e, env=None):
    """Big-step evaluation; qubit names evaluate to themselves."""
    env = env or {}
    if isinstance(e, Var):
        if e.name not in env:
            raise EvalError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, NatLit):
        return e.value
    if isinstance(e, QubitLit):
        return e
    if isinstance(e, Not):
        v = eval_expr(e.arg, env)
        if not isinstance(v, bool):
            raise EvalError(f"'not' applied to {v!r}")
        return not v
    if isinstance(e, BinOp):
        lv = eval_expr(e.left, env)
        rv = eval_expr(e.right, env)
        op = e.op
        if op in ("or", "and"):
            if not (isinstance(lv, bool) and isinstance(rv, bool)):
                raise EvalError(f"{op!r} applied to {lv!r}, {rv!r}")
            return (lv or rv) if op == "or" else (lv and rv)
        if op == "=":
            if isinstance(lv, bool) != isinstance(rv, bool):
                raise EvalError(f"'=' applied to {lv!r}, {rv!r}")
            if isinstance(lv, QubitLit) or isinstance(rv, QubitLit):
                raise EvalError("'=' is not defined on qubits")
            return lv == rv
        if isinstance(lv, bool) or isinstance(rv, bool) or \
                isinstance(lv, QubitLit) or isinstance(rv, QubitLit):
            raise EvalError(f"{op!r} applied to {lv!r}, {rv!r}")
        if op == "<=":
            return lv <= rv
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
    raise EvalError(f"cannot evaluate {e!r}")


def value_to_expr(v):
    if isinstance(v, QubitLit):
        return v
    if isinstance(v, bool):
        return BoolLit(v)
    if isinstance(v, int):
        return NatLit(v)
    raise EvalError(f"not a value: {v!r}")


def _norm_expr(e):
    """Evaluate closed classical subexpressions to literals."""
    if isinstance(e, (Var, BoolLit, NatLit, QubitLit)):
        return e
    if isinstance(e, Not):
        arg = _norm_expr(e.arg)
        out = Not(arg)
    else:
        out = BinOp(e.op, _norm_expr(e.left), _norm_expr(e.right))
    if not expr_vars(out):
        return value_to_expr(eval_expr(out))
    return out


# --- substitution -----------------------------------------------------------


def substitute(term, var: str, value):
    """Capture-avoiding substitution of a value (or literal node) for a
    free variable. Substituting a qubit name into a term that already
    owns it is rejected."""
    node = value if isinstance(value, (QubitLit, BoolLit, NatLit)) else value_to_expr(value)
    return _substitute(term, var, node)


@lru_cache(maxsize=None)
def _substitute(term, var, node):
    """Keyed on the literal node, not the value: True == 1 and hash(True) == hash(1)."""
    if isinstance(node, QubitLit) and node.name in qubit_atoms(term):
        raise QubitCaptureError(
            f"substituting qubit {node.name!r} into a term that already uses it"
        )
    return map_free_vars(term, lambda v: node if v.name == var else v)


def substitute_many(term, pairs):
    for var, value in pairs:
        term = substitute(term, var, value)
    return term


# --- process congruence -----------------------------------------------------


def flat_parts(parts, split, norm) -> list:
    """`parts`, each normalized by `norm`, nil dropped and the normalized
    parts split again by `split`."""
    return [p for c in parts if (n := norm(c)) != NIL for p in split(n)]


@lru_cache(maxsize=None)
def normalize(t):
    """The normal form of `t`, marked (`mark_normal`); a marked `t` is its
    own, so a residual, built normal, is not normalized again."""
    return t if getattr(t, "_normal", False) else mark_normal(_normal_form(t))


def mark_normal(t):
    """`t`, marked as its own normal form."""
    object.__setattr__(t, "_normal", True)
    return t


def _normal_form(t):
    if isinstance(t, Sum):
        parts = sorted(flat_parts(sum_guards(t), sum_guards, normalize), key=pretty)
        return sum_all(parts) if parts else NIL
    if isinstance(t, (Par, Restrict)):  # a Par is a chain of no restrictions
        chans = set()
        while isinstance(t, Restrict):
            chans.add(t.chan)
            t = t.body
        return close_scopes(par_components(t), chans)
    return _normal_node(t, normalize)


def _normal_node(t, norm):
    """The discard, conditional and prefix cases of both congruences, with
    `norm` the congruence's own normalization of a child."""
    if isinstance(t, Nil):
        return Nil(tuple(sorted((_norm_expr(e) for e in t.discards), key=pretty_expr)))
    if isinstance(t, Ite):
        cond = _norm_expr(t.cond)
        if isinstance(cond, BoolLit):
            return norm(t.then if cond.value else t.els)
        return Ite(cond, norm(t.then), norm(t.els))
    return map_term(t, lambda c, bound: norm(c), _norm_expr)


def extend_scopes(comps, chans):
    """Scope extension, `(P \\ c) || Q ≡ (P || Q) \\ c` when c is not free
    in Q, over the parallel components `comps` of a term restricted on
    `chans`. Each restricted component is replaced, in place, by the
    components under its chain of restrictions, whose channels join
    `chans`; the components spliced in are examined next, so none is left
    a restriction. A chain channel free in another component is first
    renamed to a `syntax.fresh_channel` that no component names, free or
    bound, and the body normalized again; a channel of `chans` that no
    component names binds nothing, so the fresh name may be one. One in
    `chans` but free in no other component keeps its name, as the outer
    restriction binds nothing else. This is the one place that decides a
    restriction's scope."""
    comps = list(comps)
    chans = frozenset(chans)
    i = 0
    while i < len(comps):
        body = comps[i]
        if not isinstance(body, Restrict):
            i += 1
            continue
        chain = set()
        while isinstance(body, Restrict):
            chain.add(body.chan)
            body = body.body
        clash = {c for j, x in enumerate(comps) if j != i for c in chain & free_channels(x)}
        if clash:
            taken = frozenset().union(*map(channels, comps))
            for c in sorted(clash):
                fresh = fresh_channel(c, taken)
                taken |= {fresh}
                chain = chain - {c} | {fresh}
                body = _rename_channel(body, c, fresh)
            body = normalize(body)
        comps[i:i + 1] = par_components(body)
        chans |= chain
    return comps, chans


def _rename_channel(t, old, new):
    """t with its free channel `old` renamed to `new`, which t does not name."""
    if old not in free_channels(t):
        return t
    if isinstance(t, Send):
        return Send(new, t.payload)
    t = map_term(t, lambda c, bound: _rename_channel(c, old, new), lambda e: e)
    return Recv(new, t.vars, t.cont) if isinstance(t, Recv) and t.chan == old else t


def close_scopes(parts, chans):
    """The normal form of `parts` in parallel under restrictions on
    `chans`, marked: each part normalized (a cache hit on a residual's
    siblings, which are normal already) and flattened, the scopes of
    restricted components extended over their siblings (`extend_scopes`),
    then each channel pushed back inward in a fixed order, so congruent
    nestings canonicalize alike. A parallel composition is the case of no
    `chans`, and a residual is built by the same rule."""
    comps = sorted(flat_parts(parts, par_components, normalize), key=pretty)
    comps, chans = extend_scopes(comps, chans)
    for c in sorted(chans):
        rest, using = [], []
        for x in comps:
            (using if c in free_channels(x) else rest).append(x)
        if using:  # else no component uses c: the restriction is inert
            comps = rest + [Restrict(par_all(sorted(using, key=pretty)), c)]
    if chans:
        comps.sort(key=pretty)
    return mark_normal(par_all(comps))


def congruent(p, q) -> bool:
    """Structural congruence via canonical forms."""
    return normalize(p) == normalize(q)


# --- observer congruence ----------------------------------------------------


@lru_cache(maxsize=None)
def normalize_observer(t):
    """Observer congruence has no rules for parallel composition, so the
    Par tree keeps its shape; only sums, conditionals, and expressions
    are canonicalized."""
    if isinstance(t, Sum):
        guards = sorted(set(flat_parts(sum_guards(t), sum_guards, normalize_observer)), key=pretty)
        return sum_all(guards) if guards else NIL
    if isinstance(t, (Tau, Restrict, RandBit)):
        raise TypeError(f"not an observer term: {t!r}")
    return _normal_node(t, normalize_observer)
