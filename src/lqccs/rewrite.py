"""Expression evaluation, substitution, and structural congruence.

`normalize` computes the canonical representative of a process term's
congruence class: closed classical expressions are evaluated, literal
conditionals resolved, sum children flattened and sorted in a fixed
total order, discard tuples sorted, and every parallel composition taken
as a chain of restrictions, possibly of none, with one rule
(`close_scopes`): its components flattened and sorted, inert ones
dropped, and its scopes closed under the chain's set of channels,
renamed apart where they clash (`extend_scopes`). The result is one
`syntax.Std` node, the standard form ν c̃ (P₁ || … || Pₙ): the sorted
components and the restricted channels that some component has free.
Only the printer nests the scopes again. The semantics builds every
residual with the same rule. A normal form is marked as one, so
normalizing it again is a cache lookup. `normalize_observer`, which
neither reads nor sets the mark, shares the discard, conditional and
prefix cases (`_normal_node`) but has no rules for parallel
composition, whose shape it keeps intact.
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
    Std,
    Sum,
    Tau,
    Var,
    channels,
    expr_vars,
    fresh_channel,
    free_channels,
    map_free_vars,
    map_term,
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


def flat_guards(t, norm) -> list:
    """The alternatives of the sum `t`, each normalized by `norm`, nil
    dropped and the normalized ones split again into alternatives."""
    return [g for c in sum_guards(t) if (n := norm(c)) != NIL for g in sum_guards(n)]


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
        parts = sorted(flat_guards(t, normalize), key=pretty)
        return sum_all(parts) if parts else NIL
    if isinstance(t, (Par, Restrict, Std)):  # a Par is a chain of no restrictions
        chans = set()
        while isinstance(t, Restrict):
            chans.add(t.chan)
            t = t.body
        if isinstance(t, Std):
            return close_scopes(t.comps, chans | t.chans)
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
    in Q, over the normal parallel components `comps` of a term restricted
    on `chans`. Each standard form among them is replaced, in place, by its
    components, and its channels join `chans`. A channel of the standard
    form free in another component is first renamed to a
    `syntax.fresh_channel` that no component names, free or bound, and the
    renamed components normalized again; a channel of `chans` that no
    component names binds nothing, so the fresh name may be one. One in
    `chans` but free in no other component keeps its name, as the outer
    restriction binds nothing else. This is the one place that decides a
    restriction's scope."""
    comps = list(comps)
    chans = frozenset(chans)
    i = 0
    while i < len(comps):
        std = comps[i]
        if not isinstance(std, Std):
            i += 1
            continue
        inner, chain = std.comps, std.chans
        clash = {c for j, x in enumerate(comps) if j != i for c in chain & free_channels(x)}
        if clash:
            taken = frozenset().union(*map(channels, comps))
            for c in sorted(clash):
                fresh = fresh_channel(c, taken)
                taken |= {fresh}
                chain = chain - {c} | {fresh}
                inner = [_rename_channel(x, c, fresh) for x in inner]
            inner = [normalize(x) for x in inner]
        comps[i:i + 1] = inner
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
    `chans`: each part normalized (a cache hit on a residual's siblings,
    which are normal already), inert ones dropped, the parts sorted by the
    printed term, so that clashing names are renamed in a fixed order, and
    the scopes of standard forms among them extended over their siblings
    (`extend_scopes`), and sorted again. The channels that no component
    has free are dropped: the result is the standard form of the
    components, marked, or the one component, or nil, when it restricts
    nothing. A parallel composition is the case of no `chans`, and a
    residual is built by the same rule."""
    comps = sorted((n for c in parts if (n := normalize(c)) != NIL), key=pretty)
    if any(isinstance(x, Std) for x in comps):
        comps, chans = extend_scopes(comps, chans)
        comps.sort(key=pretty)
    if chans:
        chans = frozenset(chans) & frozenset().union(*map(free_channels, comps))
    if not chans and len(comps) < 2:
        return comps[0] if comps else NIL
    return mark_normal(Std(tuple(comps), frozenset(chans)))


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
        guards = sorted(set(flat_guards(t, normalize_observer)), key=pretty)
        return sum_all(guards) if guards else NIL
    if isinstance(t, (Tau, Restrict, Std, RandBit)):
        raise TypeError(f"not an observer term: {t!r}")
    return _normal_node(t, normalize_observer)
