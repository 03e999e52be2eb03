"""Configurations, distributions, the probabilistic reduction relation,
and barbs.

A configuration pairs a normalized quantum state with a process (and an
observer, used by the enhanced semantics; the plain semantics keeps it
inert). The absorbing deadlock configuration BOT stands in for stuck
configurations when transitions are lifted to distributions.
"""

from __future__ import annotations

import itertools

from .errors import ChoiceExplosion, EvalError, LqccsError
from .ops import resolve_measurement, resolve_operator
from .parser import pretty
from .qcore import PROB_DECIMALS, TOL_MASS, TOL_PROB, DensityMatrix, apply_superop, measure
from .rewrite import (close_scopes, eval_expr, normalize, normalize_observer, substitute_many,
                      value_to_expr)
from .syntax import (
    NIL,
    ApplyOp,
    Measure,
    QubitLit,
    RandBit,
    Recv,
    Send,
    Std,
    Tau,
    cached,
    cached_beside,
    par_components,
    sum_guards,
)

BOT_BARB = "⊥"
DEFAULT_CHOICE_CAP = 100_000


class Configuration:
    """Either BOT or a triple (state, process, observer).

    Identity is exact on discrete structure and rounded on the state.
    The hash reads only the register names, the process and the observer:
    terms are interned, so it costs a few tuple hashes and never touches
    the 2^n x 2^n matrix. Two configurations are equal when they are one
    object, or when they share register, process and observer and their
    `key()`s agree. `key()` is the state's rounded key with the printed
    process and observer; it is built on first use, which is only when
    two configurations collide on their discrete structure or when a
    support is sorted. It rests on `pretty` being injective on normal
    forms (a process normal form holds standard forms, each printed as
    the nested term it stands for, and no `Par` or `Restrict`; an
    observer's holds no `Std`), so equal keys mean the same interned
    process and observer, and so equal hashes. Two colliding kets whose
    keys are not built yet are first compared on their diagonals
    (`DensityMatrix.keys_differ`), which tells most unequal pure states
    apart without building either key; equality is still exactly that of
    the keys."""

    __slots__ = ("rho", "proc", "obs", "_key", "_hash")

    def __init__(self, rho, proc, obs=NIL):
        self.rho = rho
        self.proc = proc
        self.obs = obs
        self._key = None
        self._hash = hash((None if rho is None else rho.register.names, proc, obs))

    @property
    def is_bot(self) -> bool:
        return self.rho is None

    def key(self):
        """Hashable, totally ordered fingerprint (used to sort supports)."""
        if self._key is None:
            if self.rho is None:
                self._key = ("bot", (), b"", "", "")
            else:
                names, data = self.rho.key()
                self._key = ("cfg", names, data, pretty(self.proc), pretty(self.obs))
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if (not isinstance(other, Configuration) or self._hash != other._hash
                or self.proc is not other.proc or self.obs is not other.obs
                or self.rho.keys_differ(other.rho)):
            return False
        return self.key() == other.key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_bot:
            return "<bot>"
        reg = ",".join(str(q) for q in self.rho.register.names)
        s = f"<[{reg}], {pretty(self.proc)}"
        if self.obs != NIL:
            s += f" | {pretty(self.obs)}"
        return s + ">"


BOT = Configuration(None, None, None)


def make_config(rho: DensityMatrix, proc, obs=NIL) -> Configuration:
    """Canonical configuration: process and observer normalized."""
    return Configuration(rho, normalize(proc), normalize_observer(obs))


class Distribution:
    """Finite-support probability distribution over configurations."""

    __slots__ = ("support", "_key", "_barbs")

    def __init__(self, pairs):
        acc: dict = {}
        total = 0.0
        for cfg, p in pairs:
            if p <= TOL_PROB:
                continue
            acc[cfg] = acc.get(cfg, 0.0) + p
            total += p
        if not acc:
            raise ValueError("empty distribution")
        if abs(total - 1.0) > TOL_MASS:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.support = acc
        self._key = self._barbs = None

    @staticmethod
    def point(cfg: Configuration) -> "Distribution":
        return Distribution([(cfg, 1.0)])

    def items(self):
        return self.support.items()

    def __len__(self):
        return len(self.support)

    def key(self):
        if self._key is None:
            self._key = tuple(
                sorted((c.key(), round(p, PROB_DECIMALS)) for c, p in self.support.items())
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = ", ".join(f"{p:.4f}*{c!r}" for c, p in sorted(
            self.support.items(), key=lambda kv: kv[0].key()))
        return f"{{{parts}}}"

    def map(self, f) -> "Distribution":
        """Push each configuration through f; BOT stays BOT, unseen by f."""
        return Distribution([(c if c.is_bot else f(c), p) for c, p in self.support.items()])

    def bot_mass(self) -> float:
        return self.support.get(BOT, 0.0)

    @staticmethod
    def convex(parts) -> "Distribution":
        """Mixture sum_i p_i * dist_i."""
        return Distribution([(c, p * q) for p, dist in parts for c, q in dist.items()])


def mixture(d1: Distribution, d2: Distribution, p: float) -> Distribution:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"mixing weight {p} outside [0, 1]")
    if p >= 1.0 - TOL_PROB:
        return d1
    if p <= TOL_PROB:
        return d2
    return Distribution.convex([(p, d1), (1 - p, d2)])


# --- execution view ---------------------------------------------------------


def exec_view(proc):
    """The parallel components of the normal form `proc`, as a list, and
    the channels restricted over all of them: the two fields of a
    standard form (`syntax.Std`), whose scopes are already extended and
    renamed apart (`rewrite.close_scopes`). `(d?w.nil || e?y.d!y) \\ d || d!5`
    normalizes to the components d!5, d#0?w.nil and e?y.d#0!y under d#0
    (README, scope notes). Any other normal form is its one component,
    under no restriction."""
    if isinstance(proc, Std):
        return list(proc.comps), proc.chans
    return [proc], frozenset()


def _payload_values(payload):
    try:
        return [e if isinstance(e, QubitLit) else value_to_expr(eval_expr(e)) for e in payload]
    except EvalError:
        return None  # open payload cannot be communicated


def _qubit_args(args) -> tuple:
    for e in args:
        if not isinstance(e, QubitLit):
            raise EvalError(f"operator argument {e!r} is not a qubit at runtime")
    return tuple(e.name for e in args)


# --- the reduction relation -------------------------------------------------


def step(config: Configuration, sig=None) -> list:
    """All distributions reachable in one reduction; stuck configurations
    (and BOT itself) step to the point distribution on BOT."""
    return step_genuine(config, sig) or [Distribution.point(BOT)]


def step_genuine(config: Configuration, sig=None) -> list:
    """Reductions derivable by the actual rules (no deadlock augmentation):
    the moves of the process's schemas (`schemas`, built once per term),
    each successor keeping the observer. The list is the caller's own."""
    if config.is_bot:
        return []
    return unique([schema_move(config, None, s, sig) for s in schemas(config.proc)])


def schema_move(config: Configuration, proc, schema, sig=None) -> Distribution:
    """The distribution `schema` moves `config` to: a process schema's
    residuals (no `proc`) replace the process; an observer schema's
    replace the observer, beside the successor process `proc`."""
    return Distribution([(Configuration(r, res, config.obs) if proc is None
                          else Configuration(r, proc, res), p)
                         for p, r, res in instantiate(schema, config.rho, sig)])


def unique(items) -> list:
    """First occurrence of each item, in order, compared by `==`; a list
    of fewer than two items is returned without hashing any."""
    return list(items) if len(items) < 2 else list(dict.fromkeys(items))


def communications(senders, receivers, blocked=frozenset()):
    """The communication rule: yields (i, j, continuation) for each send
    guard of a sender i matched by a reception guard of a distinct
    receiver j on the same channel, not in `blocked`, with the same
    arity; the continuation is the receiver's, with the payload values
    substituted. Receivers is a list and senders an iterable of
    (position, term) pairs, the components of `exec_view`, none a
    restriction; open payloads never communicate."""
    for i, sender in senders:
        for gs in sum_guards(sender):
            if not isinstance(gs, Send) or gs.chan in blocked:
                continue
            for j, receiver in receivers:
                if i == j:
                    continue
                for gr in sum_guards(receiver):
                    if not isinstance(gr, Recv) or gr.chan != gs.chan \
                            or len(gr.vars) != len(gs.payload):
                        continue
                    vals = _payload_values(gs.payload)
                    if vals is not None:
                        yield i, j, substitute_many(gr.cont, list(zip(gr.vars, vals)))


# --- move schemas -------------------------------------------------------------
# A schema is one move of a term without its state, built once per term;
# `instantiate` adds the numbers. A residual is the term a branch leaves.
# (TAU, residual) is a tau or a communication; (GATE, name, targets,
# residual); (RANDBIT, residual 0, residual 1); (MEASURE, name, targets,
# guard, settle, {outcome: residual, built on first use}); (ERROR, exc).
TAU, GATE, MEASURE, RANDBIT, ERROR = "tau", "gate", "measure", "randbit", "error"


def fire(guard, settle) -> tuple | None:
    """The prefix rules: the schema of a tau, gate, measurement or
    random-bit guard whose continuation becomes the residual `settle(cont)`,
    or None for any other guard; the same in a process and in an observer."""
    if isinstance(guard, Tau):
        return (TAU, settle(guard.cont))
    if isinstance(guard, ApplyOp):
        return (GATE, guard.op, _qubit_args(guard.args), settle(guard.cont))
    if isinstance(guard, Measure):
        return (MEASURE, guard.op, _qubit_args(guard.args), guard, settle, {})
    if isinstance(guard, RandBit):
        return (RANDBIT, *(settle(substitute_many(guard.cont, [(guard.var, bit)]))
                           for bit in (0, 1)))
    return None


def instantiate(schema, rho: DensityMatrix, sig) -> list:
    """The (probability, state, residual) branches of a schema on `rho`:
    its operator or measurement resolved under `sig`, then the backend
    call, which a verdict memoizes (`lqccs.memo`)."""
    kind = schema[0]
    if kind is TAU:
        return [(1.0, rho, schema[1])]
    if kind is GATE:
        _, name, targets, residual = schema
        op = resolve_operator(name, len(targets), sig)
        return [(1.0, apply_superop(op, targets, rho), residual)]
    if kind is RANDBIT:
        return [(0.5, rho, schema[1]), (0.5, rho, schema[2])]
    if kind is MEASURE:
        _, name, targets, guard, settle, residuals = schema
        out = []
        for outcome, p, post in measure(resolve_measurement(name, len(targets), sig), targets, rho):
            if outcome not in residuals:
                residuals[outcome] = settle(substitute_many(guard.cont, [(guard.var, outcome)]))
            out.append((p, post, residuals[outcome]))
        return out
    raise schema[1].with_traceback(None)


@cached("_schemas")
def schemas(proc) -> tuple:
    """The schemas of a process's normal form, in the order of its moves."""
    return tuple(_proc_schemas(normalize(proc)))


@cached("_first_schema")
def first_schema(proc):
    """The first schema of the normal form `proc`, or None: the first of
    `schemas`' tuple when that is built, else pulled alone from the
    schema generator."""
    built = getattr(proc, "_schemas", None)
    return next(_proc_schemas(proc) if built is None else iter(built), None)


def _beside(others, restricted):
    """The process frame: a continuation put back beside `others`, under `restricted`."""
    return lambda cont: close_scopes([*others, cont], restricted)


def _proc_schemas(proc):
    comps, restricted = exec_view(proc)
    try:
        for i, comp in enumerate(comps):
            settle = _beside(comps[:i] + comps[i + 1 :], restricted)
            for g in sum_guards(comp):
                schema = fire(g, settle)
                if schema is not None:
                    yield schema
        # communication between two distinct components
        live = list(enumerate(comps))
        for i, j, cont in communications(live, live):
            rest = [c for k, c in enumerate(comps) if k not in (i, j)]
            yield (TAU, close_scopes([*rest, cont], restricted))
    except LqccsError as exc:
        yield (ERROR, exc)


def lift(dist: Distribution, moves_of, cap: int = DEFAULT_CHOICE_CAP) -> list:
    """Lift indexed moves to a distribution: for each index that some
    element enables, in order of first appearance, every per-element
    choice of moves at that index, linearly combined; an element that
    lacks the index contributes the BOT point. A point of weight 1 lifts
    to its element's own moves, grouped by index in the same order, with
    no product: each choice is the move itself."""
    elems = list(dist.items())
    per_elem = [moves_of(c) for c, _ in elems]
    if len(elems) == 1 and elems[0][1] == 1.0:
        groups: dict = {}
        for idx, d in per_elem[0]:
            groups.setdefault(idx, []).append(d)
        for ds in groups.values():
            if len(ds) > cap:
                raise ChoiceExplosion(f"{len(ds)}+ move combinations exceed the cap {cap}")
        return unique([(idx, d) for idx, ds in groups.items() for d in ds])
    indices = dict.fromkeys(idx for mv in per_elem for idx, _ in mv)
    out = []
    for idx in indices:
        options = []
        total = 1
        for mv in per_elem:
            here = at_index(mv, idx)
            options.append(here)
            total *= len(here)
            if total > cap:
                raise ChoiceExplosion(f"{total}+ move combinations exceed the cap {cap}")
        for combo in itertools.product(*options):
            out.append((idx, Distribution.convex([(p, d) for (_, p), d in zip(elems, combo)])))
    return unique(out)


def at_index(moves, index) -> list:
    """The successors among (index, successor) moves at `index`, or the
    BOT point when there are none."""
    return [d for i, d in moves if i == index] or [Distribution.point(BOT)]


def lift_step(dist: Distribution, sig=None, cap: int = DEFAULT_CHOICE_CAP) -> list:
    """Lift the reduction relation: every per-element choice of moves,
    linearly combined, as (None, successor) moves, the shape of
    `osem.lift_estep`'s. Stuck elements contribute the BOT point."""
    return lift(dist, lambda c: [(None, m) for m in step(c, sig)], cap)


# --- barbs -------------------------------------------------------------------


@cached("_open_guards")
def open_guards(proc) -> tuple:
    """The top-level send and reception guards on channels no restriction
    hides: the guards a context can communicate with."""
    comps, restricted = exec_view(normalize(proc))
    return tuple(g for comp in comps for g in sum_guards(comp)
                 if isinstance(g, (Send, Recv)) and g.chan not in restricted)


def proc_barbs(proc) -> frozenset:
    """Channels on which the process is ready to send (not restricted)."""
    return frozenset(g.chan for g in open_guards(proc) if isinstance(g, Send))


def config_barbs(config: Configuration) -> frozenset:
    """Barbs of a (possibly extended) configuration: process sends plus
    the sends among the positions of the observer's parallel tree, its
    observer normal form read as the enhanced semantics reads it."""
    return frozenset() if config.is_bot else _barbs(config.proc, config.obs)


@cached_beside("_barbs_beside")
def _barbs(proc, obs) -> frozenset:
    barbs = set(proc_barbs(proc))
    barbs.update(c.chan for c in par_components(normalize_observer(obs)) if isinstance(c, Send))
    return frozenset(barbs)


def dist_barbs(dist: Distribution) -> dict:
    """Per-channel probability mass of elements exhibiting the barb, with
    the deadlock mass under BOT_BARB. Kept on the distribution after the
    first call: callers must not mutate it."""
    if dist._barbs is None:
        out: dict = {}
        for cfg, p in dist.items():
            for b in (BOT_BARB,) if cfg.is_bot else config_barbs(cfg):
                out[b] = out.get(b, 0.0) + p
        dist._barbs = out
    return dist._barbs


def barb_mismatch(b1: dict, b2: dict):
    """First differing channel, or None."""
    for k in sorted(set(b1) | set(b2)):
        p1, p2 = b1.get(k, 0.0), b2.get(k, 0.0)
        if abs(p1 - p2) > TOL_PROB:
            return (k, p1, p2)
    return None
