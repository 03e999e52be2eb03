"""Equivalence toolbox: bounded distinguisher games for the saturated and
constrained semantics, bisimulation-candidate checking (plain and up to
convex hull), the density-quotient certificate for deterministic
processes, refinement, discard-trace reduction, the partial-trace
necessary condition, and the tagging translation that cross-validates
the two semantics.

Soundness contract: every Distinguished verdict carries a strategy tree
that is replayed from scratch before it is returned; certificates are
emitted only for the constrained semantics (plus literal distribution
equality); everything else is inconclusive at the given bounds.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .errors import ChoiceExplosion, ShapeError, TypingError
from .osem import (
    DIAMOND,
    L,
    R,
    apply_context,
    apply_process_context,
    estep as estep_augmented,
    estep_genuine,
    lift_estep,
    moves_at,
)
from .parser import pretty
from .qcore import TOL_PROB, DensityMatrix, partial_trace
from .rewrite import normalize, normalize_observer
from .semantics import (
    BOT,
    Configuration,
    Distribution,
    barb_mismatch,
    dist_barbs,
    lift_step,
    proc_barbs,
    step_genuine,
)
from .syntax import (
    NIL,
    ApplyOp,
    BinOp,
    Ite,
    Measure,
    NatLit,
    Nil,
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
    free_channels,
    observer_violation,
    par_all,
    par_components,
    qubit_atoms,
    sum_all,
    sum_guards,
)

SATURATED = "saturated"
CONSTRAINED = "constrained"


@dataclass(frozen=True)
class SearchBounds:
    context_size: int = 14
    depth: int = 6
    gate_set: tuple = ("I", "H", "X")
    fresh_channels: int = 4
    choice_cap: int = 100_000
    ancillas: int = 1
    hint_contexts: tuple = ()


@dataclass
class Stats:
    contexts_tried: int = 0
    states_visited: int = 0
    wall_ms: int = 0

    def to_json(self):
        return {
            "contexts_tried": self.contexts_tried,
            "states_visited": self.states_visited,
            "wall_ms": self.wall_ms,
        }


@dataclass
class Distinguished:
    witness: "Witness"
    stats: Stats = field(default_factory=Stats)

    verdict = "distinguished"


@dataclass
class CertifiedBisimilar:
    certificate: tuple
    stats: Stats = field(default_factory=Stats)

    verdict = "certified-bisimilar"


@dataclass
class InconclusiveAtBounds:
    bounds: SearchBounds
    reason: str = ""
    stats: Stats = field(default_factory=Stats)

    verdict = "inconclusive-at-bounds"


@dataclass
class BarbLeaf:
    channel: str
    p_left: float
    p_right: float


@dataclass
class AttackStep:
    side: str  # which distribution the attacker moved
    context: object  # frame applied to both sides before the move, or None
    index: object  # transition index, or None in saturated mode
    move: Distribution
    refutations: tuple  # ((defender distribution key, sub-witness), ...)


Witness = object  # BarbLeaf | AttackStep


# ---------------------------------------------------------------------------
# moves


def _lifted_moves(dist: Distribution, mode: str, sig, cap: int) -> list:
    """(index, successor) pairs; saturated moves carry index None."""
    if mode == SATURATED:
        return [(None, d) for d in lift_step(dist, sig, cap)]
    return lift_estep(dist, sig, cap)


def _moves_at(dist: Distribution, index, mode: str, sig, cap: int) -> list:
    if mode == SATURATED:
        return lift_step(dist, sig, cap)
    return moves_at(dist, index, sig, cap)


def _apply_frame(dist: Distribution, frame, mode: str, sig) -> Distribution:
    if mode == SATURATED:
        return apply_process_context(dist, frame, sig)
    return apply_context(dist, frame, sig)


# ---------------------------------------------------------------------------
# determinism and the density-quotient certificate


def syntactically_deterministic(proc) -> bool:
    """Sufficient syntactic condition: no real sums, at most one live
    parallel component, choices only via conditionals or measurement
    outcomes."""
    from .semantics import exec_view

    proc = normalize(proc)
    comps, _ = exec_view(proc)
    live = [c for c in comps if not isinstance(c, Nil)]
    if len(live) > 1:
        return False
    if not live:
        return True
    comp = live[0]
    if isinstance(comp, Restrict):
        return syntactically_deterministic(comp.body)
    guards = sum_guards(comp)
    if len(guards) > 1:
        return False
    g = guards[0]
    if isinstance(g, (Send, Nil)):
        return True
    if isinstance(g, (Tau, ApplyOp, Measure, Recv, RandBit)):
        return _det_term(g.cont)
    return False


def _det_term(t) -> bool:
    if isinstance(t, Sum):
        return False
    if isinstance(t, (Send, Nil)):
        return True
    if isinstance(t, (Tau, ApplyOp, Measure, Recv, RandBit)):
        return _det_term(t.cont)
    if isinstance(t, Restrict):
        return _det_term(t.body)
    if isinstance(t, Ite):
        return _det_term(t.then) and _det_term(t.els)
    if isinstance(t, Par):
        live = [c for c in par_components(t) if not isinstance(c, Nil)]
        if len(live) > 1:
            return False
        return all(_det_term(c) for c in live)
    return False


def is_deterministic(dist: Distribution, bounds: SearchBounds = SearchBounds(), sig=None) -> str:
    """'yes' when the syntactic condition holds for every support process,
    'no' when a bounded probe finds one index with observably different
    successors, 'inconclusive' otherwise."""
    procs = [c.proc for c, _ in dist.items() if not c.is_bot]
    if all(syntactically_deterministic(p) for p in procs):
        return "yes"
    probe_frames = _determinism_probes(dist, bounds)
    for frame in [None] + probe_frames:
        try:
            d = apply_context(dist, frame) if frame is not None else dist
        except TypingError:
            continue
        try:
            moves = lift_estep(d, sig, bounds.choice_cap)
        except ChoiceExplosion:
            continue
        by_index: dict = {}
        for idx, succ in moves:
            by_index.setdefault(idx, []).append(succ)
        for idx, succs in by_index.items():
            if len(succs) < 2:
                continue
            for a, b in itertools.combinations(succs, 2):
                if a == b:
                    continue
                if barb_mismatch(dist_barbs(a), dist_barbs(b)) is not None:
                    return "no"
                if not isinstance(density_quotient_equiv(a, b, bounds, sig), CertifiedBisimilar):
                    return "no"
    return "inconclusive"


def _determinism_probes(dist: Distribution, bounds: SearchBounds) -> list:
    """Reception sums that expose process-side choices as distinct barbs."""
    chans = set()
    for c, _ in dist.items():
        if not c.is_bot:
            chans |= set(proc_barbs(c.proc))
    chans = sorted(chans)
    flags = _fresh_names("probe", 2, _used_channels(dist))
    arities = _send_arities(dist)
    frames = [_probe_recv(a, arities.get(a, 1), flags[0]) for a in chans]
    for a, b in itertools.combinations(chans, 2):
        ra = _probe_recv(a, arities.get(a, 1), flags[0])
        rb = _probe_recv(b, arities.get(b, 1), flags[1])
        frames.append(Sum(ra, rb))
    return frames


def _probe_recv(chan: str, arity: int, flag: str):
    names = tuple(f"x{i}" for i in range(arity))
    # discard whatever arrives (classical discards are dropped by typing,
    # but at runtime only qubit names matter), flag the channel
    body = Par(Send(flag, (NatLit(0),)), Nil(tuple(Var(v) for v in names)))
    return Recv(chan, names, body)


def _send_arities(dist: Distribution) -> dict:
    out: dict = {}

    def walk(t):
        if isinstance(t, Send):
            out[t.chan] = len(t.payload)
        for ch in _term_children(t):
            walk(ch)

    for c, _ in dist.items():
        if not c.is_bot:
            walk(c.proc)
            walk(c.obs)
    return out


def _term_children(t):
    if isinstance(t, (Tau, ApplyOp, Measure, Recv, RandBit)):
        return (t.cont,)
    if isinstance(t, (Sum, Par)):
        return (t.left, t.right)
    if isinstance(t, Restrict):
        return (t.body,)
    if isinstance(t, Ite):
        return (t.then, t.els)
    return ()


def density_quotient_equiv(
    dl: Distribution, dr: Distribution, bounds: SearchBounds = SearchBounds(), sig=None
):
    """Certify bisimilarity when both distributions group (by process and
    observer) into identical masses with identical aggregate density
    operators and deterministic processes. Sufficient only: failure is
    inconclusive, never a refutation."""
    gl = _quotient_groups(dl)
    gr = _quotient_groups(dr)
    if gl is None or gr is None:
        return InconclusiveAtBounds(bounds, "support elements on different registers")
    if set(gl) != set(gr):
        return InconclusiveAtBounds(bounds, "support groups differ")
    for key in gl:
        ml, aggl = gl[key]
        mr, aggr = gr[key]
        if abs(ml - mr) > TOL_PROB:
            return InconclusiveAtBounds(bounds, f"group mass differs for {key}")
        if key == "bot":
            continue
        if aggl.shape != aggr.shape or not np.allclose(aggl, aggr, atol=1e-8):
            return InconclusiveAtBounds(bounds, "aggregate states differ")
        proc = key[0]
        if not syntactically_deterministic(proc):
            det = is_deterministic(Distribution.point(
                Configuration(_group_state(gl, key), proc, key[1])), bounds, sig)
            if det != "yes":
                return InconclusiveAtBounds(bounds, f"process not deterministic: {pretty(proc)}")
    cert = ("density-quotient", tuple(sorted(
        (pretty(k[0]) if k != "bot" else "bot") for k in gl)))
    return CertifiedBisimilar(cert)


def _quotient_groups(dist: Distribution):
    groups: dict = {}
    register = None
    for c, p in dist.items():
        if c.is_bot:
            m, _ = groups.get("bot", (0.0, None))
            groups["bot"] = (m + p, None)
            continue
        if register is None:
            register = c.rho.register
        elif register != c.rho.register:
            return None
        key = (c.proc, c.obs)
        m, agg = groups.get(key, (0.0, np.zeros_like(c.rho.mat)))
        groups[key] = (m + p, agg + p * c.rho.mat)
    return groups


def _group_state(groups, key) -> DensityMatrix:
    mass, agg = groups[key]
    reg_dim = agg.shape[0]
    n = reg_dim.bit_length() - 1
    return DensityMatrix(tuple(f"g{i}" for i in range(n)), agg / mass, check=False)


# ---------------------------------------------------------------------------
# refinement


def refines(p_small, p_big):
    """Refinement witness (list of substitution records) or None."""
    if p_small == p_big:
        return []
    if isinstance(p_big, Sum):
        if isinstance(p_small, Ite):
            w1 = refines(p_small.then, p_big.left)
            w2 = refines(p_small.els, p_big.right)
            if w1 is not None and w2 is not None:
                return [("ite", p_big, p_small.cond)] + w1 + w2
        if isinstance(p_small, Sum):
            w1 = refines(p_small.left, p_big.left)
            w2 = refines(p_small.right, p_big.right)
            if w1 is not None and w2 is not None:
                return w1 + w2
        wl = refines(p_small, p_big.left)
        if wl is not None:
            return [("left", p_big)] + wl
        wr = refines(p_small, p_big.right)
        if wr is not None:
            return [("right", p_big)] + wr
        return None
    pairs = None
    if isinstance(p_small, Tau) and isinstance(p_big, Tau):
        pairs = [(p_small.cont, p_big.cont)]
    elif isinstance(p_small, ApplyOp) and isinstance(p_big, ApplyOp):
        if (p_small.op, p_small.args) == (p_big.op, p_big.args):
            pairs = [(p_small.cont, p_big.cont)]
    elif isinstance(p_small, Measure) and isinstance(p_big, Measure):
        if (p_small.op, p_small.args, p_small.var) == (p_big.op, p_big.args, p_big.var):
            pairs = [(p_small.cont, p_big.cont)]
    elif isinstance(p_small, Recv) and isinstance(p_big, Recv):
        if (p_small.chan, p_small.vars) == (p_big.chan, p_big.vars):
            pairs = [(p_small.cont, p_big.cont)]
    elif isinstance(p_small, RandBit) and isinstance(p_big, RandBit):
        if p_small.var == p_big.var:
            pairs = [(p_small.cont, p_big.cont)]
    elif isinstance(p_small, Par) and isinstance(p_big, Par):
        pairs = [(p_small.left, p_big.left), (p_small.right, p_big.right)]
    elif isinstance(p_small, Restrict) and isinstance(p_big, Restrict):
        if p_small.chan == p_big.chan:
            pairs = [(p_small.body, p_big.body)]
    elif isinstance(p_small, Ite) and isinstance(p_big, Ite):
        if p_small.cond == p_big.cond:
            pairs = [(p_small.then, p_big.then), (p_small.els, p_big.els)]
    if pairs is None:
        return None
    out = []
    for s, b in pairs:
        w = refines(s, b)
        if w is None:
            return None
        out.extend(w)
    return out


def refines_upto(p_small, p_big) -> bool:
    """Refinement modulo structural congruence (canonical forms rearrange
    sums and parallels and drop inert units, so the plain syntactic
    relation is matched through multiset alignments and guard subsets).
    Sound for deciding the lifted relation on canonicalized terms."""
    return _refines_upto(normalize(p_small), normalize(p_big), {})


def _refines_upto(ps, pb, memo) -> bool:
    key = (ps, pb)
    if key in memo:
        return memo[key]
    memo[key] = False  # cycle guard; sizes strictly decrease anyway
    result = _refines_upto_raw(ps, pb, memo)
    memo[key] = result
    return result


def _refines_upto_raw(ps, pb, memo) -> bool:
    if ps == pb:
        return True
    if ps == NIL:
        # the inert process refines any ownerless alternative: K == K + 0
        # is a legal congruence step only when the sum types under the
        # empty qubit context
        from .syntax import is_guard

        return is_guard(pb) and not qubit_atoms(pb)
    if isinstance(ps, Par) or isinstance(pb, Par):
        cs = [c for c in par_components(ps) if c != NIL]
        cb = [c for c in par_components(pb) if c != NIL]
        if len(cs) > len(cb):
            return False
        # injective matching; leftover components must collapse to nil
        return _match_components(cs, cb, memo)
    big_guards = sum_guards(pb) if isinstance(pb, Sum) else None
    if isinstance(ps, Ite) and (big_guards is not None or not isinstance(pb, Ite)):
        guards = big_guards if big_guards is not None else [pb]
        for mask in range(1 << len(guards)):
            part1 = [g for i, g in enumerate(guards) if mask >> i & 1]
            part2 = [g for i, g in enumerate(guards) if not mask >> i & 1]
            if (not part1 or not part2) and qubit_atoms(pb):
                continue  # an empty side stands for an ill-typed 0-branch
            left = normalize(sum_all(part1)) if part1 else NIL
            right = normalize(sum_all(part2)) if part2 else NIL
            if _refines_upto(ps.then, left, memo) and _refines_upto(ps.els, right, memo):
                return True
        return False
    if big_guards is not None:
        small_guards = sum_guards(ps) if isinstance(ps, Sum) else [ps]
        if len(small_guards) > len(big_guards):
            return False
        return _match_guards(small_guards, big_guards, memo)
    pairs = None
    if isinstance(ps, Tau) and isinstance(pb, Tau):
        pairs = [(ps.cont, pb.cont)]
    elif isinstance(ps, ApplyOp) and isinstance(pb, ApplyOp):
        if (ps.op, ps.args) == (pb.op, pb.args):
            pairs = [(ps.cont, pb.cont)]
    elif isinstance(ps, Measure) and isinstance(pb, Measure):
        if (ps.op, ps.args, ps.var) == (pb.op, pb.args, pb.var):
            pairs = [(ps.cont, pb.cont)]
    elif isinstance(ps, Recv) and isinstance(pb, Recv):
        if (ps.chan, ps.vars) == (pb.chan, pb.vars):
            pairs = [(ps.cont, pb.cont)]
    elif isinstance(ps, RandBit) and isinstance(pb, RandBit):
        if ps.var == pb.var:
            pairs = [(ps.cont, pb.cont)]
    elif isinstance(ps, Restrict) and isinstance(pb, Restrict):
        if ps.chan == pb.chan:
            pairs = [(ps.body, pb.body)]
    elif isinstance(ps, Ite) and isinstance(pb, Ite):
        if ps.cond == pb.cond:
            pairs = [(ps.then, pb.then), (ps.els, pb.els)]
    if pairs is None:
        return False
    return all(_refines_upto(s, b, memo) for s, b in pairs)


def _match_components(cs, cb, memo) -> bool:
    if not cs:
        return all(_refines_upto(NIL, b, memo) for b in cb)
    head, rest = cs[0], cs[1:]
    for j, b in enumerate(cb):
        if _refines_upto(head, b, memo) and _match_components(rest, cb[:j] + cb[j + 1 :], memo):
            return True
    return False


def _match_guards(small, big, memo) -> bool:
    if not small:
        return True  # leftover alternatives are dropped by collapsing
    head, rest = small[0], small[1:]
    for j, b in enumerate(big):
        if _refines_upto(head, b, memo) and _match_guards(rest, big[:j] + big[j + 1 :], memo):
            return True
    return False


def config_refines(cs: Configuration, cb: Configuration) -> bool:
    if cs.is_bot:
        return True
    if cb.is_bot:
        return False
    return (
        cs.rho.close_to(cb.rho)
        and cs.obs == cb.obs
        and refines_upto(cs.proc, cb.proc)
    )


def dist_refines(ds: Distribution, db: Distribution) -> bool:
    """Coupling feasibility: mass of ds routed to refined targets in db."""
    return _coupling_exists(ds, db, config_refines)


def _coupling_exists(d1: Distribution, d2: Distribution, admissible) -> bool:
    from scipy.optimize import linprog

    e1 = list(d1.items())
    e2 = list(d2.items())
    edges = [
        (i, j)
        for i, (c1, _) in enumerate(e1)
        for j, (c2, _) in enumerate(e2)
        if admissible(c1, c2)
    ]
    if not edges:
        return False
    nvar = len(edges)
    a_eq = []
    b_eq = []
    for i, (_, p) in enumerate(e1):
        row = [1.0 if ei == i else 0.0 for ei, _ in edges]
        a_eq.append(row)
        b_eq.append(p)
    for j, (_, p) in enumerate(e2):
        row = [1.0 if ej == j else 0.0 for _, ej in edges]
        a_eq.append(row)
        b_eq.append(p)
    res = linprog(
        c=[0.0] * nvar,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * nvar,
        method="highs",
    )
    return bool(res.success)


def check_nondet_vs_ite(
    d_small: Distribution,
    d_big: Distribution,
    bounds: SearchBounds = SearchBounds(),
    sig=None,
    depth: int | None = None,
):
    """Instance check: every indexed move of the refinement is matched by
    a same-index move of the refined distribution landing on a refined
    target. Returns (ok, failure description or None)."""
    depth = bounds.depth if depth is None else depth
    if not dist_refines(d_small, d_big):
        return False, "precondition failed: no refinement coupling"

    def go(ds, db, d):
        if d == 0:
            return True, None
        try:
            small_moves = lift_estep(ds, sig, bounds.choice_cap)
            big_moves = lift_estep(db, sig, bounds.choice_cap)
        except ChoiceExplosion as exc:
            return False, str(exc)
        for idx, succ in small_moves:
            matches = [t for i2, t in big_moves if i2 == idx and dist_refines(succ, t)]
            if not matches:
                return False, f"unmatched move at index {idx!r}"
            ok, why = go(succ, matches[0], d - 1)
            if not ok:
                return ok, why
        return True, None

    return go(d_small, d_big, depth)


# ---------------------------------------------------------------------------
# discard-trace reduction and the partial-trace necessary condition


def config_partial_trace(dist: Distribution, qubits) -> Distribution:
    """Remove a discard component owning exactly `qubits` from every
    element and trace those qubits out of the state."""
    qset = frozenset(qubits)
    if not qset:
        return dist

    def strip(c: Configuration) -> Configuration:
        if c.is_bot:
            return c
        comps = par_components(normalize(c.proc))
        discards = [x for x in comps if isinstance(x, Nil)]
        chosen = None
        for k in range(1, len(discards) + 1):
            for combo in itertools.combinations(discards, k):
                names: set = set()
                ok = True
                for d in combo:
                    dn = {e.name for e in d.discards if isinstance(e, QubitLit)}
                    if dn & names:
                        ok = False
                        break
                    names |= dn
                if ok and names == qset:
                    chosen = list(combo)
                    break
            if chosen is not None:
                break
        if chosen is None:
            raise ShapeError(
                f"element {pretty(c.proc)} does not discard exactly {sorted(qset)}"
            )
        remaining = list(comps)
        for d in chosen:
            remaining.remove(d)
        new_proc = normalize(par_all(remaining) if remaining else NIL)
        return Configuration(partial_trace(c.rho, sorted(qset)), new_proc, c.obs)

    return dist.map(strip)


@dataclass
class MeasurementWitness:
    measurement: qcore.Measurement
    targets: tuple
    flag: str
    p_left: float
    p_right: float


def partial_trace_necessary(dl: Distribution, dr: Distribution, sig=None):
    """Necessary condition on point configurations: the reduced states on
    qubits outside the processes must agree; on failure, returns the
    distinguishing measurement (over the environment qubits) that refutes
    bisimilarity, replayable as an observer context."""
    (cl, _), = dl.items()
    (cr, _), = dr.items()
    if cl.is_bot or cr.is_bot:
        raise ShapeError("partial_trace_necessary expects point configurations")
    owned_l = qubit_atoms(cl.proc) | qubit_atoms(cl.obs)
    owned_r = qubit_atoms(cr.proc) | qubit_atoms(cr.obs)
    env_l = tuple(q for q in cl.rho.register.names if q not in owned_l)
    env_r = tuple(q for q in cr.rho.register.names if q not in owned_r)
    if env_l != env_r:
        raise ShapeError(f"environments differ: {env_l} vs {env_r}")
    if not env_l:
        return ("consistent", None)
    red_l = partial_trace(cl.rho, tuple(sorted(owned_l)))
    red_r = partial_trace(cr.rho, tuple(sorted(owned_r)))
    diff = red_l.mat - red_r.mat
    if np.max(np.abs(diff)) <= 1e-8:
        return ("consistent", None)
    eigvals, eigvecs = np.linalg.eigh(diff)
    k = int(np.argmax(np.abs(eigvals)))
    v = eigvecs[:, k].reshape(-1, 1)
    proj = v @ v.conj().T
    dim = proj.shape[0]
    m = qcore.Measurement([proj, np.eye(dim) - proj], check=False)
    p_left = float((proj @ red_l.mat).trace().real)
    p_right = float((proj @ red_r.mat).trace().real)
    flag = _fresh_names("ptflag", 1, _used_channels(dl) | _used_channels(dr))[0]
    return ("refuted", MeasurementWitness(m, env_l, flag, p_left, p_right))


def replay_measurement_witness(
    dl: Distribution, dr: Distribution, witness: MeasurementWitness, sig=None
) -> bool:
    """Apply the witness measurement as an observer context to both sides
    and confirm the flag barb masses differ as recorded."""
    use_sig = (sig.copy() if sig is not None else Signature())
    use_sig.measurements = dict(use_sig.measurements)
    use_sig.measurements["Mwitness"] = witness.measurement
    frame = Measure(
        "Mwitness",
        tuple(QubitLit(q) for q in witness.targets),
        "y",
        Par(
            Ite(BinOp("=", Var("y"), NatLit(0)), Send(witness.flag, (NatLit(0),)), Nil()),
            Nil(tuple(QubitLit(q) for q in witness.targets)),
        ),
    )
    got = []
    for d in (dl, dr):
        ctx = apply_context(d, frame, use_sig)
        succ = moves_at(ctx, "", use_sig)
        if len(succ) != 1:
            return False
        got.append(dist_barbs(succ[0]).get(witness.flag, 0.0))
    return (
        abs(got[0] - witness.p_left) <= 1e-6
        and abs(got[1] - witness.p_right) <= 1e-6
        and abs(got[0] - got[1]) > TOL_PROB
    )


def superop_closure_pair(dl: Distribution, dr: Distribution, op: qcore.Superoperator, targets):
    """Apply a superoperator on environment qubits of both sides (closure
    property of certified pairs)."""

    def app(c: Configuration) -> Configuration:
        if c.is_bot:
            return c
        return Configuration(qcore.apply_superop(op, targets, c.rho), c.proc, c.obs)

    return dl.map(app), dr.map(app)


# ---------------------------------------------------------------------------
# tagging translation (enhanced semantics as standard reductions)


def _tag_channel(k: str) -> str:
    return f"tag_{k}"


def tag_path(chan: str):
    return chan[len("tag_"):] if chan.startswith("tag_") else None


def ptag_obs(obs, k: str = "", pi=None):
    """Tag an observer with barbs that name its choice positions. `pi`
    marks the position of a just-fired action: the subtree there is keyed
    one level deeper so its fresh barbs do not collide with the consumed
    one."""
    if pi == "":
        return ptag_obs(obs, k + "i", None)
    if isinstance(obs, Par):
        if pi is not None and pi[0] == L:
            return Par(ptag_obs(obs.left, k + "l", pi[1:]), ptag_obs(obs.right, k + "r", None))
        if pi is not None and pi[0] == R:
            return Par(ptag_obs(obs.left, k + "l", None), ptag_obs(obs.right, k + "r", pi[1:]))
        return Par(ptag_obs(obs.left, k + "l", None), ptag_obs(obs.right, k + "r", None))
    tag = Send(_tag_channel(k), (NatLit(0),))
    if isinstance(obs, Nil):
        return obs
    if isinstance(obs, ApplyOp):
        return Sum(ApplyOp(obs.op, obs.args, ptag_obs(obs.cont, k + "i", None)), tag)
    if isinstance(obs, Measure):
        return Sum(Measure(obs.op, obs.args, obs.var, ptag_obs(obs.cont, k + "i", None)), tag)
    if isinstance(obs, Recv):
        return Sum(Recv(obs.chan, obs.vars, ptag_obs(obs.cont, k + "i", None)), tag)
    if isinstance(obs, Send):
        return Sum(obs, tag)
    if isinstance(obs, Sum):
        return Sum(ptag_obs(obs.left, k, None), ptag_obs(obs.right, k, None))
    if isinstance(obs, Ite):
        return Ite(obs.cond, ptag_obs(obs.then, k, None), ptag_obs(obs.els, k, None))
    raise TypeError(f"not an observer: {obs!r}")


def ptag(config: Configuration, k: str = "", pi=None) -> Configuration:
    """Fold the (tagged) observer into the process component."""
    if config.is_bot:
        return BOT
    if pi == DIAMOND:
        pi = None
    tagged = ptag_obs(normalize_observer(config.obs), k, pi)
    return Configuration(config.rho, normalize(Par(config.proc, tagged)), NIL)


def ptag_dist(dist: Distribution, k: str = "", pi=None) -> Distribution:
    return dist.map(lambda c: ptag(c, k, pi))


def _tags_of(config: Configuration) -> frozenset:
    if config.is_bot:
        return frozenset()
    from .semantics import config_barbs

    return frozenset(p for p in (tag_path(b) for b in config_barbs(config)) if p is not None)


def classify_tagged_move(src_tags: frozenset, dist: Distribution):
    """Which tagged transitions the standard move realizes: ('diamond' in
    the set when every element preserves the tags; each path tag that is
    consumed exactly, per the tagged-transition definition)."""
    kinds = set()
    elem_tags = [_tags_of(c) for c, _ in dist.items()]
    if all(t == src_tags for t in elem_tags):
        kinds.add(DIAMOND)
    for lam in src_tags:
        if all(lam not in t and (src_tags - {lam}) <= t for t in elem_tags):
            kinds.add(lam)
    return kinds


def _dist_matches(tagged: Distribution, expected: Distribution) -> bool:
    return tagged.key() == expected.key()


def crossvalidate_semantics(config: Configuration, depth: int = 2, sig=None):
    """Check, to the given depth, that enhanced moves and tagged standard
    moves of the configuration coincide. Returns (ok, mismatch list)."""
    mismatches = []

    def check(cfg: Configuration, d: int):
        if cfg.is_bot or d == 0:
            return
        enhanced = estep_genuine(cfg, sig)
        tagged_src = ptag(cfg)
        src_tags = _tags_of(tagged_src)
        standard = step_genuine(tagged_src, sig)
        classified = [(dist, classify_tagged_move(src_tags, dist)) for dist in standard]
        # every enhanced move corresponds to a tagged standard move
        for idx, succ in enhanced:
            kind = DIAMOND if idx == DIAMOND else _to_tag_key(idx)
            expected = ptag_dist(succ, "", None if idx == DIAMOND else idx)
            found = any(
                kind in kinds and _dist_matches(dist, expected)
                for dist, kinds in classified
            )
            if not found:
                mismatches.append((cfg, "enhanced move missing on tagged side", idx))
        # every tagged standard move corresponds to an enhanced move
        for dist, kinds in classified:
            for kind in kinds:
                if kind == DIAMOND:
                    ok = any(
                        idx == DIAMOND and _dist_matches(dist, ptag_dist(succ))
                        for idx, succ in enhanced
                    )
                else:
                    ok = any(
                        idx != DIAMOND
                        and _to_tag_key(idx) == kind
                        and _dist_matches(dist, ptag_dist(succ, "", idx))
                        for idx, succ in enhanced
                    )
                if not ok:
                    mismatches.append((cfg, "tagged move missing on enhanced side", kind))
        for idx, succ in enhanced:
            for c, _ in succ.items():
                check(c, d - 1)

    check(config, depth)
    return (not mismatches, mismatches)


def _to_tag_key(idx: str) -> str:
    # enhanced indices use the script ell; tag keys use plain l/r
    return "".join("l" if ch == L else "r" for ch in idx)


# ---------------------------------------------------------------------------
# context enumeration


def _node_count(t) -> int:
    return 1 + sum(_node_count(c) for c in _term_children(t))


def _used_channels(dist: Distribution) -> set:
    used = set()
    for c, _ in dist.items():
        if not c.is_bot:
            used |= set(free_channels(c.proc)) | set(free_channels(c.obs))
    return used


def _fresh_names(stem: str, n: int, taken) -> list:
    out = []
    i = 0
    while len(out) < n:
        name = f"{stem}{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def _channel_usage(dists, sig):
    """-> (sends, recvs): channel -> (arity, is_qubit) as seen in the terms."""
    sends: dict = {}
    recvs: dict = {}

    def walk(t):
        if isinstance(t, Send):
            qubit = any(isinstance(e, (QubitLit,)) for e in t.payload)
            if sig is not None and t.chan in sig.channels:
                qubit = "qubit" in sig.channels[t.chan]
            sends[t.chan] = (len(t.payload), qubit)
        if isinstance(t, Recv):
            qubit = True
            if sig is not None and t.chan in sig.channels:
                qubit = "qubit" in sig.channels[t.chan]
            recvs[t.chan] = (len(t.vars), qubit)
        for c in _term_children(t):
            walk(c)

    for d in dists:
        for c, _ in d.items():
            if not c.is_bot:
                walk(c.proc)
                walk(c.obs)
    return sends, recvs


def _measure_flag_body(meas: str, target, outcome: int, flag_a: str, flag_b):
    """M(x |> y).((if y = outcome then a!0 else b!0/nil) || disc x)"""
    els = Send(flag_b, (NatLit(0),)) if flag_b else Nil()
    return Measure(
        meas,
        (target,),
        "y",
        Par(Ite(BinOp("=", Var("y"), NatLit(outcome)), Send(flag_a, (NatLit(0),)), els),
            Nil((target,))),
    )


def candidate_frames(dl: Distribution, dr: Distribution, mode: str,
                     bounds: SearchBounds, sig=None) -> list:
    """Grammar-bounded frames: receivers that measure and flag, senders
    that prepare and emit free qubits, reception sums, and two-component
    parallels, pruned by node count and (for the constrained mode) the
    observer discipline."""
    sends, recvs = _channel_usage((dl, dr), sig)
    taken = _used_channels(dl) | _used_channels(dr)
    flags = _fresh_names("flag", max(bounds.fresh_channels, 2), taken)
    free_qubits = _free_qubits(dl, dr)

    pieces = []
    q_send_chans = [c for c, (ar, q) in sorted(sends.items()) if q and ar == 1]
    c_send_chans = [c for c, (ar, q) in sorted(sends.items()) if not q and ar == 1]
    q_recv_chans = [c for c, (ar, q) in sorted(recvs.items()) if q and ar == 1]
    c_recv_chans = [c for c, (ar, q) in sorted(recvs.items()) if not q and ar == 1]

    for c in q_send_chans:
        x = Var("x")
        pieces.append(Recv(c, ("x",), Nil((x,))))
        pieces.append(Recv(c, ("x",), ApplyOp("I", (x,), Nil((x,)))))
        for meas in ("M01", "Mpm"):
            pieces.append(Recv(c, ("x",), _measure_flag_body(meas, x, 0, flags[0], flags[1])))
            for outcome in (0, 1):
                pieces.append(
                    Recv(c, ("x",), _measure_flag_body(meas, x, outcome, flags[0], None))
                )
        # two receptions on the same channel, then a joint measurement
        x2, y2 = Var("x"), Var("y")
        for meas in ("M01", "MBell"):
            for outcome in range(4):
                body = Measure(
                    meas,
                    (x2, y2),
                    "z",
                    Par(
                        Ite(BinOp("=", Var("z"), NatLit(outcome)),
                            Send(flags[0], (NatLit(0),)), Nil()),
                        Nil((x2, y2)),
                    ),
                )
                pieces.append(Recv(c, ("x",), Recv(c, ("y",), body)))
    for c in c_send_chans:
        for v in (0, 1):
            pieces.append(
                Recv(c, ("x",),
                     Ite(BinOp("=", Var("x"), NatLit(v)),
                         Send(flags[0], (NatLit(0),)), Send(flags[1], (NatLit(0),))))
            )
    for c in q_recv_chans:
        for a in free_qubits[:1]:
            q = QubitLit(a)
            pieces.append(Send(c, (q,)))
            for g in bounds.gate_set:
                if g == "I":
                    continue
                pieces.append(ApplyOp(g, (q,), Send(c, (q,))))
    for c in c_recv_chans:
        for v in (NatLit(0), NatLit(1)):
            pieces.append(Send(c, (v,)))

    frames = [p for p in pieces if _node_count(p) <= bounds.context_size]

    # reception sums over distinct channels
    recv_pieces = [p for p in pieces if isinstance(p, Recv)]
    for a, b in itertools.combinations(recv_pieces, 2):
        if a.chan == b.chan:
            continue
        s = Sum(a, b)
        if _node_count(s) <= bounds.context_size:
            frames.append(s)
    if mode == SATURATED:
        # guarded sums beyond receptions, e.g. one reception with a
        # choice of measurement bases in its continuation
        for c in q_send_chans:
            x = Var("x")
            if len(flags) >= 4:
                body = Sum(
                    _measure_flag_body("M01", x, 0, flags[0], flags[1]),
                    _measure_flag_body("Mpm", x, 0, flags[2], flags[3]),
                )
                frames.append(Recv(c, ("x",), body))
    # parallel pairs; components must not share ancilla qubits
    singles = list(frames)
    for a, b in itertools.combinations(singles, 2):
        if qubit_atoms(a) & qubit_atoms(b):
            continue
        p = Par(a, b)
        if _node_count(p) <= bounds.context_size:
            frames.append(p)

    out = []
    seen = set()
    for f in list(bounds.hint_contexts) + sorted(frames, key=_node_count):
        if _node_count(f) > bounds.context_size:
            continue
        if mode == CONSTRAINED and observer_violation(f):
            continue
        if f in seen:
            continue
        seen.add(f)
        out.append(f)
    return out


def _free_qubits(dl: Distribution, dr: Distribution) -> list:
    reg = None
    owned = set()
    for d in (dl, dr):
        for c, _ in d.items():
            if c.is_bot:
                continue
            if reg is None:
                reg = c.rho.register.names
            owned |= qubit_atoms(c.proc) | qubit_atoms(c.obs)
    if reg is None:
        return []
    return [q for q in reg if q not in owned]


# ---------------------------------------------------------------------------
# the distinguishing game


def pad_ancillas(dist: Distribution, n: int, taken) -> Distribution:
    if n <= 0:
        return dist
    names = _fresh_names("anc", n, taken)
    anc = qcore.pure_state(qcore.kron_all([qcore.KET0] * n) if n > 1 else qcore.KET0, names)

    def pad(c: Configuration) -> Configuration:
        if c.is_bot:
            return c
        return Configuration(c.rho.tensor(anc), c.proc, c.obs)

    return dist.map(pad)


def distinguish(
    dl: Distribution,
    dr: Distribution,
    mode: str = CONSTRAINED,
    bounds: SearchBounds = SearchBounds(),
    sig=None,
):
    """Bounded two-player game. Distinguished verdicts are replayed before
    being returned; in constrained mode, the density-quotient certificate
    (after advancing forced silent prefixes) may certify bisimilarity;
    anything else is inconclusive."""
    t0 = time.monotonic()
    stats = Stats()
    bm = barb_mismatch(dist_barbs(dl), dist_barbs(dr))
    if bm is not None:
        w = BarbLeaf(*bm)
        stats.wall_ms = int((time.monotonic() - t0) * 1000)
        return Distinguished(w, stats)
    if mode == CONSTRAINED:
        cert = _certify(dl, dr, bounds, sig)
        if cert is not None:
            stats.wall_ms = int((time.monotonic() - t0) * 1000)
            return CertifiedBisimilar(cert, stats)
    elif dl.key() == dr.key():
        stats.wall_ms = int((time.monotonic() - t0) * 1000)
        return CertifiedBisimilar(("equal-distributions", None), stats)
    reg_names = _all_names(dl) | _all_names(dr)
    pl = pad_ancillas(dl, bounds.ancillas, reg_names)
    pr = pad_ancillas(dr, bounds.ancillas, reg_names)
    witness = _search(pl, pr, mode, bounds, sig, stats)
    stats.wall_ms = int((time.monotonic() - t0) * 1000)
    if witness is not None:
        if not replay_witness(pl, pr, witness, mode, bounds, sig):
            raise AssertionError("distinguishing witness failed to replay")
        return Distinguished(witness, stats)
    return InconclusiveAtBounds(bounds, "no distinguishing strategy within bounds", stats)


def _all_names(dist: Distribution) -> set:
    out = set()
    for c, _ in dist.items():
        if not c.is_bot:
            out |= set(c.rho.register.names)
            out |= set(free_channels(c.proc)) | set(free_channels(c.obs))
    return out


def certify(
    dl: Distribution,
    dr: Distribution,
    bounds: SearchBounds = SearchBounds(),
    sig=None,
):
    """Certificate-only entry point: distribution equality or the density
    quotient, after advancing both sides through forced silent prefixes."""
    t0 = time.monotonic()
    cert = _certify(dl, dr, bounds, sig)
    stats = Stats(wall_ms=int((time.monotonic() - t0) * 1000))
    if cert is not None:
        return CertifiedBisimilar(cert, stats)
    return InconclusiveAtBounds(bounds, "no certificate applies", stats)


def _certify(dl: Distribution, dr: Distribution, bounds, sig):
    """Equality or density-quotient certificate, advancing through forced
    silent steps (single diamond move, no barbs, no free qubits)."""
    cur_l, cur_r = dl, dr
    for _ in range(bounds.depth + 8):
        if cur_l.key() == cur_r.key():
            return ("equal-distributions", None)
        q = density_quotient_equiv(cur_l, cur_r, bounds, sig)
        if isinstance(q, CertifiedBisimilar):
            return q.certificate
        nl = _forced_successor(cur_l, sig, bounds)
        nr = _forced_successor(cur_r, sig, bounds)
        if nl is None or nr is None:
            return None
        cur_l, cur_r = nl, nr
    return None


def _forced_successor(dist: Distribution, sig, bounds):
    """The unique diamond successor, when the configuration cannot
    interact with any context: no barbs, no free qubits, one move."""
    if dist_barbs(dist):
        return None
    for c, _ in dist.items():
        if c.is_bot:
            return None
        if set(c.rho.register.names) - (qubit_atoms(c.proc) | qubit_atoms(c.obs)):
            return None
    try:
        moves = lift_estep(dist, sig, bounds.choice_cap)
    except ChoiceExplosion:
        return None
    if len(moves) != 1 or moves[0][0] != DIAMOND:
        return None
    succ = moves[0][1]
    if succ.bot_mass() > TOL_PROB:
        return None
    return succ


def _search(dl, dr, mode, bounds, sig, stats):
    contexts = candidate_frames(dl, dr, mode, bounds, sig)
    memo: dict = {}

    def attack(a: Distribution, b: Distribution, depth: int, at_root: bool):
        stats.states_visited += 1
        bm = barb_mismatch(dist_barbs(a), dist_barbs(b))
        if bm is not None:
            return BarbLeaf(*bm)
        if depth == 0:
            return None
        key = (a.key(), b.key(), depth, at_root)
        if key in memo:
            return memo[key]
        memo[key] = None
        if mode == CONSTRAINED and not at_root:
            q = density_quotient_equiv(a, b, bounds, sig)
            if isinstance(q, CertifiedBisimilar):
                return None
        result = None
        frame_options = [None] + contexts if at_root else [None]
        for frame in frame_options:
            if frame is not None:
                stats.contexts_tried += 1
                try:
                    fa = _apply_frame(a, frame, mode, sig)
                    fb = _apply_frame(b, frame, mode, sig)
                except TypingError:
                    continue
            else:
                fa, fb = a, b
            result = _attack_with(fa, fb, frame, depth)
            if result is not None:
                break
        memo[key] = result
        return result

    def _attack_with(fa, fb, frame, depth):
        moves_a = _lifted_moves(fa, mode, sig, bounds.choice_cap)
        moves_b = _lifted_moves(fb, mode, sig, bounds.choice_cap)
        if mode == CONSTRAINED:
            indices = []
            for idx, _ in moves_a + moves_b:
                if idx not in indices:
                    indices.append(idx)
            sides = []
            for idx in indices:
                at_a = [d for i, d in moves_a if i == idx] or [Distribution.point(BOT)]
                at_b = [d for i, d in moves_b if i == idx] or [Distribution.point(BOT)]
                sides.append((idx, at_a, at_b))
        else:
            at_a = [d for _, d in moves_a]
            at_b = [d for _, d in moves_b]
            sides = [(None, at_a, at_b)]
        for idx, at_a, at_b in sides:
            for side, mine, theirs in (("left", at_a, at_b), ("right", at_b, at_a)):
                for mv in mine:
                    refutations = []
                    beaten = True
                    for resp in theirs:
                        if side == "left":
                            sub = attack(mv, resp, depth - 1, False)
                        else:
                            sub = attack(resp, mv, depth - 1, False)
                        if sub is None:
                            beaten = False
                            break
                        refutations.append((resp.key(), sub))
                    if beaten:
                        return AttackStep(side, frame, idx, mv, tuple(refutations))
        return None

    return attack(dl, dr, bounds.depth, True)


def replay_witness(dl, dr, witness, mode, bounds, sig=None) -> bool:
    """Re-execute a distinguishing strategy from scratch: the attack move
    must be derivable, and every recomputed defender option must be
    refuted by the stored sub-witness."""
    if isinstance(witness, BarbLeaf):
        bl = dist_barbs(dl)
        br = dist_barbs(dr)
        return abs(bl.get(witness.channel, 0.0) - br.get(witness.channel, 0.0)) > TOL_PROB
    if not isinstance(witness, AttackStep):
        return False
    a, b = dl, dr
    if witness.context is not None:
        try:
            a = _apply_frame(a, witness.context, mode, sig)
            b = _apply_frame(b, witness.context, mode, sig)
        except TypingError:
            return False
    mine, theirs = (a, b) if witness.side == "left" else (b, a)
    if mode == CONSTRAINED:
        my_moves = _moves_at(mine, witness.index, mode, sig, bounds.choice_cap)
        their_moves = _moves_at(theirs, witness.index, mode, sig, bounds.choice_cap)
    else:
        my_moves = [d for _, d in _lifted_moves(mine, mode, sig, bounds.choice_cap)]
        their_moves = [d for _, d in _lifted_moves(theirs, mode, sig, bounds.choice_cap)]
    if witness.move.key() not in {m.key() for m in my_moves}:
        return False
    stored = dict(witness.refutations)
    for resp in their_moves:
        sub = stored.get(resp.key())
        if sub is None:
            return False
        if witness.side == "left":
            ok = replay_witness(witness.move, resp, sub, mode, bounds, sig)
        else:
            ok = replay_witness(resp, witness.move, sub, mode, bounds, sig)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# candidate relations (plain and up to convex hull)


def check_candidate(
    pairs,
    mode: str = CONSTRAINED,
    bounds: SearchBounds = SearchBounds(),
    upto_cv: bool = False,
    sig=None,
):
    """Verify the transfer conditions of a candidate relation on its own
    moves: barb equality per pair, and every lifted (indexed) move of one
    side matched by the other with successors inside the relation (or its
    convex hull when `upto_cv`). The relation is read as closed under
    contexts in the caller's intended sense; obligations are generated
    from the pairs as given."""
    pairs = list(pairs)
    for n, (a, b) in enumerate(pairs):
        bm = barb_mismatch(dist_barbs(a), dist_barbs(b))
        if bm is not None:
            w = BarbLeaf(*bm)
            if replay_witness(a, b, w, mode, bounds, sig):
                return Distinguished(w)
            return InconclusiveAtBounds(bounds, f"pair {n}: barb check failed to replay")
        try:
            moves_a = _lifted_moves(a, mode, sig, bounds.choice_cap)
            moves_b = _lifted_moves(b, mode, sig, bounds.choice_cap)
        except ChoiceExplosion as exc:
            return InconclusiveAtBounds(bounds, str(exc))
        for here, there, label in ((moves_a, moves_b, "left"), (moves_b, moves_a, "right")):
            for idx, succ in here:
                cands = [d for i, d in there if i == idx]
                if not cands:
                    cands = [Distribution.point(BOT)]
                matched = False
                for cand in cands:
                    pair = (succ, cand) if label == "left" else (cand, succ)
                    if _pair_in_relation(pair, pairs, upto_cv):
                        matched = True
                        break
                if not matched:
                    return InconclusiveAtBounds(
                        bounds,
                        f"pair {n}: {label} move at index {idx!r} has no match in the relation",
                    )
    return CertifiedBisimilar(("candidate-relation", len(pairs)))


def _pair_in_relation(pair, pairs, upto_cv: bool) -> bool:
    a, b = pair
    for x, y in pairs:
        if a.key() == x.key() and b.key() == y.key():
            return True
    if a.key() == b.key():
        return True  # identity pairs are always sound to close under
    if upto_cv:
        return _in_convex_hull(a, b, pairs)
    return False


def _in_convex_hull(a: Distribution, b: Distribution, pairs) -> bool:
    """Feasibility of weights p_i with sum p_i (x_i, y_i) = (a, b)."""
    from scipy.optimize import linprog

    base = list(pairs) + [(Distribution.point(BOT), Distribution.point(BOT))]
    configs_a = sorted({c.key() for d, _ in base for c, _ in d.items()}
                       | {c.key() for c, _ in a.items()})
    configs_b = sorted({c.key() for _, d in base for c, _ in d.items()}
                       | {c.key() for c, _ in b.items()})
    nvar = len(base)
    a_eq = []
    b_eq = []
    for ck in configs_a:
        a_eq.append([sum(p for c, p in x.items() if c.key() == ck) for x, _ in base])
        b_eq.append(sum(p for c, p in a.items() if c.key() == ck))
    for ck in configs_b:
        a_eq.append([sum(p for c, p in y.items() if c.key() == ck) for _, y in base])
        b_eq.append(sum(p for c, p in b.items() if c.key() == ck))
    a_eq.append([1.0] * nvar)
    b_eq.append(1.0)
    res = linprog(
        c=[0.0] * nvar,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * nvar,
        method="highs",
    )
    return bool(res.success)


# ---------------------------------------------------------------------------
# execution helpers shared with the corpus


def _genuine_lifted(dist: Distribution, sig, cap) -> list:
    """Lifted indexed moves minus the pure-deadlock diamond fallback."""
    return [
        (i, d)
        for i, d in lift_estep(dist, sig, cap)
        if not (i == DIAMOND and d.bot_mass() >= 1.0 - TOL_PROB)
    ]


def advance_unique(dist: Distribution, sig=None, max_steps: int = 64, cap: int = 100_000):
    """Follow the chain of unique genuine lifted moves until the
    distribution branches or goes quiescent. Returns the list of
    distributions visited, including the start."""
    trace = [dist]
    for _ in range(max_steps):
        moves = _genuine_lifted(dist, sig, cap)
        if len(moves) != 1:
            break
        dist = moves[0][1]
        trace.append(dist)
    return trace


def advance_scheduled(dist: Distribution, sig=None, max_steps: int = 64):
    """Like advance_unique, but when independent redexes race it commits
    each support element to its least move at the least enabled index: a
    fixed schedule, linear in the support (no choice products), valid for
    runs whose interleavings only reorder internal steps."""
    trace = [dist]
    for _ in range(max_steps):
        elems = list(dist.items())
        per = [estep_augmented(c, sig) for c, _ in elems]
        indices = sorted(
            {
                i
                for mv in per
                for i, d in mv
                if not (i == DIAMOND and d.bot_mass() >= 1.0 - TOL_PROB)
            }
        )
        if not indices:
            break
        idx = indices[0]
        parts = []
        for (c, p), mv in zip(elems, per):
            here = [d for i, d in mv if i == idx]
            pick = min(here, key=lambda d: d.key()) if here else Distribution.point(BOT)
            parts.append((p, pick))
        dist = Distribution.convex(parts)
        trace.append(dist)
    return trace
