"""Checkers for the paper's side claims, apart from the verdict engine.

- Refinement (`refines_upto`, `config_refines`, `dist_refines`) and
  `check_nondet_vs_ite`: a conditional refines the nondeterministic
  choice between its branches, and every move of the refinement is
  matched by a same-index move of the refined process.
- `partial_trace_necessary`: bisimilar point configurations agree on the
  reduced state of the qubits outside their processes. A failure comes
  with a measurement that `replay_measurement_witness` replays as an
  observer context. `superop_closure_pair` applies an environment
  superoperator to both sides of a pair, for the closure of certified
  pairs.
- The tagging translation (`ptag_obs`, `ptag`, `crossvalidate_semantics`):
  the enhanced semantics is the standard semantics of the process beside
  its observer, with barbs tagging the observer's choice positions.
- Subject reduction (`config_typing`, `typing_preserved`): every step
  keeps the register and the owned qubits of its source.

Every checker reads the engine; no engine module imports this one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import qcore
from .equiv import SearchBounds, _feasible, _measure_flag_body, _used_channels
from .errors import ChoiceExplosion, ShapeError, TypingError
from .osem import DIAMOND, L, R, apply_context, estep_genuine, lift_estep
from .qcore import TOL_MASS, TOL_PROB, TOL_STATE, partial_trace
from .rewrite import normalize, normalize_observer
from .semantics import Configuration, Distribution, at_index, config_barbs, dist_barbs, step_genuine
from .syntax import (
    NIL,
    ApplyOp,
    Ite,
    Measure,
    NatLit,
    Nil,
    Par,
    QubitLit,
    Recv,
    Send,
    Signature,
    Sum,
    children,
    fresh_names,
    is_guard,
    map_term,
    par_components,
    qubit_atoms,
    sum_all,
    sum_guards,
)
from .typecheck import typecheck

# ---------------------------------------------------------------------------
# refinement


def refines_upto(p_small, p_big) -> bool:
    """Refinement modulo structural congruence (canonical forms rearrange
    sums and parallels and drop inert units, so the plain syntactic
    relation is matched through multiset alignments and guard subsets).
    Sound for deciding the lifted relation on canonicalized terms.

    The recursion needs no cycle guard: every call is on a pair whose
    combined size is strictly smaller, since one side shrinks to a proper
    sub-term (or to nil) while the other side does not grow."""

    @functools.cache
    def rec(ps, pb) -> bool:
        if ps == pb:
            return True
        if ps == NIL:
            # the inert process refines any ownerless alternative: K == K + 0
            # is a legal congruence step only when the sum types under the
            # empty qubit context
            return is_guard(pb) and not qubit_atoms(pb)
        if isinstance(ps, Par) or isinstance(pb, Par):
            # leftover components must collapse to nil
            return match([c for c in par_components(ps) if c != NIL],
                         [c for c in par_components(pb) if c != NIL], lambda b: rec(NIL, b))
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
                if rec(ps.then, left) and rec(ps.els, right):
                    return True
            return False
        if big_guards is not None:
            # leftover alternatives are dropped by collapsing
            return match(sum_guards(ps) if isinstance(ps, Sum) else [ps], big_guards,
                         lambda b: True)
        # same constructor and same non-term fields: refine the sub-terms pairwise
        kids = iter(children(pb))
        return (type(ps) is type(pb)
                and map_term(ps, lambda c, bound: next(kids), lambda e: e) is pb
                and all(rec(s, b) for s, b in zip(children(ps), children(pb))))

    def match(small, big, leftover) -> bool:
        """Whether each of `small` refines its own member of `big`, with
        `leftover` true of every member of `big` left over."""
        if len(small) > len(big):
            return False
        if not small:
            return all(map(leftover, big))
        return any(rec(small[0], b) and match(small[1:], big[:j] + big[j + 1 :], leftover)
                   for j, b in enumerate(big))

    return rec(normalize(p_small), normalize(p_big))


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
    e1 = list(ds.items())
    e2 = list(db.items())
    edges = [
        (i, j)
        for i, (c1, _) in enumerate(e1)
        for j, (c2, _) in enumerate(e2)
        if config_refines(c1, c2)
    ]
    if not edges:
        return False
    # one equation per element of either side: its mass is the flow on its edges
    a_eq = [[1.0 if edge[side] == k else 0.0 for edge in edges]
            for side, elems in enumerate((e1, e2)) for k in range(len(elems))]
    b_eq = [p for elems in (e1, e2) for _, p in elems]
    return _feasible(a_eq, b_eq)


def check_nondet_vs_ite(
    d_small: Distribution,
    d_big: Distribution,
    bounds: SearchBounds = SearchBounds(),
    sig=None,
):
    """Instance check, to `bounds.depth` moves: every indexed move of the
    refinement is matched by a same-index move of the refined distribution
    landing on a refined target. Returns (ok, failure description or None)."""
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

    return go(d_small, d_big, bounds.depth)


# ---------------------------------------------------------------------------
# the partial-trace necessary condition


@dataclass
class MeasurementWitness:
    measurement: qcore.Measurement
    targets: tuple
    flag: str
    p_left: float
    p_right: float


def partial_trace_necessary(dl: Distribution, dr: Distribution):
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
    if np.max(np.abs(diff)) <= TOL_STATE:
        return ("consistent", None)
    eigvals, eigvecs = np.linalg.eigh(diff)
    k = int(np.argmax(np.abs(eigvals)))
    v = eigvecs[:, k].reshape(-1, 1)
    proj = v @ v.conj().T
    dim = proj.shape[0]
    m = qcore.Measurement([proj, np.eye(dim) - proj], check=False)
    p_left = float((proj @ red_l.mat).trace().real)
    p_right = float((proj @ red_r.mat).trace().real)
    flag = fresh_names("ptflag", 1, _used_channels(dl) | _used_channels(dr))[0]
    return ("refuted", MeasurementWitness(m, env_l, flag, p_left, p_right))


def replay_measurement_witness(
    dl: Distribution, dr: Distribution, witness: MeasurementWitness, sig=None
) -> bool:
    """Apply the witness measurement as an observer context to both sides
    and confirm the flag barb masses differ as recorded."""
    sig = sig or Signature()
    use_sig = replace(sig, measurements={**sig.measurements, "Mwitness": witness.measurement})
    targets = tuple(QubitLit(q) for q in witness.targets)
    frame = _measure_flag_body("Mwitness", targets, 0, witness.flag, None)
    got = []
    for d in (dl, dr):
        ctx = apply_context(d, frame)
        succ = at_index(lift_estep(ctx, use_sig), "")
        if len(succ) != 1:
            return False
        got.append(dist_barbs(succ[0]).get(witness.flag, 0.0))
    return (
        abs(got[0] - witness.p_left) <= TOL_MASS
        and abs(got[1] - witness.p_right) <= TOL_MASS
        and abs(got[0] - got[1]) > TOL_PROB
    )


def superop_closure_pair(dl: Distribution, dr: Distribution, op: qcore.Superoperator, targets):
    """Apply a superoperator on environment qubits of both sides (closure
    property of certified pairs)."""

    def app(c: Configuration) -> Configuration:
        return Configuration(qcore.apply_superop(op, targets, c.rho), c.proc, c.obs)

    return dl.map(app), dr.map(app)


# ---------------------------------------------------------------------------
# tagging translation (enhanced semantics as standard reductions)


def ptag_obs(obs, k: str = "", pi=None):
    """Tag an observer with barbs `tag_<key>` that name its choice
    positions. `pi` marks the position of a just-fired action: the subtree
    there is keyed one level deeper so its fresh barbs do not collide with
    the consumed one."""
    if pi == "":
        return ptag_obs(obs, k + "i", None)
    if isinstance(obs, Par):
        return Par(ptag_obs(obs.left, k + "l", pi[1:] if pi and pi[0] == L else None),
                   ptag_obs(obs.right, k + "r", pi[1:] if pi and pi[0] == R else None))
    tag = Send(f"tag_{k}", (NatLit(0),))
    if isinstance(obs, Nil):
        return obs
    if isinstance(obs, Send):
        return Sum(obs, tag)
    if isinstance(obs, (ApplyOp, Measure, Recv)):
        return Sum(map_term(obs, lambda c, bound: ptag_obs(c, k + "i", None), lambda e: e), tag)
    if isinstance(obs, (Sum, Ite)):
        return map_term(obs, lambda c, bound: ptag_obs(c, k, None), lambda e: e)
    raise TypeError(f"not an observer: {obs!r}")


def ptag(config: Configuration, pi=None) -> Configuration:
    """Fold the (tagged) observer into the process component."""
    if pi == DIAMOND:
        pi = None
    tagged = ptag_obs(normalize_observer(config.obs), "", pi)
    return Configuration(config.rho, normalize(Par(config.proc, tagged)), NIL)


def _tags_of(config: Configuration) -> frozenset:
    return frozenset(b[len("tag_"):] for b in config_barbs(config) if b.startswith("tag_"))


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


def crossvalidate_semantics(config: Configuration, depth: int = 2, sig=None):
    """Check, to the given depth, that enhanced moves and tagged standard
    moves of the configuration coincide: an enhanced move at index i is a
    standard move of the tagged configuration that realizes the tag of i
    and reaches the tagged successor, and the other way round. Returns
    (ok, mismatch list)."""
    mismatches = []

    def check(cfg: Configuration, d: int):
        if cfg.is_bot or d == 0:
            return
        enhanced = estep_genuine(cfg, sig)
        tagged_src = ptag(cfg)
        src_tags = _tags_of(tagged_src)
        standard = [(dist, classify_tagged_move(src_tags, dist))
                    for dist in step_genuine(tagged_src, sig)]
        expected = []  # (tag kind, tagged successor) per enhanced move
        for idx, succ in enhanced:
            # enhanced indices use the script ell; tag keys use plain l/r
            kind = idx if idx == DIAMOND else idx.replace(L, "l")
            tagged = succ.map(lambda c: ptag(c, idx))
            expected.append((kind, tagged))
            if not any(kind in kinds and dist == tagged for dist, kinds in standard):
                mismatches.append((cfg, "enhanced move missing on tagged side", idx))
        for dist, kinds in standard:
            for kind in kinds:
                if (kind, dist) not in expected:
                    mismatches.append((cfg, "tagged move missing on enhanced side", kind))
        for _, succ in enhanced:
            for c, _ in succ.items():
                check(c, d - 1)

    check(config, depth)
    return (not mismatches, mismatches)


# ---------------------------------------------------------------------------
# subject reduction


def config_typing(config: Configuration, sig):
    """(register names, owned qubits) of a well-typed configuration."""
    if config.is_bot:
        return None
    sp = typecheck(sig, config.proc)
    sr = typecheck(sig, config.obs) if config.obs != NIL else frozenset()
    if sp & sr:
        raise TypingError(f"process and observer share qubits {sorted(sp & sr)}")
    reg = frozenset(config.rho.register.names)
    if not (sp | sr) <= reg:
        raise TypingError(f"owned qubits {sorted((sp | sr) - reg)} missing from the state")
    return (reg, sp | sr)


def typing_preserved(config: Configuration, dist: Distribution, sig) -> bool:
    """Every element of a successor distribution carries the source typing."""
    src = config_typing(config, sig)
    return all(c.is_bot or config_typing(c, sig) == src for c, _ in dist.items())
