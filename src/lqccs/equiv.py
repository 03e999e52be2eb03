"""The verdict engine: bounded distinguisher games for the saturated and
constrained semantics, the certificates that end them (equality, the
density quotient for deterministic processes, and the input certificate
for qubit receptions), bisimulation-candidate checking (plain and up to
convex hull), discard-trace reduction, and the forced-run drivers the
corpus shares. The paper's side claims are checked on top, in `claims`.

Soundness contract: every Distinguished verdict carries a barb leaf or a
strategy tree replayed from scratch before it is returned; certificates
are equality in both modes, the density quotient in constrained mode
only, the input certificate in both modes (equality reached by the two
continuations of a qubit reception fed half of a Bell pair, `_certify`),
and a candidate relation whose unequal pairs are closed to contexts
(`check_candidate`); everything else is inconclusive at the given bounds.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import memo, qcore
from .errors import ChoiceExplosion, ShapeError, TypingError
from .osem import (
    DIAMOND,
    apply_context,
    apply_process_context,
    estep_genuine,
    first_schemas,
    lift_estep,
)
from .parser import pretty
from .qcore import TOL_MASS, TOL_PROB, TOL_STATE, DensityMatrix, partial_trace
from .rewrite import close_scopes, normalize, substitute
from .semantics import (
    BOT,
    DEFAULT_CHOICE_CAP,
    Configuration,
    Distribution,
    at_index,
    barb_mismatch,
    dist_barbs,
    exec_view,
    lift,
    lift_step,
    open_guards,
    proc_barbs,
    schema_move,
)
from .syntax import (
    QUBIT,
    ApplyOp,
    BinOp,
    Ite,
    Measure,
    NatLit,
    Nil,
    Par,
    QubitLit,
    Recv,
    Send,
    Std,
    Sum,
    Var,
    cached,
    children,
    free_channels,
    fresh_names,
    observer_violation,
    qubit_atoms,
)

SATURATED = "saturated"
CONSTRAINED = "constrained"


@dataclass(frozen=True)
class SearchBounds:
    context_size: int = 14
    depth: int = 6
    fresh_channels: int = 4
    choice_cap: int = DEFAULT_CHOICE_CAP
    ancillas: int = 1
    hint_contexts: tuple = ()


@dataclass
class Stats:
    contexts_tried: int = 0
    states_visited: int = 0
    wall_ms: int = 0
    # per memoized backend function (`apply_superop`, `measure`): results
    # the verdict's memo returned, and computed
    memo_hits: Counter = field(default_factory=Counter)
    memo_misses: Counter = field(default_factory=Counter)

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
    refutations: tuple  # ((defender distribution, sub-witness), ...)


Witness = object  # BarbLeaf | AttackStep


# ---------------------------------------------------------------------------
# moves


def _lifted_moves(dist: Distribution, mode: str, sig, cap: int) -> list:
    """(index, successor) pairs; saturated moves carry index None."""
    return lift_step(dist, sig, cap) if mode == SATURATED else lift_estep(dist, sig, cap)


def _apply_frame(dist: Distribution, frame, mode: str) -> Distribution:
    if mode == SATURATED:
        return apply_process_context(dist, frame)
    return apply_context(dist, frame)


# ---------------------------------------------------------------------------
# determinism and the density-quotient certificate


def syntactically_deterministic(proc) -> bool:
    """Sufficient syntactic condition: no real sums, at most one live
    parallel component, choices only via conditionals or measurement
    outcomes."""
    live = [c for c in exec_view(normalize(proc))[0] if not isinstance(c, Nil)]
    # a conditional at the top is left unresolved here, so it counts as a choice
    return not live or (len(live) == 1 and not isinstance(live[0], Ite) and _det_term(live[0]))


def _det_term(t) -> bool:
    if isinstance(t, Sum):
        return False
    if isinstance(t, (Par, Std)):
        live = [c for c in children(t) if not isinstance(c, Nil)]
        return len(live) <= 1 and all(_det_term(c) for c in live)
    return all(_det_term(c) for c in children(t))


def is_deterministic(dist: Distribution, bounds: SearchBounds = SearchBounds(), sig=None) -> str:
    """'yes' when the syntactic condition holds for every support process,
    'no' when a bounded probe finds one index with observably different
    successors, 'inconclusive' otherwise."""
    procs = [c.proc for c, _ in dist.items() if not c.is_bot]
    if all(syntactically_deterministic(p) for p in procs):
        return "yes"
    probe_frames = _determinism_probes(dist)
    for frame in [None] + probe_frames:
        try:
            d = apply_context(dist, frame) if frame is not None else dist
        except TypingError:
            continue
        try:
            moves = lift_estep(d, sig, bounds.choice_cap)
        except ChoiceExplosion:
            continue
        for idx in dict.fromkeys(i for i, _ in moves):
            for a, b in itertools.combinations(at_index(moves, idx), 2):
                if barb_mismatch(dist_barbs(a), dist_barbs(b)) is not None \
                        or _certificate(a, b, CONSTRAINED, bounds, sig) is None:
                    return "no"
    return "inconclusive"


def _determinism_probes(dist: Distribution) -> list:
    """Reception sums that expose process-side choices as distinct barbs."""
    chans = set()
    for c, _ in dist.items():
        if not c.is_bot:
            chans |= set(proc_barbs(c.proc))
    chans = sorted(chans)
    used = _used_channels(dist)
    flags = fresh_names("probe", 2, used)
    sends, _ = _channel_usage((dist,), used, None)
    arities = {c: arity for c, (arity, _) in sends.items()}
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


def density_quotient_equiv(
    dl: Distribution, dr: Distribution, bounds: SearchBounds = SearchBounds(), sig=None
):
    """Certify bisimilarity when both distributions group (by process and
    observer) into identical masses with identical aggregate density
    operators and deterministic processes. Sufficient only: failure is
    inconclusive, never a refutation."""
    ql = _quotient_groups(dl)
    qr = _quotient_groups(dr)
    if ql is None or qr is None or ql[0] != qr[0]:
        return InconclusiveAtBounds(bounds, "support elements on different registers")
    (register, gl), (_, gr) = ql, qr
    if set(gl) != set(gr):
        return InconclusiveAtBounds(bounds, "support groups differ")
    for key in gl:
        ml, aggl = gl[key]
        mr, aggr = gr[key]
        if abs(ml - mr) > TOL_PROB:
            return InconclusiveAtBounds(bounds, f"group mass differs for {key}")
        if key == "bot":
            continue
        if aggl.shape != aggr.shape or not np.allclose(aggl, aggr, atol=TOL_STATE):
            return InconclusiveAtBounds(bounds, "aggregate states differ")
        proc = key[0]
        if not syntactically_deterministic(proc):
            group = Configuration(DensityMatrix(register, aggl / ml, check=False), proc, key[1])
            if is_deterministic(Distribution.point(group), bounds, sig) != "yes":
                return InconclusiveAtBounds(bounds, f"process not deterministic: {pretty(proc)}")
    cert = ("density-quotient", tuple(sorted(
        (pretty(k[0]) if k != "bot" else "bot") for k in gl)))
    return CertifiedBisimilar(cert)


def _quotient_groups(dist: Distribution):
    """(register, {(process, observer) or "bot": (mass, aggregate)})."""
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
        m, agg = groups.get(key, (0.0, 0.0))
        groups[key] = (m + p, agg + p * c.rho.mat)
    return register, groups


# ---------------------------------------------------------------------------
# discard-trace reduction


def config_partial_trace(dist: Distribution, qubits) -> Distribution:
    """Remove the discards owning `qubits` from every element and trace
    those qubits out of the state. Linear typing gives parallel components
    disjoint qubits, so these are the `Nil` components owning only qubits
    among `qubits`; ShapeError if they do not own each exactly once (as
    when an ill-typed element's discards overlap)."""
    qset = frozenset(qubits)
    if not qset:
        return dist

    def traced(x) -> bool:
        return isinstance(x, Nil) and bool(qubit_atoms(x)) and qubit_atoms(x) <= qset

    def strip(c: Configuration) -> Configuration:
        comps, restricted = exec_view(normalize(c.proc))
        if sorted(q for x in comps if traced(x) for q in qubit_atoms(x)) != sorted(qset):
            raise ShapeError(
                f"element {pretty(c.proc)} does not discard exactly {sorted(qset)}"
            )
        new_proc = close_scopes([x for x in comps if not traced(x)], restricted)
        return Configuration(partial_trace(c.rho, sorted(qset)), new_proc, c.obs)

    return dist.map(strip)


# ---------------------------------------------------------------------------
# context enumeration


@cached("_size")
def _node_count(t) -> int:
    return 1 + sum(_node_count(c) for c in children(t))


def _used_channels(dist: Distribution) -> set:
    used = set()
    for c, _ in dist.items():
        if not c.is_bot:
            used |= free_channels(c.proc) | free_channels(c.obs)
    return used


def _channel_usage(dists, free: set, sig):
    """-> (sends, recvs): channel -> (arity, is_qubit) as seen in the terms,
    for the channels in `free`, those free in some element of `dists`: no
    context reaches a restricted one."""
    sends: dict = {}
    recvs: dict = {}
    for d in dists:
        for c, _ in d.items():
            if not c.is_bot:
                _note_usage(c.proc, free, sig, sends, recvs)
                _note_usage(c.obs, free, sig, sends, recvs)
    return sends, recvs


def _note_usage(t, free: set, sig, sends: dict, recvs: dict):
    if isinstance(t, (Send, Recv)) and t.chan in free:
        declared = sig.channel_type(t.chan) if sig is not None else None
        if isinstance(t, Send):
            qubit = any(isinstance(e, QubitLit) for e in t.payload)
            sends[t.chan] = (len(t.payload), qubit if declared is None else "qubit" in declared)
        else:
            recvs[t.chan] = (len(t.vars), declared is None or "qubit" in declared)
    for c in children(t):
        _note_usage(c, free, sig, sends, recvs)


def _measure_flag_body(meas: str, targets: tuple, outcome: int, flag_a: str, flag_b,
                       var: str = "y"):
    """M(targets |> var).((if var = outcome then a!0 else b!0/nil) || disc targets)"""
    els = Send(flag_b, (NatLit(0),)) if flag_b else Nil()
    return Measure(
        meas,
        targets,
        var,
        Par(Ite(BinOp("=", Var(var), NatLit(outcome)), Send(flag_a, (NatLit(0),)), els),
            Nil(targets)),
    )


def candidate_frames(dl: Distribution, dr: Distribution, mode: str,
                     bounds: SearchBounds, sig=None) -> tuple:
    """Grammar-bounded frames: receivers that measure and flag, senders
    that prepare and emit free qubits, reception sums, and two-component
    parallels, pruned by node count and (for the constrained mode) the
    observer discipline; hint contexts come first. The frames depend on
    the pair only through its grammar: the channels it sends and
    receives on, the fresh flag names and its first free qubit. They are
    symbolic, so each grammar's frames are built once and shared."""
    taken = _used_channels(dl) | _used_channels(dr)
    sends, recvs = _channel_usage((dl, dr), taken, sig)
    flags = fresh_names("flag", max(bounds.fresh_channels, 2), taken)
    return _grammar_frames(tuple(sorted(sends.items())), tuple(sorted(recvs.items())),
                           tuple(flags), tuple(_free_qubits(dl, dr)[:1]), mode, bounds)


@functools.lru_cache
def _grammar_frames(sends: tuple, recvs: tuple, flags: tuple, free_qubits: tuple,
                    mode: str, bounds: SearchBounds) -> tuple:
    pieces = []
    q_send_chans = [c for c, (ar, q) in sends if q and ar == 1]
    c_send_chans = [c for c, (ar, q) in sends if not q and ar == 1]
    q_recv_chans = [c for c, (ar, q) in recvs if q and ar == 1]
    c_recv_chans = [c for c, (ar, q) in recvs if not q and ar == 1]

    for c in q_send_chans:
        x = Var("x")
        pieces.append(Recv(c, ("x",), Nil((x,))))
        pieces.append(Recv(c, ("x",), ApplyOp("I", (x,), Nil((x,)))))
        for meas in ("M01", "Mpm"):
            pieces.append(Recv(c, ("x",), _measure_flag_body(meas, (x,), 0, flags[0], flags[1])))
            for outcome in (0, 1):
                pieces.append(
                    Recv(c, ("x",), _measure_flag_body(meas, (x,), outcome, flags[0], None))
                )
        # two receptions on the same channel, then a joint measurement
        for meas in ("M01", "MBell"):
            for outcome in range(4):
                body = _measure_flag_body(meas, (x, Var("y")), outcome, flags[0], None, "z")
                pieces.append(Recv(c, ("x",), Recv(c, ("y",), body)))
    for c in c_send_chans:
        for v in (0, 1):
            pieces.append(
                Recv(c, ("x",),
                     Ite(BinOp("=", Var("x"), NatLit(v)),
                         Send(flags[0], (NatLit(0),)), Send(flags[1], (NatLit(0),))))
            )
    for c in q_recv_chans:
        for a in free_qubits:
            q = QubitLit(a)
            pieces.append(Send(c, (q,)))
            for g in ("H", "X"):
                pieces.append(ApplyOp(g, (q,), Send(c, (q,))))
    for c in c_recv_chans:
        for v in (NatLit(0), NatLit(1)):
            pieces.append(Send(c, (v,)))

    # a sum or parallel pair is sized from its parts and built only when it
    # fits the bound
    frames = [p for p in pieces if _node_count(p) <= bounds.context_size]

    # reception sums over distinct channels
    recv_pieces = [p for p in pieces if isinstance(p, Recv)]
    for a, b in itertools.combinations(recv_pieces, 2):
        if a.chan != b.chan and 1 + _node_count(a) + _node_count(b) <= bounds.context_size:
            frames.append(Sum(a, b))
    if mode == SATURATED:
        # guarded sums beyond receptions, e.g. one reception with a
        # choice of measurement bases in its continuation
        for c in q_send_chans:
            x = Var("x")
            if len(flags) >= 4:
                body = Sum(
                    _measure_flag_body("M01", (x,), 0, flags[0], flags[1]),
                    _measure_flag_body("Mpm", (x,), 0, flags[2], flags[3]),
                )
                frames.append(Recv(c, ("x",), body))
    # parallel pairs; components must not share ancilla qubits
    singles = list(frames)
    for a, b in itertools.combinations(singles, 2):
        if 1 + _node_count(a) + _node_count(b) <= bounds.context_size \
                and not qubit_atoms(a) & qubit_atoms(b):
            frames.append(Par(a, b))

    return tuple(dict.fromkeys(
        f for f in list(bounds.hint_contexts) + sorted(frames, key=_node_count)
        if _node_count(f) <= bounds.context_size
        and not (mode == CONSTRAINED and observer_violation(f))))


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
    names = fresh_names("anc", n, taken)
    anc = qcore.pure_state(qcore.kron_all([qcore.KET0] * n), names)

    def pad(c: Configuration) -> Configuration:
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
    being returned; a certificate after forced silent steps (`_certify`:
    equality, the density quotient in constrained mode only, or the input
    certificate at a pair of qubit receptions) may certify bisimilarity;
    anything else is inconclusive. The verdict is computed in one scope
    (`memo.scope`); the replay runs after it has closed, so it recomputes
    the backend but reads the same move schemas."""
    stats = Stats()
    with memo.scope(stats):
        bm = barb_mismatch(dist_barbs(dl), dist_barbs(dr))
        if bm is not None:
            return Distinguished(BarbLeaf(*bm), stats)
        cert = _certify(dl, dr, mode, bounds, sig)
        if cert is not None:
            return CertifiedBisimilar(cert, stats)
        reg_names = _all_names(dl) | _all_names(dr)
        pl = pad_ancillas(dl, bounds.ancillas, reg_names)
        pr = pad_ancillas(dr, bounds.ancillas, reg_names)
        witness = _search(pl, pr, mode, bounds, sig, stats)
    if witness is not None:
        if not replay_witness(pl, pr, witness, mode, bounds, sig):
            raise AssertionError("distinguishing witness failed to replay")
        return Distinguished(witness, stats)
    return InconclusiveAtBounds(bounds, "no distinguishing strategy within bounds", stats)


def _all_names(dist: Distribution) -> set:
    return _used_channels(dist).union(*(c.rho.register.names for c, _ in dist.items()
                                        if not c.is_bot))


def certify(
    dl: Distribution,
    dr: Distribution,
    bounds: SearchBounds = SearchBounds(),
    sig=None,
):
    """Certificate-only entry point, constrained semantics: equality or
    the density quotient, after forced silent steps that stop at barbs,
    receptions and free qubits, or the input certificate at a pair of
    qubit receptions (`_certify`), computed in one scope (`memo.scope`)."""
    stats = Stats()
    with memo.scope(stats):
        cert = _certify(dl, dr, CONSTRAINED, bounds, sig)
    if cert is not None:
        return CertifiedBisimilar(cert, stats)
    return InconclusiveAtBounds(bounds, "no certificate applies", stats)


def _certificate(dl: Distribution, dr: Distribution, mode: str, bounds, sig):
    """The certificate that ends the game at (dl, dr) in `mode`, or None:
    equality in both modes, the density quotient in constrained mode only
    (QCF's dishonest-Bob prefixes are a density-quotient pair that
    saturated contexts tell apart)."""
    if dl == dr:
        return ("equal-distributions", None)
    if mode == CONSTRAINED:
        q = density_quotient_equiv(dl, dr, bounds, sig)
        if isinstance(q, CertifiedBisimilar):
            return q.certificate
    return None


def _certify(dl: Distribution, dr: Distribution, mode: str, bounds, sig):
    """`_certificate` tried at each pair of a forced run, on which both
    sides take their forced steps (`_forced_successor`) in lockstep; where
    the run stops at a pair of qubit receptions, the input certificate
    (`_input_certificate`).

    Soundness. A side steps only when closed to contexts
    (`_closed_to_contexts`), by its one genuine move, the diamond, with no
    deadlock mass. No context can communicate with it or touch its
    qubits, so context moves commute with the forced step and reach pairs
    of the same shape: with the certified pair, closed under contexts,
    these form a bisimulation.
    - Constrained: a lifted move fires one index in all elements, and an
      observer has at most one move per index (no tau, no random bit, and
      its receptions need a barb), so both sides move alike. Equality and
      the density quotient are closed under observers.
    - Saturated: a lifted move picks a move per element, so a parallel
      context can fire beside the forced step in some elements only
      (`tau.f!0` beside one outcome of `M01(q |> x).tau.disc(q)`, against
      `tau.M01(q |> x).disc(q)`), and so the run steps only from point
      distributions. Only equality is closed under parallel contexts.

    Input certificate (`_input_certificate`): c?x.P against c?x.Q, lone
    live receptions of one qubit on the same free channel c, over one
    state and observer. Both sides receive x' of a Bell pair on fresh
    (r, x') and step in lockstep as above, except that register qubits
    the process does not own, r among them, are the context's; equality
    after the same number n of steps certifies. Those steps act on x' and
    owned qubits only, with no barb, input or deadlock mass: a
    trace-preserving instrument, which its action on half of a maximally
    entangled pair fixes (Choi). So P and Q end equal after n steps on
    any input, however entangled with what the context keeps. The pairs
    met on the way are images of one joint state under the first k < n
    steps of each run; a context move on disjoint qubits, applied to
    both sides element by element, commutes with the runs and keeps that
    shape, with equal probabilities, as the runs keep the context's
    marginal. Forced steps consume prefixes, so elements at different
    stages never share a process.
    - Constrained: the diamond fires in all elements, so all are at one
      stage, and each index moves both sides alike, even where one side
      merges elements that the other keeps apart.
    - Saturated: elements may be at different stages, and elements merged
      on one side only let the attacker step them apart on the other
      (`Set0(x).Set0(x)` against `I(x).Set0(x)`, beside a context that
      measures and resets r). So the run steps only from a point whose
      state is pure: a step between pure states acts as one isometry on
      every state a context can reach, so both sides merge alike."""
    pair = (dl, dr)
    for _ in range(bounds.depth + 8):
        cert = _certificate(*pair, mode, bounds, sig)
        if cert is not None:
            return cert
        succ = tuple(_forced_successor(d, mode, sig, bounds) for d in pair)
        if None in succ:
            return _input_certificate(*pair, mode, bounds, sig)
        pair = succ
    return None


def _closed_to_contexts(dist: Distribution, mode: str, shared: bool = False) -> bool:
    """Whether no context can communicate with `dist` or touch its qubits
    (see `_certify`): no barb (the deadlock point counts), no reception on
    an unrestricted channel, every register qubit owned, and in saturated
    mode a point. In an input run (`shared`) unowned register qubits are
    the context's, and a saturated point's state is pure instead."""
    if dist_barbs(dist) or (mode == SATURATED and len(dist) > 1):
        return False
    if shared:
        if mode == SATURATED and not next(iter(dist.support)).rho.is_pure():
            return False
    elif _free_qubits(dist, dist):
        return False
    return not any(isinstance(g, Recv) for c, _ in dist.items() for g in open_guards(c.proc))


def _forced_successor(dist: Distribution, mode: str, sig, bounds, shared: bool = False):
    """The one genuine move, the diamond, with no deadlock mass, of a side
    closed to contexts (`_closed_to_contexts`), or None."""
    if not _closed_to_contexts(dist, mode, shared):
        return None
    try:
        moves = lift_estep(dist, sig, bounds.choice_cap)
    except ChoiceExplosion:
        return None
    if len(moves) != 1 or moves[0][0] != DIAMOND or moves[0][1].bot_mass() > TOL_PROB:
        return None
    return moves[0][1]


def _input_certificate(dl: Distribution, dr: Distribution, mode: str, bounds, sig):
    """("choi-input", c, n) when dl and dr are points over one state and
    observer, each process a lone live reception of one qubit on the same
    free channel c, and the two continuations, fed x' of the Bell pair
    (|00> + |11>)/sqrt 2 on fresh qubits (r, x') appended to the
    register, are equal after n forced steps in lockstep; else None (see
    `_certify`)."""
    if sig is None or len(dl) != 1 or len(dr) != 1:
        return None
    (cl, _), = dl.items()
    (cr, _), = dr.items()
    if cl.is_bot or cr.is_bot or cl.obs is not cr.obs:
        return None
    views = [_lone_reception(c.proc) for c in (cl, cr)]
    if None in views or views[0][0].chan != views[1][0].chan \
            or sig.channel_type(views[0][0].chan) != (QUBIT,) or cl.rho.key() != cr.rho.key():
        return None
    ref, inp = fresh_names("choi", 2, _all_names(dl) | _all_names(dr))
    rho = cl.rho.tensor(qcore.pure_state(qcore.PHI_P, (ref, inp)))
    pair = tuple(
        Distribution.point(Configuration(rho, close_scopes(
            [*others, substitute(recv.cont, recv.vars[0], QubitLit(inp))], restricted), cl.obs))
        for recv, others, restricted in views)
    for steps in range(1, bounds.depth + 8):
        pair = tuple(_forced_successor(d, mode, sig, bounds, shared=True) for d in pair)
        if None in pair:
            return None
        if pair[0] == pair[1]:
            return ("choi-input", views[0][0].chan, steps)
    return None


def _lone_reception(proc):
    """(reception, other components, restricted channels) when the one
    live component of `proc` is a reception of one variable on a channel
    no restriction hides, else None."""
    comps, restricted = exec_view(proc)
    live = [x for x in comps if not isinstance(x, Nil)]
    if len(live) != 1 or not isinstance(live[0], Recv) or live[0].chan in restricted \
            or len(live[0].vars) != 1:
        return None
    return live[0], [x for x in comps if x is not live[0]], restricted


def _search(dl, dr, mode, bounds, sig, stats):
    """The attacker's search from (dl, dr): a strategy tree, or None. The
    root tries no frame first, then every candidate frame. The search
    keeps a memo of its pairs and a table of each distribution's lifted
    moves, computed once; both are emptied when it returns, also by an
    exception, so no visited state outlives it."""
    root_frames = [None, *candidate_frames(dl, dr, mode, bounds, sig)]
    memo: dict = {}
    moves: dict = {}

    def lifted(d: Distribution) -> list:
        if d not in moves:
            moves[d] = _lifted_moves(d, mode, sig, bounds.choice_cap)
        return moves[d]

    def attack(a: Distribution, b: Distribution, depth: int):
        stats.states_visited += 1
        bm = barb_mismatch(dist_barbs(a), dist_barbs(b))
        if bm is not None:
            return BarbLeaf(*bm)
        if depth == 0:
            return None
        at_root = depth == bounds.depth
        key = (a.key(), b.key(), depth)
        if key in memo:
            return memo[key]
        memo[key] = None
        if not at_root and _certificate(a, b, mode, bounds, sig) is not None:
            return None
        result = None
        for frame in root_frames if at_root else [None]:
            if frame is not None:
                stats.contexts_tried += 1
                try:
                    fa = _apply_frame(a, frame, mode)
                    fb = _apply_frame(b, frame, mode)
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
        # saturated moves all carry index None, so they form one group
        moves_a, moves_b = lifted(fa), lifted(fb)
        for idx in dict.fromkeys(idx for idx, _ in moves_a + moves_b):
            at_a = at_index(moves_a, idx)
            at_b = at_index(moves_b, idx)
            for side, mine, theirs in (("left", at_a, at_b), ("right", at_b, at_a)):
                for mv in mine:
                    refutations = []
                    beaten = True
                    for resp in theirs:
                        if side == "left":
                            sub = attack(mv, resp, depth - 1)
                        else:
                            sub = attack(resp, mv, depth - 1)
                        if sub is None:
                            beaten = False
                            break
                        refutations.append((resp, sub))
                    if beaten:
                        return AttackStep(side, frame, idx, mv, tuple(refutations))
        return None

    try:
        return attack(dl, dr, bounds.depth)
    finally:
        # attack and _attack_with refer to each other, so the tables
        # would otherwise live until the cyclic collector runs
        memo.clear()
        moves.clear()


def replay_witness(dl, dr, witness, mode, bounds, sig=None) -> bool:
    """Re-execute a distinguishing strategy from scratch: the attack move
    must be derivable, and every recomputed defender option must be
    refuted by the stored sub-witness; a barb leaf's masses must be the
    recorded ones."""
    if isinstance(witness, BarbLeaf):
        pl = dist_barbs(dl).get(witness.channel, 0.0)
        pr = dist_barbs(dr).get(witness.channel, 0.0)
        return (abs(pl - witness.p_left) <= TOL_MASS and abs(pr - witness.p_right) <= TOL_MASS
                and abs(pl - pr) > TOL_PROB)
    if not isinstance(witness, AttackStep):
        return False
    a, b = dl, dr
    if witness.context is not None:
        try:
            a = _apply_frame(a, witness.context, mode)
            b = _apply_frame(b, witness.context, mode)
        except TypingError:
            return False
    mine, theirs = (a, b) if witness.side == "left" else (b, a)
    my_moves = at_index(_lifted_moves(mine, mode, sig, bounds.choice_cap), witness.index)
    their_moves = at_index(_lifted_moves(theirs, mode, sig, bounds.choice_cap), witness.index)
    if witness.move not in my_moves:
        return False
    stored = dict(witness.refutations)
    for resp in their_moves:
        sub = stored.get(resp)
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
    """Certify a candidate relation from its transfer conditions on its
    own moves: barb equality per pair, and every lifted (indexed) move of
    one side matched by the other with successors inside the relation (or
    its convex hull when `upto_cv`). Sides that differ in a barb are
    distinguished. Unequal sides not both closed to contexts
    (`_closed_to_contexts`) are inconclusive, and named: no context is
    searched here, `distinguish` does that. One scope (`memo.scope`).

    Soundness. Equal sides stay equal in every context. Closed sides move
    alone, so, as in `_certify`, context moves commute with the pair's
    own: the relation, closed under contexts, is a bisimulation once its
    own moves match within it.
    - Constrained: observers move both sides alike. A choice made per
      element tells apart mixtures that merge elements on one side only,
      so with `upto_cv` each side has one move per index.
    - Saturated: a parallel context chooses per element, so unequal sides
      are points, and `upto_cv`, whose hull pairs are not, is inconclusive."""
    pairs = list(pairs)
    stats = Stats()
    with memo.scope(stats):
        for n, (a, b) in enumerate(pairs):
            bm = barb_mismatch(dist_barbs(a), dist_barbs(b))
            if bm is not None:
                return Distinguished(BarbLeaf(*bm), stats)
            if a != b and not (_closed_to_contexts(a, mode) and _closed_to_contexts(b, mode)):
                return InconclusiveAtBounds(bounds, f"pair {n} is open to contexts", stats)
            try:
                moves_a, moves_b = (_lifted_moves(d, mode, sig, bounds.choice_cap) for d in (a, b))
            except ChoiceExplosion as exc:
                return InconclusiveAtBounds(bounds, str(exc), stats)
            if upto_cv and (mode == SATURATED
                            or any(len(dict(m)) < len(m) for m in (moves_a, moves_b))):
                return InconclusiveAtBounds(bounds, f"pair {n}: the convex hull needs one move "
                                            "per index, in constrained mode", stats)
            for here, there, label in ((moves_a, moves_b, "left"), (moves_b, moves_a, "right")):
                for idx, succ in here:
                    if not any(_in_relation((succ, cand) if label == "left" else (cand, succ),
                                            pairs, upto_cv) for cand in at_index(there, idx)):
                        return InconclusiveAtBounds(bounds, f"pair {n}: {label} move at index "
                                                    f"{idx!r} has no match in the relation", stats)
    return CertifiedBisimilar(("candidate-relation", len(pairs)), stats)


def _in_relation(pair, pairs, upto_cv: bool) -> bool:
    """Whether `pair` is listed, an identity pair (always sound to close
    under) or, when `upto_cv`, in the convex hull of the listed pairs:
    weights p_i >= 0 with sum p_i (x_i, y_i) = pair and sum p_i = 1."""
    listed = pair in pairs or pair[0] == pair[1]
    if listed or not upto_cv:
        return listed
    base = list(pairs) + [(Distribution.point(BOT), Distribution.point(BOT))]
    a_eq, b_eq = [], []
    for side, target in enumerate(pair):
        dists = [listed_pair[side] for listed_pair in base]
        for ck in sorted({c.key() for d in dists + [target] for c, _ in d.items()}):
            a_eq.append([sum(p for c, p in d.items() if c.key() == ck) for d in dists])
            b_eq.append(sum(p for c, p in target.items() if c.key() == ck))
    a_eq.append([1.0] * len(base))
    b_eq.append(1.0)
    return _feasible(a_eq, b_eq)


def _feasible(a_eq, b_eq) -> bool:
    """Whether some x >= 0 solves a_eq x = b_eq: a linear program with
    zero cost."""
    from scipy.optimize import linprog

    res = linprog(
        c=[0.0] * len(a_eq[0]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    return bool(res.success)


# ---------------------------------------------------------------------------
# execution helpers shared with the corpus


def advance_unique(dist: Distribution, sig=None):
    """Follow the chain of unique lifted genuine moves (`estep_genuine`: an
    element without the move gives the BOT point, but a deadlock is no
    move of its own), at most 64, until the distribution branches or goes
    quiescent. Returns the distributions visited, including the start."""
    trace = [dist]
    for _ in range(64):
        moves = lift(dist, lambda c: estep_genuine(c, sig))
        if len(moves) != 1:
            break
        dist = moves[0][1]
        trace.append(dist)
    return trace


def advance_scheduled(dist: Distribution, sig=None, max_steps: int = 64):
    """Like advance_unique, but when independent redexes race it takes the
    least index that some element enables and commits each element to its
    first move there (`osem.first_schemas`: at the diamond, the first
    schema of its normal form), built alone; an element without the index
    contributes the BOT point. Any fixed schedule is valid for the runs
    this driver is for, whose racing moves are internal steps that commute:
    every interleaving ends on the same distribution, so one checks them
    all. Linear in the support, with no choice products."""
    trace = [dist]
    for _ in range(max_steps):
        elems = [(c, p, first_schemas(c)) for c, p in dist.items()]
        indices = sorted({idx for _, _, first in elems for idx in first})
        if not indices:
            break
        idx = indices[0]
        dist = Distribution.convex([
            (p, schema_move(c, *first[idx], sig) if idx in first else Distribution.point(BOT))
            for c, p, first in elems])
        trace.append(dist)
    return trace
