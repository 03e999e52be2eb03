"""The prefix rules (tau, gate, measurement, random bit) are written once,
in `semantics.fire`, for processes and observers alike. The reference
functions below are the rules as they were written before the merge, one
copy for the process and one for the observer; the moves of the merged
rules must equal theirs, in the same order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import make_signature, random_config
from lqccs.ops import resolve_measurement, resolve_operator
from lqccs.osem import DIAMOND, L, R, estep_genuine
from lqccs.parser import parse_process
from lqccs.qcore import apply_superop, measure
from lqccs.rewrite import close_scopes, normalize, normalize_observer, substitute_many
from lqccs.semantics import (
    Configuration,
    Distribution,
    _qubit_args,
    communications,
    exec_view,
    make_config,
    step_genuine,
    unique,
)
from lqccs.syntax import NIL, ApplyOp, Measure, Par, RandBit, Recv, Send, Sum, Tau, sum_guards

SIG = make_signature()

# observers over o1 whose continuations read the measured outcome, so a
# continuation is left unnormalized, or built for the wrong outcome,
# unless the rules get it right; None keeps the generated observer
OBSERVERS = (
    None,
    "M01(o1 |> y).((if y = 0 then k!0 else k!1) || disc(o1))",
    "H(o1).Mpm(o1 |> y).((if y = 0 then l!true else l!false) || disc(o1))",
    "(M01(o1 |> y).((if y = 1 then k!1 else nil) || disc(o1))) || c?x.X(x).d!x",
    "k?z.nil || X(o1).M01(o1 |> y).((if y = 0 then l!true else nil) || disc(o1))",
)


def reference_proc_moves(rho, proc, sig) -> list:
    comps, restricted = exec_view(proc)
    moves = []

    def succ(new_rho, new_comps):
        return Distribution.point(Configuration(new_rho, close_scopes(new_comps, restricted)))

    for i, comp in enumerate(comps):
        others = comps[:i] + comps[i + 1 :]
        for g in sum_guards(comp):
            if isinstance(g, Tau):
                moves.append(succ(rho, others + [g.cont]))
            elif isinstance(g, ApplyOp):
                targets = _qubit_args(g.args)
                op = resolve_operator(g.op, len(targets), sig)
                moves.append(succ(apply_superop(op, targets, rho), others + [g.cont]))
            elif isinstance(g, Measure):
                targets = _qubit_args(g.args)
                m = resolve_measurement(g.op, len(targets), sig)
                branches = []
                for outcome, p, post in measure(m, targets, rho):
                    cont = substitute_many(g.cont, [(g.var, outcome)])
                    new_proc = close_scopes(others + [cont], restricted)
                    branches.append((Configuration(post, new_proc), p))
                moves.append(Distribution(branches))
            elif isinstance(g, RandBit):
                branches = []
                for bit in (0, 1):
                    cont = substitute_many(g.cont, [(g.var, bit)])
                    new_proc = close_scopes(others + [cont], restricted)
                    branches.append((Configuration(rho, new_proc), 0.5))
                moves.append(Distribution(branches))
    live = list(enumerate(comps))
    for i, j, cont in communications(live, live):
        rest = [c for k, c in enumerate(comps) if k not in (i, j)]
        moves.append(succ(rho, rest + [cont]))
    return unique(moves)


def reference_step_genuine(config, sig) -> list:
    """Process moves built without the observer, then given it."""
    moves = reference_proc_moves(config.rho, normalize(config.proc), sig)
    return [dist.map(lambda c: Configuration(c.rho, c.proc, config.obs)) for dist in moves]


def reference_observer_moves(rho, proc, obs, sig) -> list:
    if isinstance(obs, Par):
        out = []
        for idx, dist in reference_observer_moves(rho, proc, obs.left, sig):
            out.append((L + idx, dist.map(lambda c: Configuration(c.rho, c.proc, Par(c.obs, obs.right)))))
        for idx, dist in reference_observer_moves(rho, proc, obs.right, sig):
            out.append((R + idx, dist.map(lambda c: Configuration(c.rho, c.proc, Par(obs.left, c.obs)))))
        return out
    moves = []
    if isinstance(obs, ApplyOp):
        targets = _qubit_args(obs.args)
        op = resolve_operator(obs.op, len(targets), sig)
        moves.append(
            ("", Distribution.point(Configuration(apply_superop(op, targets, rho), proc, obs.cont)))
        )
    elif isinstance(obs, Measure):
        targets = _qubit_args(obs.args)
        m = resolve_measurement(obs.op, len(targets), sig)
        branches = []
        for outcome, p, post in measure(m, targets, rho):
            cont = normalize_observer(substitute_many(obs.cont, [(obs.var, outcome)]))
            branches.append((Configuration(post, proc, cont), p))
        moves.append(("", Distribution(branches)))
    elif isinstance(obs, Send):
        comps, restricted = exec_view(proc)
        for _, j, cont in communications([(-1, obs)], list(enumerate(comps)), restricted):
            rest = [c for k, c in enumerate(comps) if k != j]
            moves.append(("", Distribution.point(
                Configuration(rho, close_scopes(rest + [cont], restricted), NIL))))
    elif isinstance(obs, (Recv, Sum)):
        comps, restricted = exec_view(proc)
        for g in sum_guards(obs):
            if not isinstance(g, Recv):
                continue
            for i, _, cont in communications(enumerate(comps), [(-1, g)], restricted):
                new_proc = close_scopes([c for k, c in enumerate(comps) if k != i], restricted)
                moves.append(("", Distribution.point(
                    Configuration(rho, new_proc, normalize_observer(cont)))))
    return moves


def reference_estep_genuine(config, sig) -> list:
    moves = [(DIAMOND, d) for d in reference_step_genuine(config, sig)]
    obs = normalize_observer(config.obs)
    moves.extend(reference_observer_moves(config.rho, normalize(config.proc), obs, sig))
    return unique(moves)


def keys(moves) -> list:
    return [(idx, d.key()) for idx, d in moves]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(OBSERVERS))
def test_merged_rules_match_the_reference(seed, observer):
    cfg, sig = random_config(seed)
    if observer is not None:
        cfg = make_config(cfg.rho, cfg.proc, parse_process(observer, SIG))
    assert cfg.obs != NIL
    got = step_genuine(cfg, sig)
    assert [d.key() for d in got] == [d.key() for d in reference_step_genuine(cfg, sig)]
    assert keys(estep_genuine(cfg, sig)) == keys(reference_estep_genuine(cfg, sig))


def test_a_communication_on_a_renamed_channel_keeps_the_observer():
    # k is restricted in the blob and free beside it, so the blob merges
    # only with its k renamed apart and communicates on that name, never
    # with k?y.nil; the observer must stay in its successor
    proc = parse_process("(k!0 || k?x.disc(q1)) \\ k || k?y.nil", SIG)
    obs = parse_process("M01(o1 |> y).((if y = 0 then k!0 else k!1) || disc(o1))", SIG)
    cfg, _ = random_config(0)
    cfg = make_config(cfg.rho, proc, obs)
    (blob_move,) = step_genuine(cfg, SIG)
    assert [c.obs for c, _ in blob_move.items()] == [cfg.obs]
    assert keys(estep_genuine(cfg, SIG)) == keys(reference_estep_genuine(cfg, SIG))
