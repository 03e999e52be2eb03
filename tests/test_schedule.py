"""The fixed schedule of `advance_scheduled`: at the least index that some
element enables, each element takes its first move, built alone."""

import numpy as np
import pytest

from genterms import make_signature, random_config, random_density
from lqccs import corpus, qcore
from lqccs.equiv import advance_scheduled
from lqccs.errors import EvalError, LqccsError
from lqccs.osem import DIAMOND, estep_genuine
from lqccs.parser import parse_process, parse_program
from lqccs.qcore import PROB_DECIMALS
from lqccs.rewrite import normalize
from lqccs.semantics import BOT, Distribution, at_index, dist_barbs, make_config, mixture
from lqccs.syntax import NIL, ApplyOp, NatLit

SIG = make_signature(("q", "o1"))


def P(text):
    return parse_process(text, SIG)


def zeros(*names):
    return qcore.pure_state(qcore.kron_all([qcore.KET0] * len(names)), names)


def min_by_key_schedule(dist, sig, max_steps):
    """The reference schedule: every move of every element, then the least
    by `Distribution.key` at the least enabled index."""
    trace = [dist]
    for _ in range(max_steps):
        elems = list(dist.items())
        per = [estep_genuine(c, sig) for c, _ in elems]
        indices = sorted({i for mv in per for i, _ in mv})
        if not indices:
            break
        idx = indices[0]
        dist = Distribution.convex(
            [(p, min(at_index(mv, idx), key=Distribution.key)) for (_, p), mv in zip(elems, per)])
        trace.append(dist)
    return trace


def _rounded_barbs(dist):
    return {b: round(p, PROB_DECIMALS) for b, p in dist_barbs(dist).items()}


QCF_RUNS = [(n, source, proc) for n in (1, 2)
            for source, procs in ((corpus.qcf_source, ("QCF", "FairCoin")),
                                  (corpus.alison_source, ("QCFAlison", "UnfairCoin")))
            for proc in procs]


@pytest.mark.parametrize("n, source, proc", QCF_RUNS, ids=[f"{p}-n{n}" for n, _, p in QCF_RUNS])
def test_first_moves_match_the_least_moves_on_the_qcf_runs(n, source, proc):
    # the eight scheduled runs of the qcf entries: as many steps, the same
    # barbs at each step and the same final distribution
    sig, defs = parse_program(source(n))
    names = [f"q{i + 1}" for i in range(n)]
    if source is corpus.alison_source:
        names += [f"qp{i + 1}" for i in range(n)]
    start = Distribution.point(make_config(zeros(*names), defs[proc]))
    run = advance_scheduled(start, sig, 16 * n + 16)
    ref = min_by_key_schedule(start, sig, 16 * n + 16)
    assert len(run) == len(ref)
    assert [_rounded_barbs(d) for d in run] == [_rounded_barbs(d) for d in ref]
    assert run[-1] == ref[-1]


def test_each_element_takes_its_first_move_at_the_least_index():
    # generated processes and observers over two random states: each
    # scheduled step commits every element to the first of its
    # `estep_genuine` moves at the least index, or to the BOT point
    steps = 0
    for seed in range(150):
        cfg, sig = random_config(seed)
        other = make_config(random_density(np.random.default_rng(seed + 1), ("q1", "o1")),
                            cfg.proc, cfg.obs)
        dist = mixture(Distribution.point(cfg), Distribution.point(other), 0.3)
        run = advance_scheduled(dist, sig, 4)
        for before, after in zip(run, run[1:]):
            try:
                per = [(p, estep_genuine(c, sig)) for c, p in before.items()]
            except LqccsError:
                break
            least = min(idx for _, mv in per for idx, _ in mv)
            assert after == Distribution.convex([(p, at_index(mv, least)[0]) for p, mv in per])
            steps += 1
    assert steps


def test_a_stuck_element_contributes_the_bot_point():
    moving = make_config(zeros("q"), P("tau.k!0"))
    stuck = make_config(zeros("q"), P("disc(q)"))
    run = advance_scheduled(mixture(Distribution.point(moving), Distribution.point(stuck), 0.5), SIG)
    assert len(run) == 2
    assert run[1] == Distribution([(make_config(zeros("q"), P("k!0")), 0.5), (BOT, 0.5)])


def test_the_top_level_observer_goes_before_the_diamond():
    # the process can take a tau and can receive from the observer; the
    # observer's index "" sorts before the diamond, so the reception fires
    cfg = make_config(zeros("q"), P("tau.l!true || k?x.disc(q)"), P("k!1"))
    moves = estep_genuine(cfg, SIG)
    assert sorted({idx for idx, _ in moves}) == ["", DIAMOND]
    (succ, _), = advance_scheduled(Distribution.point(cfg), SIG, 1)[1].items()
    assert succ.proc == normalize(P("tau.l!true || disc(q)"))
    assert succ.obs == NIL


def test_an_error_as_the_first_schema_still_raises():
    cfg = make_config(zeros("q"), ApplyOp("X", (NatLit(0),), NIL))
    with pytest.raises(EvalError, match="not a qubit at runtime"):
        advance_scheduled(Distribution.point(cfg), SIG)
