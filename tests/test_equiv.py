import dataclasses
import functools
import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature, mirror, random_config, random_density
from lqccs import equiv, qcore
from lqccs.claims import (
    check_nondet_vs_ite,
    crossvalidate_semantics,
    dist_refines,
    partial_trace_necessary,
    ptag,
    ptag_obs,
    refines_upto,
    replay_measurement_witness,
    superop_closure_pair,
)
from lqccs.equiv import (
    CONSTRAINED,
    SATURATED,
    BarbLeaf,
    CertifiedBisimilar,
    Distinguished,
    InconclusiveAtBounds,
    SearchBounds,
    advance_unique,
    candidate_frames,
    certify,
    check_candidate,
    config_partial_trace,
    density_quotient_equiv,
    distinguish,
    is_deterministic,
    replay_witness,
)
from lqccs.errors import ChoiceExplosion, ShapeError
from lqccs.ops import resolve_operator
from lqccs.parser import parse_process
from lqccs.rewrite import normalize
from lqccs.semantics import (BOT, DEFAULT_CHOICE_CAP, Distribution, dist_barbs, make_config,
                             mixture)
from lqccs.syntax import (NAT, QUBIT, ApplyOp, Measure, NatLit, Nil, Par, QubitLit, Recv,
                          Restrict, Send, Sum, Tau, Var, channels, free_channels, map_term)

SIG = make_signature(("q", "q1", "q2", "o1"))


def P(text):
    return parse_process(text, SIG)


def point(state, text, obs=None):
    return Distribution.point(
        make_config(state, P(text), P(obs) if obs else Nil())
    )


def pure(vec, *names):
    return qcore.pure_state(vec, names)


HALF_I = qcore.DensityMatrix(("q",), np.eye(2) / 2, check=False)


class TestDensityQuotient:
    def test_equivalent_mixtures_certify(self):
        dl = mixture(point(pure(qcore.KET0, "q"), "c!q"), point(pure(qcore.KET1, "q"), "c!q"), 0.5)
        dr = mixture(point(pure(qcore.KETP, "q"), "c!q"), point(pure(qcore.KETM, "q"), "c!q"), 0.5)
        assert isinstance(density_quotient_equiv(dl, dr), CertifiedBisimilar)

    def test_mixture_equals_aggregate_point(self):
        dl = mixture(point(pure(qcore.KET0, "q"), "c!q"), point(pure(qcore.KET1, "q"), "c!q"), 0.5)
        dr = Distribution.point(make_config(HALF_I, P("c!q")))
        assert isinstance(density_quotient_equiv(dl, dr), CertifiedBisimilar)

    def test_nondeterministic_process_is_not_certified(self):
        dl = point(pure(qcore.KET0, "q"), "c!q + d!q")
        dr = point(pure(qcore.KET0, "q"), "c!q + d!q")
        v = density_quotient_equiv(dl, dr)
        assert isinstance(v, CertifiedBisimilar) or isinstance(v, InconclusiveAtBounds)
        # different aggregates with a nondeterministic process: inconclusive
        dl2 = mixture(point(pure(qcore.KET0, "q"), "c!q + d!q"),
                      point(pure(qcore.KET1, "q"), "c!q + d!q"), 0.5)
        dr2 = mixture(point(pure(qcore.KETP, "q"), "c!q + d!q"),
                      point(pure(qcore.KETM, "q"), "c!q + d!q"), 0.5)
        assert isinstance(density_quotient_equiv(dl2, dr2), InconclusiveAtBounds)

    def test_never_distinguishes(self):
        dl = point(pure(qcore.KET0, "q"), "c!q")
        dr = point(pure(qcore.KET1, "q"), "c!q")
        v = density_quotient_equiv(dl, dr)
        assert isinstance(v, InconclusiveAtBounds)

    def test_mixture_certificates_are_linear(self):
        # p-mixtures of certified pairs stay certified
        for p in (0.0, 0.25, 0.5, 1.0):
            dl1 = mixture(point(pure(qcore.KET0, "q"), "c!q"), point(pure(qcore.KET1, "q"), "c!q"), 0.5)
            dr1 = Distribution.point(make_config(HALF_I, P("c!q")))
            dl2 = point(pure(qcore.KETP, "q"), "c!q")
            dr2 = point(pure(qcore.KETP, "q"), "c!q")
            mixed_l = mixture(dl1, dl2, p)
            mixed_r = mixture(dr1, dr2, p)
            assert isinstance(density_quotient_equiv(mixed_l, mixed_r), CertifiedBisimilar)

    def test_a_support_on_two_registers_is_inconclusive(self):
        d = mixture(point(pure(qcore.KET0, "q"), "c!q"), point(pure(qcore.KET0, "q1"), "c!q1"), 0.5)
        v = density_quotient_equiv(d, d)
        assert isinstance(v, InconclusiveAtBounds)
        assert v.reason == "support elements on different registers"

    def test_group_state_keeps_the_register(self):
        d = Distribution.point(make_config(qcore.pure_state(qcore.KET0, ("q",)),
                                           parse_process("M01(q |> x).(k!x || d!x)")))
        assert isinstance(density_quotient_equiv(d, d), (CertifiedBisimilar, InconclusiveAtBounds))


def _register_order_pair():
    """One matrix, |0>|1>, on the registers (a, b) and (b, a): |0>_a|1>_b
    against |1>_a|0>_b beside a process that sends a."""
    from lqccs.parser import parse_program

    sig, defs = parse_program("channel k : qubit; qubit a, b; process P = k!a || disc(b);")
    mat = qcore.kron(qcore.KET0, qcore.KET1)
    return sig, defs["P"], *(Distribution.point(make_config(pure(mat, *reg), defs["P"]))
                             for reg in (("a", "b"), ("b", "a")))


def test_quotient_does_not_certify_states_on_different_registers():
    sig, _, dl, dr = _register_order_pair()
    assert isinstance(density_quotient_equiv(dl, dr, SearchBounds(), sig), InconclusiveAtBounds)


@pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
def test_register_order_pair_is_distinguished(mode):
    sig, proc, dl, dr = _register_order_pair()
    bounds = SearchBounds(ancillas=0)
    v = distinguish(dl, dr, mode, bounds, sig)
    assert isinstance(v, Distinguished)
    assert replay_witness(dl, dr, v.witness, mode, bounds, sig)
    # the same right side written on (a, b) is told apart too
    same = Distribution.point(make_config(pure(qcore.kron(qcore.KET1, qcore.KET0), "a", "b"), proc))
    assert isinstance(distinguish(dl, same, mode, bounds, sig), Distinguished)


def _reordered(rho, order):
    """The same state as `rho` on its register reordered to `order`: the
    matrix conjugated by the permutation of its tensor factors."""
    names = rho.register.names
    perm = [names.index(q) for q in order]
    axes = perm + [len(names) + p for p in perm]
    mat = rho.mat.reshape((2,) * 2 * len(names)).transpose(axes).reshape(rho.mat.shape)
    return qcore.DensityMatrix(tuple(order), mat, check=False)


_SET_STATES = ("SetPhiP", "SetPhiM", "SetPsiP", "SetMaxMix")
_REORDER_PAIRS = [
    ("channel c : qubit;\nqubit q1, q2;\n", f"{a}(q1,q2).(c!q1 || c!q2)", f"{b}(q1,q2).(c!q1 || c!q2)")
    for a in _SET_STATES for b in _SET_STATES
] + [
    ("channel c : qubit;\nchannel d : qubit;\nchannel k : nat;\nqubit q1, q2, q3;\n", left, right)
    for left, right in (
        ("CNOT(q1,q2).CNOT(q1,q2).(c!q1 || disc(q2,q3))", "I(q1).I(q1).(c!q1 || disc(q2,q3))"),
        ("SWAP(q1,q2).(c!q2 || disc(q1,q3))", "I(q1).(c!q1 || disc(q2,q3))"),
        ("Z(q1).M01(q1 |> x).(k!x || disc(q1,q2,q3))", "I(q1).M01(q1 |> x).(k!x || disc(q1,q2,q3))"),
        ("I(q1).M01(q1 |> x).(k!x || disc(q1,q2,q3))", "I(q1).M01(q2 |> x).(k!x || disc(q1,q2,q3))"),
        ("c!q1 || disc(q2,q3)", "c!q2 || disc(q1,q3)"),
        ("CNOT(q1,q2).(c!q1 || c!q2 || disc(q3))", "I(q1).(c!q1 || c!q2 || disc(q3))"),
        ("CNOT(q1,q3).(c!q3 || disc(q1,q2))", "I(q1).(c!q3 || disc(q1,q2))"),
        ("c?x.Z(x).M01(x |> y).(d!x || k!y) || disc(q1,q2)",
         "c?x.I(x).M01(x |> y).(d!x || k!y) || disc(q1,q2)"),
        ("c?x.X(x).Mpm(x |> y).d!x || disc(q1,q2)", "c?x.I(x).Mpm(x |> y).d!x || disc(q1,q2)"),
    )
]


def test_reordering_the_register_keeps_the_verdict():
    from lqccs.cli import build_state
    from lqccs.parser import parse_program

    # |0>_a |1>_b written on (b, a) is |1>|0>
    flipped = _reordered(pure(qcore.kron(qcore.KET0, qcore.KET1), "a", "b"), ("b", "a"))
    assert np.allclose(flipped.mat, pure(qcore.kron(qcore.KET1, qcore.KET0), "b", "a").mat)
    # 25 pairs, each in both modes on a random state and, over three qubits,
    # on |+>|1>|0> too; each state also with its register reversed and,
    # over three qubits, rotated
    kinds = set()
    for k, (head, left, right) in enumerate(_REORDER_PAIRS):
        sig, defs = parse_program(f"{head}process L = {left};\nprocess R = {right};\n")
        names = sig.qubits
        states = [random_density(np.random.default_rng(k), names)]
        orders = [names[::-1]]
        if len(names) > 2:
            states.append(build_state("ketplus,ket1", names))
            orders.append(names[1:] + names[:1])
        for rho in states:
            for mode in (SATURATED, CONSTRAINED):
                verdicts = [
                    distinguish(*(Distribution.point(make_config(r, defs[s])) for s in "LR"),
                                mode, SearchBounds(), sig).verdict
                    for r in [rho] + [_reordered(rho, order) for order in orders]]
                assert len(set(verdicts)) == 1, (left, right, mode, verdicts)
                kinds.add(verdicts[0])
    assert kinds == {"distinguished", "certified-bisimilar", "inconclusive-at-bounds"}


class TestIsDeterministic:
    def test_send(self):
        assert is_deterministic(point(pure(qcore.KET0, "q"), "c!q")) == "yes"

    def test_measure_then_send(self):
        assert is_deterministic(point(pure(qcore.KETP, "q"), "M01(q |> x).c!q")) == "yes"

    def test_measurement_correlated_conditional(self):
        d = point(pure(qcore.KETP, "q"), "M01(q |> x).(if x = 0 then c!q else d!q)")
        assert is_deterministic(d) == "yes"

    def test_choice_of_channels(self):
        assert is_deterministic(point(pure(qcore.KET0, "q"), "c!q + d!q"), sig=SIG) == "no"

    def test_sum_of_deterministic_stays_deterministic(self):
        a = point(pure(qcore.KET0, "q"), "c!q")
        b = point(pure(qcore.KET1, "q"), "c!q")
        assert is_deterministic(mixture(a, b, 0.5)) == "yes"


class TestRefinement:
    def test_ite_refines_sum(self):
        small = P("M01(q |> x).(if x = 0 then c!q else d!q)")
        big = P("M01(q |> x).(c!q + d!q)")
        assert refines_upto(small, big)

    def test_reflexive(self):
        t = P("M01(q |> x).(c!q + d!q)")
        assert refines_upto(t, t)

    def test_not_a_refinement(self):
        assert not refines_upto(P("c!q"), P("d!q"))
        # same constructor, different label: the continuations alone do not decide
        for small, big in [
            ("H(q).c!q", "X(q).c!q"),
            ("k?x.c!x", "l?x.c!x"),
            ("M01(q |> x).c!q", "Mpm(q |> x).c!q"),
            ("randbit(x).c!q", "randbit(y).c!q"),
            ("(k?x.l!x) \\ k", "(k?x.l!x) \\ l"),
        ]:
            assert not refines_upto(P(small), P(big)), (small, big)

    def test_branch_collapse(self):
        assert refines_upto(P("c!q"), P("c!q + d!q"))
        assert refines_upto(P("d!q"), P("c!q + d!q"))

    def test_distribution_refinement_uses_coupling(self):
        st = pure(qcore.KETP, "q")
        small = mixture(point(st, "c!q"), point(st, "d!q"), 0.5)
        big = Distribution.point(make_config(st, P("c!q + d!q")))
        assert dist_refines(small, big)
        assert not dist_refines(big, small)

    def test_bot_refines_everything(self):
        assert dist_refines(Distribution.point(BOT), point(pure(qcore.KET0, "q"), "c!q"))

    def test_leftover_component_refines_from_nil(self):
        assert refines_upto(P("c!q1 || k!0"), P("c!q1 || k!0 || l!true"))

    def test_leftover_component_owning_qubits_is_not_nil(self):
        assert not refines_upto(P("c!q1"), P("c!q1 || disc(q2)"))

    def test_component_matching_is_injective(self):
        assert not refines_upto(P("k!0 || k!0"), P("k!0"))

    def test_components_match_across_a_sum(self):
        assert refines_upto(P("k!0 || c!q1"), P("c!q1 || k!0 + l!true"))

    def test_congruence_compatible(self):
        # P' <= P lifts through normalization: the canonical forms are
        # related by the congruence-closed refinement
        for seed in range(40):
            gen = TermGen(seed, SIG)
            big = Sum(gen._guard(frozenset({"q1"}), {}, 1), gen._guard(frozenset({"q1"}), {}, 1))
            small = big.left
            assert refines_upto(small, big)
            assert refines_upto(normalize(small), normalize(big))


class TestNondetVsIte:
    def test_measurement_correlated_instance(self):
        small = point(pure(qcore.KETP, "q"), "M01(q |> x).(if x = 0 then c!q else d!q)")
        big = point(pure(qcore.KETP, "q"), "M01(q |> x).(c!q + d!q)")
        ok, why = check_nondet_vs_ite(small, big, SearchBounds(depth=3), SIG)
        assert ok, why

    def test_reflexive_instance(self):
        d = point(pure(qcore.KETP, "q"), "M01(q |> x).(c!q + d!q)")
        ok, why = check_nondet_vs_ite(d, d, SearchBounds(depth=2), SIG)
        assert ok, why

    def test_random_refinements(self):
        count = 0
        for seed in range(800):
            gen = TermGen(seed, SIG)
            big = gen.process(frozenset({"q1"}), {}, 4)
            small, changed = _refine_randomly(gen, big, {})
            if not changed:
                continue
            assert refines_upto(small, big)
            st = random_density(np.random.default_rng(seed), ("q1",))
            ds = Distribution.point(make_config(st, small))
            db = Distribution.point(make_config(st, big))
            ok, why = check_nondet_vs_ite(ds, db, SearchBounds(depth=3), SIG)
            assert ok, f"seed {seed}: {why}"
            count += 1
            if count >= 50:
                break
        assert count >= 50


def _refine_randomly(gen, term, env):
    """Replace some sums by a branch or a conditional over a bound var."""
    from lqccs.syntax import (
        ApplyOp, BinOp, Ite, Measure, RandBit, Recv, Restrict, Tau, Var,
    )

    rng = gen.rng
    if isinstance(term, Sum) and rng.random() < 0.7:
        left, lch = _refine_randomly(gen, term.left, env)
        right, rch = _refine_randomly(gen, term.right, env)
        kind = rng.choice(["left", "right", "ite"])
        if kind == "left":
            return left, True
        if kind == "right":
            return right, True
        nat_vars = [v for v, t in env.items() if t == "nat"]
        cond = (
            BinOp("=", Var(rng.choice(nat_vars)), NatLit(rng.randrange(2)))
            if nat_vars
            else BinOp("<=", NatLit(0), NatLit(rng.randrange(2)))
        )
        return Ite(cond, left, right), True
    if isinstance(term, (Tau, ApplyOp)):
        cont, ch = _refine_randomly(gen, term.cont, env)
        return type(term)(*_rebuild_prefix(term, cont)), ch
    if isinstance(term, Measure):
        env2 = dict(env)
        env2[term.var] = "nat"
        cont, ch = _refine_randomly(gen, term.cont, env2)
        return Measure(term.op, term.args, term.var, cont), ch
    if isinstance(term, RandBit):
        env2 = dict(env)
        env2[term.var] = "nat"
        cont, ch = _refine_randomly(gen, term.cont, env2)
        return RandBit(term.var, cont), ch
    if isinstance(term, Recv):
        cont, ch = _refine_randomly(gen, term.cont, env)
        return Recv(term.chan, term.vars, cont), ch
    if isinstance(term, Par):
        left, lch = _refine_randomly(gen, term.left, env)
        right, rch = _refine_randomly(gen, term.right, env)
        return Par(left, right), lch or rch
    if isinstance(term, Restrict):
        body, ch = _refine_randomly(gen, term.body, env)
        return Restrict(body, term.chan), ch
    if isinstance(term, Ite):
        left, lch = _refine_randomly(gen, term.then, env)
        right, rch = _refine_randomly(gen, term.els, env)
        return Ite(term.cond, left, right), lch or rch
    return term, False


def _rebuild_prefix(term, cont):
    from lqccs.syntax import ApplyOp, Tau

    if isinstance(term, Tau):
        return (cont,)
    return (term.op, term.args, cont)


class TestDiscardTrace:
    def test_section_example(self):
        # measuring either basis on half of a Bell pair, then sending
        phip = pure(qcore.PHI_P, "q1", "q2")
        a = Distribution.point(make_config(phip, P("M01(q1 |> x).c!q1 || disc(q2)")))
        b = Distribution.point(make_config(phip, P("Mpm(q1 |> x).c!q1 || disc(q2)")))
        (da,) = [d for _, d in _diamond_moves(a)]
        (db,) = [d for _, d in _diamond_moves(b)]
        ra = config_partial_trace(da, ("q2",))
        rb = config_partial_trace(db, ("q2",))
        assert isinstance(density_quotient_equiv(ra, rb), CertifiedBisimilar)

    def test_empty_trace_is_identity(self):
        d = point(pure(qcore.KET0, "q"), "disc(q)")
        assert config_partial_trace(d, ()) == d

    def test_shape_error_without_discard(self):
        d = point(pure(qcore.KET0, "q"), "c!q")
        with pytest.raises(ShapeError):
            config_partial_trace(d, ("q",))

    def test_traces_every_discard_it_names(self):
        rho = random_density(np.random.default_rng(0), ("q1", "q2", "o1"))
        d = Distribution.point(make_config(rho, P("disc(q1) || disc(q2) || c!o1")))
        ((c, _),) = config_partial_trace(d, ("q1", "q2")).items()
        assert c.proc == P("c!o1") and c.rho.register.names == ("o1",)
        assert c.rho.close_to(qcore.partial_trace(rho, ("q1", "q2")))
        d = Distribution.point(make_config(rho, P("disc(q1) || disc(q2) || disc(o1)")))
        ((c, _),) = config_partial_trace(d, ("q2", "o1", "q1")).items()
        assert c.proc == Nil() and c.rho.register.names == ()

    @pytest.mark.parametrize("text", ["disc(q1, o1) || c!q2", "disc(q1) || disc(q2, o1)"])
    def test_shape_error_when_discards_do_not_own_exactly(self, text):
        rho = random_density(np.random.default_rng(0), ("q1", "q2", "o1"))
        d = Distribution.point(make_config(rho, P(text)))
        with pytest.raises(ShapeError):
            config_partial_trace(d, ("q1", "q2"))


def _diamond_moves(d):
    from lqccs.osem import DIAMOND, lift_estep

    return [(i, s) for i, s in lift_estep(d, SIG) if i == DIAMOND and s.bot_mass() == 0]


class TestPartialTraceNecessary:
    def test_equal_states_consistent(self):
        st = pure(qcore.kron(qcore.KET0, qcore.KET0), "q", "o1")
        verdict, wit = partial_trace_necessary(
            Distribution.point(make_config(st, P("disc(q)"))),
            Distribution.point(make_config(st, P("disc(q)"))),
        )
        assert verdict == "consistent"

    def test_distinct_environment_refuted_and_replayable(self):
        l = pure(qcore.kron(qcore.KET0, qcore.KET0), "q", "o1")
        r = pure(qcore.kron(qcore.KET0, qcore.KET1), "q", "o1")
        dl = Distribution.point(make_config(l, P("disc(q)")))
        dr = Distribution.point(make_config(r, P("disc(q)")))
        verdict, wit = partial_trace_necessary(dl, dr)
        assert verdict == "refuted"
        assert replay_measurement_witness(dl, dr, wit, SIG)
        # the replay adds its measurement to a copy of the signature
        assert "Mwitness" not in SIG.measurements

    def test_superoperator_closure_keeps_certificates(self):
        anc = pure(qcore.KET0, "o1")
        dl = mixture(point(pure(qcore.KET0, "q").tensor(anc), "c!q"),
                     point(pure(qcore.KET1, "q").tensor(anc), "c!q"), 0.5)
        dr = mixture(point(pure(qcore.KETP, "q").tensor(anc), "c!q"),
                     point(pure(qcore.KETM, "q").tensor(anc), "c!q"), 0.5)
        assert isinstance(density_quotient_equiv(dl, dr), CertifiedBisimilar)
        for gate in ("H", "X"):
            nl, nr = superop_closure_pair(dl, dr, resolve_operator(gate, 1), ("o1",))
            assert isinstance(density_quotient_equiv(nl, nr), CertifiedBisimilar)


class TestPtag:
    def test_send_gains_a_tag(self):
        tagged = ptag_obs(P("c!q1"), "", None)
        assert tagged == Sum(P("c!q1"), Send("tag_", (NatLit(0),)))

    def test_discard_untouched(self):
        assert ptag_obs(P("disc(o1)"), "", None) == P("disc(o1)")

    def test_parallel_splits_keys(self):
        tagged = ptag_obs(Par(P("c?x.disc(x)"), P("k!0")), "", None)
        assert isinstance(tagged, Par)
        left, right = tagged.left, tagged.right
        assert Send("tag_l", (NatLit(0),)) in (left.left, left.right)
        assert Send("tag_r", (NatLit(0),)) in (right.left, right.right)

    def test_index_superscript_deepens_key(self):
        plain = ptag_obs(P("c!q1"), "", None)
        marked = ptag_obs(P("c!q1"), "", "")
        assert plain != marked
        assert Send("tag_i", (NatLit(0),)) in (marked.left, marked.right)

    def test_config_folds_observer_into_process(self):
        c = make_config(pure(qcore.KET0, "q"), P("c!q"), P("c?x.disc(x)"))
        t = ptag(c)
        assert t.obs == Nil()
        from lqccs.semantics import proc_barbs

        assert "tag_" in proc_barbs(t.proc)


class TestCrossValidation:
    def test_example_configurations(self):
        meas01 = "c?x.M01(x |> y).((if y = 0 then k!0 else k!1) || disc(x))"
        measpm = "c?x.Mpm(x |> y).((if y = 0 then l!true else l!false) || disc(x))"
        c = make_config(
            pure(qcore.KETP, "q"), P("c!q"), Par(P(meas01), P(measpm))
        )
        ok, mismatches = crossvalidate_semantics(c, depth=2, sig=SIG)
        assert ok, mismatches

    def test_nil_observer_matches_standard_steps(self):
        c = make_config(pure(qcore.KET0, "q"), P("H(q).M01(q |> x).(k!x || disc(q))"))
        ok, mismatches = crossvalidate_semantics(c, depth=2, sig=SIG)
        assert ok, mismatches

    def test_random_single_action_observers(self):
        bad = 0
        for seed in range(60):
            cfg, sig = random_config(seed, obs_nodes=4)
            ok, mismatches = crossvalidate_semantics(cfg, depth=1, sig=sig)
            if not ok:
                bad += 1
        assert bad == 0


class TestDistinguishAndWitnesses:
    def test_barb_mismatch_is_immediate(self):
        dl = point(pure(qcore.KET0, "q"), "k!0 || disc(q)")
        dr = point(pure(qcore.KET0, "q"), "l!true || disc(q)")
        v = distinguish(dl, dr, CONSTRAINED, SearchBounds(depth=2), SIG)
        assert isinstance(v, Distinguished)

    def test_witness_replays_standalone(self):
        sig = make_signature(("q",))
        left = point(pure(qcore.KET0, "q"), "H(q).c!q")
        right = point(pure(qcore.KET0, "q"), "X(q).c!q")
        bounds = SearchBounds(depth=5, ancillas=0)
        v = distinguish(left, right, CONSTRAINED, bounds, sig)
        assert isinstance(v, Distinguished)
        assert replay_witness(left, right, v.witness, CONSTRAINED, bounds, sig)

    def test_measurement_precursor_pair_certified(self):
        # measuring either basis before sending: the sent states share a
        # density operator, so the constrained game certifies the pair
        dl = point(pure(qcore.KETP, "q"), "M01(q |> x).c!q")
        dr = point(pure(qcore.KET0, "q"), "Mpm(q |> x).c!q")
        v = distinguish(dl, dr, CONSTRAINED, SearchBounds(depth=4, ancillas=0), SIG)
        assert isinstance(v, CertifiedBisimilar)
        v2 = distinguish(dl, dr, SATURATED, SearchBounds(depth=4, ancillas=0), SIG)
        assert isinstance(v2, Distinguished)

    def test_conservativity_on_certified_pair(self):
        # the constrained game never distinguishes a density-certified pair
        from lqccs.equiv import Stats, _search

        dl = mixture(point(pure(qcore.KET0, "q"), "c!q"), point(pure(qcore.KET1, "q"), "c!q"), 0.5)
        dr = mixture(point(pure(qcore.KETP, "q"), "c!q"), point(pure(qcore.KETM, "q"), "c!q"), 0.5)
        assert isinstance(density_quotient_equiv(dl, dr), CertifiedBisimilar)
        witness = _search(dl, dr, CONSTRAINED, SearchBounds(depth=4, ancillas=0), SIG, Stats())
        assert witness is None

    def test_raw_game_respects_state_mixtures(self):
        # for deterministic processes, mixing states then running must be
        # indistinguishable from running the aggregate state: the raw
        # search (certificate bypassed) must find nothing
        from lqccs.equiv import Stats, _search, syntactically_deterministic

        det_procs = [
            "c!q1",
            "M01(q1 |> x).c!q1",
            "Mpm(q1 |> x).c!q1",
            "M01(q1 |> x).(if x = 0 then c!q1 else d!q1)",
            "M01(q1 |> x).(k!x || disc(q1))",
        ]
        sig = make_signature(("q1",))
        for trial, src in enumerate(det_procs * 4):
            proc = parse_process(src, sig)
            assert syntactically_deterministic(proc)
            rnp = np.random.default_rng(trial)
            rho = random_density(rnp, ("q1",))
            sigma = random_density(rnp, ("q1",))
            p = float(rnp.uniform())
            dl = mixture(
                Distribution.point(make_config(rho, proc)),
                Distribution.point(make_config(sigma, proc)),
                p,
            )
            dr = Distribution.point(make_config(qcore.mix(rho, sigma, p), proc))
            w = _search(
                dl, dr, CONSTRAINED,
                SearchBounds(depth=4, ancillas=1, fresh_channels=2), sig, Stats(),
            )
            assert w is None, f"{src} wrongly distinguished at trial {trial}"

    def test_constrained_win_implies_saturated_win(self):
        sig, defs_src = make_signature(("q",)), (
            "SetPlus(q).M01(q |> x).(c!q + d!q)",
            "Set0(q).Mpm(q |> x).(c!q + d!q)",
        )
        st = pure(qcore.KET0, "q")
        dl = Distribution.point(make_config(st, parse_process(defs_src[0], sig)))
        dr = Distribution.point(make_config(st, parse_process(defs_src[1], sig)))
        hint = parse_process(
            "c?x.M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))"
            " + d?x.I(x).disc(x)",
            sig,
        )
        bounds = SearchBounds(depth=6, ancillas=0, hint_contexts=(hint,))
        v_cs = distinguish(dl, dr, CONSTRAINED, bounds, sig)
        assert isinstance(v_cs, Distinguished)
        v_sat = distinguish(dl, dr, SATURATED, bounds, sig)
        assert isinstance(v_sat, Distinguished)

    def test_non_decomposability_exhibit(self):
        # no split of the diagonal-basis mixture matches |0><0| c!q
        target = point(pure(qcore.KET0, "q"), "c!q")
        for half in (qcore.KETP, qcore.KETM):
            cand = point(pure(half, "q"), "c!q")
            verdict, wit = partial_trace_necessary(_with_env(cand), _with_env(target))
            assert verdict == "refuted"


def _with_env(d):
    # move the process qubit into an environment position by renaming the
    # distribution to one whose process owns nothing
    ((c, _),) = list(d.items())
    return Distribution.point(make_config(c.rho, P("nil")))


class TestVisibleQubitLottery:
    def test_sending_instead_of_discarding_is_observable(self):
        # when the lottery qubit is sent rather than discarded, the
        # outcome-correlated qubit state separates protocol from spec
        sig = make_signature(("q",))
        sig.channels["a"] = ("nat",)
        sig.channels["b"] = ("nat",)
        proto = parse_process(
            "H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || c!q)", sig
        )
        st = pure(qcore.KET0, "q")
        dl = Distribution.point(make_config(st, proto))
        dr = mixture(
            Distribution.point(make_config(st, parse_process("tau.tau.(a!1 || c!q)", sig))),
            Distribution.point(make_config(st, parse_process("tau.tau.(b!1 || c!q)", sig))),
            0.5,
        )
        hint = parse_process(
            "c?x.M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))", sig
        )
        bounds = SearchBounds(depth=5, ancillas=0, hint_contexts=(hint,))
        v = distinguish(dl, dr, CONSTRAINED, bounds, sig)
        assert isinstance(v, Distinguished)

    def test_discarding_variant_is_certified(self):
        # with the qubit discarded the same pair is equated after tracing
        sig = make_signature(("q",))
        sig.channels["a"] = ("nat",)
        sig.channels["b"] = ("nat",)
        st = pure(qcore.KET0, "q")
        proto = parse_process(
            "H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q))", sig
        )
        dl = Distribution.point(make_config(st, proto))
        run = advance_unique(dl, sig)
        final = config_partial_trace(run[-1], ("q",))
        spec = mixture(
            Distribution.point(make_config(_scalar_state(), parse_process("a!1", sig))),
            Distribution.point(make_config(_scalar_state(), parse_process("b!1", sig))),
            0.5,
        )
        assert isinstance(density_quotient_equiv(final, spec), CertifiedBisimilar)


def _scalar_state():
    return qcore.DensityMatrix((), np.eye(1, dtype=complex), check=False)


class TestCheckCandidate:
    def test_identity_pairs_pass(self):
        d = point(pure(qcore.KET0, "q"), "tau.disc(q)")
        v = check_candidate([(d, d)], CONSTRAINED, SearchBounds(), sig=SIG)
        assert isinstance(v, CertifiedBisimilar)

    def test_barb_violation_reported(self):
        dl = point(pure(qcore.KET0, "q"), "k!0 || disc(q)")
        dr = point(pure(qcore.KET0, "q"), "l!true || disc(q)")
        v = check_candidate([(dl, dr)], CONSTRAINED, SearchBounds(), sig=SIG)
        assert isinstance(v, Distinguished)

    def test_missing_successor_reported(self):
        # same barbs, different successors, successor pair not listed
        dl = point(pure(qcore.KET0, "q"), "tau.(k!0 || disc(q))")
        dr = point(pure(qcore.KET1, "q"), "tau.(k!0 || disc(q))")
        v = check_candidate([(dl, dr)], CONSTRAINED, SearchBounds(), sig=SIG)
        assert isinstance(v, InconclusiveAtBounds)
        assert "no match" in v.reason

    @staticmethod
    def _lottery(proc):
        """The quantum lottery against its specification, each process
        text parsed by `proc`."""
        ql = proc("H(q).M01(q |> x).((if x = 0 then k!0 else k!1) || disc(q))")
        mid = proc("M01(q |> x).((if x = 0 then k!0 else k!1) || disc(q))")
        k0s = pure(qcore.KET0, "q")
        k1s = pure(qcore.KET1, "q")
        kps = pure(qcore.KETP, "q")

        def half(s0, t0, s1, t1):
            return mixture(Distribution.point(make_config(s0, proc(t0))),
                           Distribution.point(make_config(s1, proc(t1))), 0.5)

        return [
            (Distribution.point(make_config(k0s, ql)),
             half(k0s, "tau.tau.k!0 || disc(q)", k0s, "tau.tau.k!1 || disc(q)")),
            (Distribution.point(make_config(kps, mid)),
             half(k0s, "tau.k!0 || disc(q)", k0s, "tau.k!1 || disc(q)")),
            (half(k0s, "k!0 || disc(q)", k1s, "k!1 || disc(q)"),
             half(k0s, "k!0 || disc(q)", k0s, "k!1 || disc(q)")),
            (Distribution.point(BOT), Distribution.point(BOT)),
        ]

    def test_quantum_lottery_relation(self):
        # the third pair shows the barbs k!0 and k!1, so a context can
        # receive on k; with k restricted in every process, none can
        v = check_candidate(self._lottery(P), CONSTRAINED, SearchBounds(), sig=SIG)
        assert isinstance(v, InconclusiveAtBounds)
        assert v.reason == "pair 2 is open to contexts"
        hidden = self._lottery(lambda text: P(f"({text}) \\ k"))
        v = check_candidate(hidden, CONSTRAINED, SearchBounds(), sig=SIG)
        assert isinstance(v, CertifiedBisimilar)

    def test_mixture_relation_needs_convex_hull(self):
        # the aggregate-state pair with a measuring observer: successors
        # decompose only inside the convex hull of the relation; a pair
        # that sends q on a free c is open to contexts
        obs_m = P("M01(o1 |> y).disc(o1)")
        obs_d = P("disc(o1)")
        anc_p = pure(qcore.KETP, "o1")
        anc0 = pure(qcore.KET0, "o1")
        anc1 = pure(qcore.KET1, "o1")
        rho0 = pure(qcore.KET0, "q")
        rho1 = pure(qcore.KET1, "q")

        def relation(send):
            def pair(anc, obs):
                mixed = Distribution.point(make_config(HALF_I.tensor(anc), send, obs))
                split = mixture(
                    Distribution.point(make_config(rho0.tensor(anc), send, obs)),
                    Distribution.point(make_config(rho1.tensor(anc), send, obs)),
                    0.5,
                )
                return (mixed, split)

            return [pair(anc_p, obs_m), pair(anc0, obs_d), pair(anc1, obs_d),
                    (Distribution.point(BOT), Distribution.point(BOT))]

        for upto_cv in (True, False):
            v = check_candidate(relation(P("c!q")), CONSTRAINED, SearchBounds(),
                                upto_cv=upto_cv, sig=SIG)
            assert isinstance(v, InconclusiveAtBounds)
            assert v.reason == "pair 0 is open to contexts"
        rel = relation(P("(c!q) \\ c"))
        with_cv = check_candidate(rel, CONSTRAINED, SearchBounds(), upto_cv=True, sig=SIG)
        assert isinstance(with_cv, CertifiedBisimilar)
        without = check_candidate(rel, CONSTRAINED, SearchBounds(), upto_cv=False, sig=SIG)
        assert isinstance(without, InconclusiveAtBounds)
        assert "no match" in without.reason

    @pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
    def test_pair_told_apart_by_a_context_is_not_certified(self, mode):
        # both sides wait on c, so they have no moves of their own and the
        # transfer conditions hold vacuously; a context that sends a0 on c
        # and measures what comes back on d tells H from I
        dl, dr, sig = _pair(GATE_PAIR_SRC, "L", "R")
        v = check_candidate([(dl, dr)], mode, SearchBounds(), sig=sig)
        assert isinstance(v, InconclusiveAtBounds)
        assert v.reason == "pair 0 is open to contexts"
        assert isinstance(distinguish(dl, dr, mode, SearchBounds(), sig), Distinguished)

    @staticmethod
    def _hull_relation(x, y1, y2):
        """(u, v), (x, y1), (x, y2) and the pairs of their next step, on q:
        u steps to x as a point and v measures |+> into (y1 + y2)/2, so
        that only the convex hull of the relation matches u's move."""
        sig = make_signature(("q",), chans=())
        sig.channels.update({c: (NAT,) for c in "abfg"})

        def at(ket, text):
            return Distribution.point(make_config(pure(ket, "q"), parse_process(text, sig)))

        k0, k1 = qcore.KET0, qcore.KET1
        u = at(k1, f"tau.({x('I')})")
        v = at(qcore.KETP, f"M01(q |> m).(if m = 0 then ({y1('X')}) else ({y2('Z')}))")
        rel = [(u, v), (at(k1, x("I")), at(k0, y1("X"))), (at(k1, x("I")), at(k1, y2("Z")))]
        for tail in ("(a!0 || disc(q))", "(b!0 || disc(q))"):
            rel += [(at(k1, f"I(q).{tail}"), at(k0, f"X(q).{tail}")),
                    (at(k1, f"I(q).{tail}"), at(k1, f"Z(q).{tail}"))]
        return rel, sig

    @pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
    def test_a_convex_hull_needs_one_move_per_index(self, mode):
        # x, y1 and y2 each choose between two branches; a choice made per
        # element takes y1's a-branch and y2's b-branch, which x, one
        # element, cannot match
        def choose(g):
            return f"tau.{g}(q).(a!0 || disc(q)) + tau.{g}(q).(b!0 || disc(q))"

        rel, sig = self._hull_relation(choose, choose, choose)
        v = check_candidate(rel, mode, SearchBounds(), upto_cv=True, sig=sig)
        assert isinstance(v, InconclusiveAtBounds)
        assert "convex hull" in v.reason
        assert isinstance(distinguish(*rel[0], mode, SearchBounds(), sig), Distinguished)

    def test_a_saturated_relation_is_not_closed_under_convex_hull(self):
        # with no choice in the processes, the constrained hull certifies;
        # in saturated mode a parallel tau.f!0 + tau.g!0 fires f beside y1
        # and g beside y2, which x, one element, cannot match
        def gate(g):
            return f"{g}(q).(a!0 || disc(q))"

        rel, sig = self._hull_relation(gate, gate, gate)
        v = check_candidate(rel, CONSTRAINED, SearchBounds(), upto_cv=True, sig=sig)
        assert isinstance(v, CertifiedBisimilar)
        v = check_candidate(rel, SATURATED, SearchBounds(), upto_cv=True, sig=sig)
        assert isinstance(v, InconclusiveAtBounds)
        assert "convex hull" in v.reason
        bounds = SearchBounds(hint_contexts=(parse_process("tau.f!0 + tau.g!0", sig),))
        assert isinstance(distinguish(*rel[0], SATURATED, bounds, sig), Distinguished)

    @pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
    def test_a_choice_cap_overrun_is_inconclusive(self, mode):
        d = point(pure(qcore.KET0, "q"), "tau.(k!0 || disc(q)) + tau.(k!1 || disc(q))")
        v = check_candidate([(d, d)], mode, SearchBounds(choice_cap=1), sig=SIG)
        assert isinstance(v, InconclusiveAtBounds)
        assert "exceed the cap 1" in v.reason


GATE_PAIR_SRC = """
channel c : qubit;
channel d : qubit;
qubit a0;
process L = c?x.H(x).d!x;
process R = c?x.I(x).d!x;
"""


@pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
def test_a_hint_on_an_owned_qubit_is_skipped(mode):
    # X(q).c!q cannot run beside disc(q), which owns q; the search skips
    # it and tells H from I with a frame on the free ancilla
    dl, dr, sig = _pair("channel c : qubit;\nchannel d : qubit;\nqubit q;\n"
                        "process L = c?x.H(x).d!x || disc(q);\n"
                        "process R = c?x.I(x).d!x || disc(q);\n", "L", "R")
    hint = parse_process("X(q).c!q", sig)
    bounds = SearchBounds(hint_contexts=(hint,))
    assert candidate_frames(dl, dr, mode, bounds, sig)[0] == hint
    v = distinguish(dl, dr, mode, bounds, sig)
    assert isinstance(v, Distinguished)
    assert v.witness.context not in (None, hint)


def _pair(src, left, right, state=""):
    from lqccs.cli import build_state
    from lqccs.parser import parse_program

    sig, defs = parse_program(src)
    rho = build_state(state, sig.qubits)
    return (Distribution.point(make_config(rho, defs[left])),
            Distribution.point(make_config(rho, defs[right])), sig)


# a gate before a measurement, as in tests/test_memo.py: Z before M01
# and X before Mpm commute with the measurement, so those pairs are
# never distinguished and the search tries every frame
PHASE_SRC = ("channel c : qubit;\nchannel d : qubit;\nchannel k : nat;\nqubit a0;\n"
             "process L = c?x.I(x).{1}(x |> y).d!x || k!0;\n"
             "process R = c?x.{0}(x).{1}(x |> y).d!x || k!0;\n")


@pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
def test_one_grammar_builds_its_frames_once(mode):
    # the Z and X pairs send, receive and leave a0 free alike, so they
    # share one tuple of frames; a hint context still comes first
    zl, zr, sig = _pair(PHASE_SRC.format("Z", "M01"), "L", "R")
    xl, xr, _ = _pair(PHASE_SRC.format("X", "M01"), "L", "R")
    frames = candidate_frames(zl, zr, mode, SearchBounds(), sig)
    assert frames and candidate_frames(xl, xr, mode, SearchBounds(), sig) is frames
    hint = parse_process("H(a0).c!a0", sig)
    hinted = SearchBounds(hint_contexts=(hint,))
    with_hint = candidate_frames(xl, xr, mode, hinted, sig)
    assert candidate_frames(zl, zr, mode, hinted, sig) is with_hint
    assert with_hint[0] == hint and set(with_hint) == set(frames) | {hint}


@pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
def test_a_search_lifts_each_distribution_once(mode, monkeypatch):
    dl, dr, sig = _pair(PHASE_SRC.format("X", "Mpm"), "L", "R")
    counts = Counter()
    lifted_moves = equiv._lifted_moves

    def counting(dist, *args):
        counts[dist] += 1
        return lifted_moves(dist, *args)

    monkeypatch.setattr(equiv, "_lifted_moves", counting)
    v = distinguish(dl, dr, mode, SearchBounds(), sig)
    assert v.verdict == "inconclusive-at-bounds"
    assert len(counts) > 100 and max(counts.values()) == 1


@pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
def test_a_search_leaves_no_table_to_the_cyclic_collector(mode):
    # attack and _attack_with refer to each other; the search empties its
    # pair memo and moves table when it returns, and the term walkers are
    # module-level functions, so only a few objects are left for the
    # collector, not the thousands the tables hold nor a cycle per walk
    dl, dr, sig = _pair(PHASE_SRC.format("Z", "M01"), "L", "R")
    gc.collect()
    gc.disable()
    try:
        distinguish(dl, dr, mode, SearchBounds(), sig)
        left = gc.collect()
    finally:
        gc.enable()
    assert left < 50


class TestOneCertificatePath:
    """`distinguish` (both modes), `certify` and the inner nodes of the
    search ask `_certificate` which certificate ends the game, after a
    forced run that stops wherever a context can act."""

    def test_reception_stops_the_forced_run(self):
        # tau is the only move until a context sends on c, and c!0 tells
        # the two continuations apart
        dl, dr, sig = _pair(
            "channel c : nat;\nchannel d : nat;\nqubit q;\n"
            "process L = tau.disc(q) + c?x.(d!x || disc(q));\n"
            "process R = tau.disc(q) + c?x.disc(q);\n", "L", "R")
        assert isinstance(certify(dl, dr, SearchBounds(), sig), InconclusiveAtBounds)
        bounds = SearchBounds(ancillas=0)
        for mode in (SATURATED, CONSTRAINED):
            v = distinguish(dl, dr, mode, bounds, sig)
            assert isinstance(v, Distinguished), mode
            assert replay_witness(dl, dr, v.witness, mode, bounds, sig)

    def test_forced_gates_reach_equal_distributions(self):
        dl, dr, sig = _pair(
            "qubit q;\nprocess L = X(q).X(q).disc(q);\nprocess R = I(q).I(q).disc(q);\n",
            "L", "R")
        for mode in (SATURATED, CONSTRAINED):
            v = distinguish(dl, dr, mode, SearchBounds(), sig)
            assert isinstance(v, CertifiedBisimilar), mode
            assert v.certificate == ("equal-distributions", None)

    def test_saturated_run_steps_only_from_points(self):
        # after the left side measures, a parallel tau.f!0 can fire beside
        # one outcome's tau only; the right side, still a point, cannot
        # match that, while an observer has no tau to try it with
        dl, dr, sig = _pair(
            "channel f : nat;\nqubit q;\n"
            "process L = M01(q |> x).tau.disc(q);\n"
            "process R = tau.M01(q |> x).disc(q);\n", "L", "R", "ketplus")
        bounds = SearchBounds(ancillas=0, hint_contexts=(parse_process("tau.f!0", sig),))
        v = distinguish(dl, dr, SATURATED, bounds, sig)
        assert isinstance(v, Distinguished)
        assert replay_witness(dl, dr, v.witness, SATURATED, bounds, sig)
        v = distinguish(dl, dr, CONSTRAINED, SearchBounds(), sig)
        assert isinstance(v, CertifiedBisimilar)
        assert v.certificate == ("equal-distributions", None)

    def test_saturated_search_does_not_expand_equal_pairs(self, monkeypatch):
        from lqccs import equiv

        # both sides reach <|0>, tau.disc(q)> in one step
        src = ("qubit q;\nprocess L = I(q).tau.disc(q);\nprocess R = tau.tau.disc(q);\n"
               "process S = tau.disc(q);\n")
        dl, dr, sig = _pair(src, "L", "R")
        common, _, _ = _pair(src, "S", "S")
        expanded = []
        lifted = equiv._lifted_moves

        def record(dist, mode, sig, cap):
            expanded.append(dist)
            return lifted(dist, mode, sig, cap)

        monkeypatch.setattr(equiv, "_lifted_moves", record)
        bounds = SearchBounds(depth=3, ancillas=0)
        assert equiv._search(dl, dr, SATURATED, bounds, sig, equiv.Stats()) is None
        assert dl in expanded and dr in expanded
        assert common not in expanded


class TestInputCertificate:
    """`_certify` feeds a pair of qubit receptions half of a Bell pair
    and certifies equality after the same number of forced steps."""

    SRC = ("channel c : qubit;\nchannel d : qubit;\nchannel f : nat;\nqubit a0;\n"
           "process L = {};\nprocess R = {};\n")

    def pair(self, left, right):
        return _pair(self.SRC.format(left, right), "L", "R")

    @pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
    def test_a_phase_the_measurement_erases_is_certified(self, mode):
        dl, dr, sig = self.pair("c?x.I(x).M01(x |> y).d!x", "c?x.Z(x).M01(x |> y).d!x")
        v = distinguish(dl, dr, mode, SearchBounds(), sig)
        assert isinstance(v, CertifiedBisimilar)
        assert v.certificate == ("choi-input", "c", 2)
        assert v.stats.contexts_tried == 0 and v.stats.states_visited == 0

    @pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
    def test_the_input_is_half_of_a_bell_pair(self, mode):
        # fed |0>, the sides are equal after the gate; fed half of a Bell
        # pair they are not, and the search tells them apart
        dl, dr, sig = self.pair("c?x.Z(x).d!x", "c?x.I(x).d!x")
        assert isinstance(certify(dl, dr, SearchBounds(), sig), InconclusiveAtBounds)
        v = distinguish(dl, dr, mode, SearchBounds(), sig)
        assert isinstance(v, Distinguished)

    @pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
    def test_the_two_sides_take_the_same_number_of_steps(self, mode):
        # equal instruments, reached in three steps on the left and two on
        # the right: an observer of d sees the right side's barb first
        dl, dr, sig = self.pair("c?x.I(x).I(x).M01(x |> y).d!x", "c?x.Z(x).M01(x |> y).d!x")
        assert isinstance(certify(dl, dr, SearchBounds(), sig), InconclusiveAtBounds)
        assert isinstance(distinguish(dl, dr, mode, SearchBounds(), sig), Distinguished)

    def test_a_saturated_run_steps_only_from_pure_states(self):
        # the left side resets the input before the step that both sides
        # share; a context that keeps the other half of a Bell pair,
        # measures and resets it merges the left elements only, and then
        # fires its tau beside the right side's step in one element
        dl, dr, sig = self.pair("c?x.Set0(x).Set0(x).d!x", "c?x.I(x).Set0(x).d!x")
        v = distinguish(dl, dr, CONSTRAINED, SearchBounds(), sig)
        assert isinstance(v, CertifiedBisimilar)
        assert v.certificate == ("choi-input", "c", 2)
        sig.qubits += ("anc0",)
        frame = parse_process("SetPhiP(a0, anc0).(c!a0 || M01(anc0 |> y).Set0(anc0).tau.f!0)", sig)
        bounds = SearchBounds(hint_contexts=(frame,))
        v = distinguish(dl, dr, SATURATED, bounds, sig)
        assert isinstance(v, Distinguished)


def test_input_certified_pairs_have_no_witness(monkeypatch):
    # c?x.P against c?x.Q, where P and Q are most often a gate before a
    # shared measurement and tail: whenever the input certificate
    # certifies, the equality-only search finds no witness, and some of
    # the certified pairs are unequal
    from lqccs.equiv import _certify

    commuting = {"M01": ("I", "Z"), "Mpm": ("I", "X")}
    certified = []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=100_000), st.sampled_from((SATURATED, CONSTRAINED)))
    def property_(seed, mode):
        gen = TermGen(seed)
        rng = gen.rng
        meas = rng.choice(sorted(commuting))
        var, out = gen.fresh("x"), gen.fresh("m")
        tail = gen.process(frozenset({var}), {var: QUBIT, out: NAT}, 2)

        def side():
            x = Var(var)
            if rng.random() < 0.2:
                body = gen.process(frozenset({var}), {var: QUBIT}, 3)
            else:
                gate = rng.choice(commuting[meas] if rng.random() < 0.8 else ("H", "X", "Z"))
                body = ApplyOp(gate, (x,), Measure(meas, (x,), out, tail))
            return Recv("c", (var,), body)

        vec = np.random.default_rng(seed).normal(size=2) + 1j
        rho = qcore.pure_state(vec, ("o1",))
        dl, dr = (Distribution.point(make_config(rho, side())) for _ in range(2))
        cert = _certify(dl, dr, mode, SearchBounds(), gen.sig)
        if cert is None or cert[0] != "choi-input":
            return
        # equality is tried first, so the two sides differ
        certified.append((seed, mode))
        assert _equality_only_search(dl, dr, mode, gen.sig, monkeypatch) is None

    property_()
    assert certified


def _hjw_ensembles(rho, rng):
    """Two ensembles of the density matrix `rho`, as (probability, ket)
    pairs: its eigen-decomposition, and that decomposition mixed by a
    random unitary (Hughston, Jozsa and Wootters, Phys. Lett. A 183(1),
    1993): with e_i = sqrt(w_i) v_i, the kets sum_i U_ji e_i, normalized."""
    w, v = np.linalg.eigh(rho)
    eigen = v * np.sqrt(np.clip(w, 0.0, None))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    out = []
    for vecs in (eigen, eigen @ u.T):
        norms = np.linalg.norm(vecs, axis=0)
        out.append([(n ** 2, vecs[:, j] / n) for j, n in enumerate(norms) if n > 1e-6])
    return out


def test_density_quotient_certified_pairs_have_no_witness(monkeypatch):
    # one syntactically deterministic process on q1 over two ensembles of
    # one random state: whenever the density quotient certifies, the
    # equality-only constrained search finds no witness; the saturated
    # search, which the certificate does not cover, tells some apart
    seen = {"certified": 0, "told apart saturated": 0}

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=100_000))
    def property_(seed):
        gen = TermGen(seed)
        proc = gen.process(frozenset({"q1"}), {}, 2)
        if not equiv.syntactically_deterministic(proc):
            return
        rng = np.random.default_rng(seed)
        rho = random_density(rng, ("q1",))
        dl, dr = (Distribution([(make_config(qcore.pure_state(ket, ("q1",)), proc), p)
                                for p, ket in ensemble])
                  for ensemble in _hjw_ensembles(rho.mat, rng))
        if not isinstance(density_quotient_equiv(dl, dr, sig=gen.sig), CertifiedBisimilar):
            return
        seen["certified"] += 1
        assert _equality_only_search(dl, dr, CONSTRAINED, gen.sig, monkeypatch) is None
        witness = _equality_only_search(dl, dr, SATURATED, gen.sig, monkeypatch)
        seen["told apart saturated"] += witness is not None

    property_()
    assert seen["certified"] and seen["told apart saturated"], seen


def test_equal_distribution_certified_pairs_have_no_witness(monkeypatch):
    # a generated process and observer over a random state of q1 and o1,
    # against the same over that state moved by 1e-10, well below
    # HASH_DECIMALS: whenever the two sides are equal, so that equality
    # certifies them, the equality-only search finds no witness in either
    # mode
    certified = []

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(min_value=0, max_value=100_000))
    def property_(seed):
        cfg, sig = random_config(seed)
        other = random_density(np.random.default_rng(seed + 1), cfg.rho.register.names)
        moved = qcore.DensityMatrix(cfg.rho.register.names,
                                    (1 - 1e-10) * cfg.rho.mat + 1e-10 * other.mat)
        dl, dr = (Distribution.point(make_config(rho, cfg.proc, cfg.obs)) for rho in (cfg.rho, moved))
        if equiv._certificate(dl, dr, SATURATED, SearchBounds(), sig) is None:
            return
        certified.append(seed)
        for mode in (CONSTRAINED, SATURATED):
            assert _equality_only_search(dl, dr, mode, sig, monkeypatch) is None

    property_()
    assert certified


@pytest.mark.parametrize("mode", (SATURATED, CONSTRAINED))
def test_alpha_equivalent_restrictions_are_not_distinguished(mode):
    # R renames L's restricted d to f. In L, d is also free in d!5 beside
    # the restriction, so its scope extends only once d is renamed apart;
    # then e!3 reaches e?y.d!y on both sides
    dl, dr, sig = _pair(
        "channel d : nat;\nchannel e : nat;\nchannel f : nat;\nqubit q;\n"
        "process L = ((d?w.nil || e?y.d!y) \\ d || d!5) || e!3;\n"
        "process R = ((f?w.nil || e?y.f!y) \\ f || d!5) || e!3;\n", "L", "R")
    v = distinguish(dl, dr, mode, SearchBounds(ancillas=0), sig)
    assert not isinstance(v, Distinguished)


def _restricted_d_pair():
    return _pair(
        "channel d : nat;\nchannel e : nat;\nqubit q;\n"
        "process L = (d?w.nil || e?y.d!y) \\ d || disc(q);\n"
        "process R = e?y.tau.nil || disc(q);\n", "L", "R")


def test_a_frame_on_a_restricted_channel_does_not_open_it():
    # a frame on d could not reach L's bound d: beside d!0 || e!0 it is
    # renamed apart, so e?y.d!y still takes e!0
    dl, dr, sig = _restricted_d_pair()
    v = distinguish(dl, dr, SATURATED, SearchBounds(ancillas=0), sig)
    assert not isinstance(v, Distinguished)


@pytest.mark.parametrize("mode", (SATURATED, CONSTRAINED))
def test_no_candidate_frame_names_a_restricted_channel(mode):
    # the frames are e!0, e!1 and e!0 || e!1; no context reaches the bound d
    dl, dr, sig = _restricted_d_pair()
    frames = candidate_frames(dl, dr, mode, SearchBounds(ancillas=0), sig)
    assert frames and not any("d" in channels(f) for f in frames)


def _renamed(t, old, new):
    """t with its free channel `old` renamed to `new`."""
    if old not in free_channels(t):
        return t
    t = map_term(t, lambda c, bound: _renamed(c, old, new), lambda e: e)
    if isinstance(t, Send) and t.chan == old:
        return Send(new, t.payload)
    return Recv(new, t.vars, t.cont) if isinstance(t, Recv) and t.chan == old else t


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from((SATURATED, CONSTRAINED)),
       st.booleans())
def test_renaming_a_bound_channel_is_never_distinguished(seed, mode, inner):
    # (p || q \ ch1) \ ch2 || r against its copy with ch1 (inner) or ch2
    # renamed to a declared channel that no generated term names
    gen = TermGen(seed, make_signature(chans="ck"))
    term = gen.restricted_par((frozenset({"q1"}), frozenset({"q2"}), frozenset()))
    outer, r = term.left, term.right
    p, blob = outer.body.left, outer.body.right

    def alpha(t):
        return Restrict(_renamed(t.body, t.chan, t.chan + "2"), t.chan + "2")

    copy = Par(Restrict(Par(p, alpha(blob)), outer.chan) if inner else alpha(outer), r)
    sig = make_signature(("q1", "q2"))
    sig.channels.update({"c2": sig.channels["c"], "k2": sig.channels["k"]})
    rho = random_density(np.random.default_rng(seed), ("q1", "q2"))
    dl, dr = (Distribution.point(make_config(rho, t)) for t in (term, copy))
    bounds = SearchBounds(context_size=6, depth=3, ancillas=0)
    assert not isinstance(distinguish(dl, dr, mode, bounds, sig), Distinguished)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000))
def test_certified_reception_pairs_have_no_witness(seed):
    # tau.disc(q1) + G1 against tau.disc(q1) + G2, where G1 and G2 are
    # receptions on k that own q1: whenever certify certifies, the search
    # on the padded pair must find no witness
    from lqccs.equiv import Stats, _search, pad_ancillas

    gen = TermGen(seed)
    owned = frozenset({"q1"})

    def side():
        var = gen.fresh("x")
        guard = Recv("k", (var,), gen.process(owned, {var: NAT}, 2))
        return Sum(Tau(Nil((QubitLit("q1"),))), guard)

    rho = random_density(np.random.default_rng(seed), ("q1",))
    dl, dr = (Distribution.point(make_config(rho, side())) for _ in range(2))
    if not isinstance(certify(dl, dr, SearchBounds(), gen.sig), CertifiedBisimilar):
        return
    bounds = SearchBounds(context_size=6, depth=3, ancillas=1)
    pl, pr = (pad_ancillas(d, bounds.ancillas, {"q1"}) for d in (dl, dr))
    assert _search(pl, pr, CONSTRAINED, bounds, gen.sig, Stats()) is None


# bounds of the certificate audits' search, which ends only at equal pairs
AUDIT_BOUNDS = SearchBounds(context_size=8, depth=4, ancillas=1)


def _equality_only_search(dl, dr, mode, sig, monkeypatch):
    """The attacker's search at AUDIT_BOUNDS from the pair padded with its
    ancilla, with `_certificate` cut down to equality: a witness it finds
    refutes any other certificate of the pair."""
    from lqccs.equiv import Stats, _all_names, _search, pad_ancillas

    taken = _all_names(dl) | _all_names(dr)
    pl, pr = (pad_ancillas(d, AUDIT_BOUNDS.ancillas, taken) for d in (dl, dr))
    with monkeypatch.context() as patched:
        patched.setattr(equiv, "_certificate",
                        lambda a, b, *_: ("equal-distributions", None) if a == b else None)
        return _search(pl, pr, mode, AUDIT_BOUNDS, sig, Stats())


def _lockstep_closure(dl, dr, mode, sig, limit=24):
    """The unequal pairs reachable from (dl, dr) by one move of each side
    at the same index, or None past `limit` pairs or the choice cap."""
    rel, todo = [], [(dl, dr)]
    while todo:
        a, b = todo.pop()
        if a == b or (a, b) in rel:
            continue
        if len(rel) == limit:
            return None
        rel.append((a, b))
        try:
            moves_a, moves_b = (equiv._lifted_moves(d, mode, sig, DEFAULT_CHOICE_CAP)
                                for d in (a, b))
        except ChoiceExplosion:
            return None
        todo += [(x, y) for i, x in moves_a for j, y in moves_b if i == j]
    return rel


def test_check_candidate_never_certifies_a_pair_distinguish_tells_apart(monkeypatch):
    # generated pairs over one random state of q1, in both modes. Three
    # shapes are open to contexts: two processes, a process against its
    # mirror image, or two receptions on k that wait for a context and go
    # on at most one gate apart; no unequal pair open to contexts is
    # certified. The fourth is closed: two processes with every declared
    # channel restricted, checked as the lockstep closure of the pair.
    # Every unequal pair of a certified relation survives distinguish at
    # its default bounds and the equality-only search.
    bounds = SearchBounds(context_size=6, depth=3, ancillas=0)
    seen = {"certified unequal": 0, "open unequal": 0}

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(st.integers(min_value=0, max_value=100_000), st.sampled_from((SATURATED, CONSTRAINED)))
    def property_(seed, mode):
        gen = TermGen(seed)
        owned = frozenset({"q1"})
        shape = gen.rng.randrange(4)
        if shape == 2:
            var, tail = gen.fresh("x"), gen.process(owned, {}, 2)
            if gen.rng.random() < 0.5:
                tail = Send("c", (QubitLit("q1"),))
            p, q = (Recv("k", (var,), ApplyOp(g, (QubitLit("q1"),), tail) if g else tail)
                    for g in gen.rng.choices(("", "I", "Z", "X", "H"), k=2))
        else:
            p = gen.process(owned, {}, 2)
            q = mirror(p) if shape == 1 else gen.process(owned, {}, 2)
        if shape == 3:
            p, q = (functools.reduce(Restrict, sorted(gen.sig.channels), t) for t in (p, q))
        rho = random_density(np.random.default_rng(seed), ("q1",))
        dl, dr = (Distribution.point(make_config(rho, t)) for t in (p, q))
        rel = _lockstep_closure(dl, dr, mode, gen.sig) if shape == 3 else [(dl, dr)]
        if not rel:
            return
        v = check_candidate(rel, mode, bounds, sig=gen.sig)
        if shape < 3 and dl != dr and not all(equiv._closed_to_contexts(d, mode) for d in (dl, dr)):
            seen["open unequal"] += 1
            assert not isinstance(v, CertifiedBisimilar)
        if isinstance(v, CertifiedBisimilar):
            for a, b in rel:
                seen["certified unequal"] += a != b
                assert not isinstance(distinguish(a, b, mode, SearchBounds(), gen.sig),
                                      Distinguished)
                assert _equality_only_search(a, b, mode, gen.sig, monkeypatch) is None

    property_()
    assert seen["certified unequal"] and seen["open unequal"], seen


@pytest.mark.parametrize("mode", [CONSTRAINED, SATURATED])
def test_a_gate_after_a_reception_is_not_certified(mode):
    # k?x.H(q1).c!q1 against k?x.I(q1).c!q1 has no move of its own, so its
    # transfer conditions hold vacuously; it waits on the free k, and a
    # context that sends on k and measures what comes back on c tells it
    # apart
    sig = make_signature()
    rho = random_density(np.random.default_rng(13), ("q1",))
    dl, dr = (Distribution.point(make_config(rho, parse_process(f"k?x.{g}(q1).c!q1", sig)))
              for g in "HI")
    v = check_candidate([(dl, dr)], mode, SearchBounds(context_size=6, depth=3, ancillas=0),
                        sig=sig)
    assert not isinstance(v, CertifiedBisimilar)
    assert isinstance(distinguish(dl, dr, mode, SearchBounds(), sig), Distinguished)


def _branch_pair():
    """`tau.a!0` against `tau.a!0 + tau.b!0`: only the right side can reach
    the b barb, so the witness attacks from the right."""
    sig = make_signature(("q",))
    sig.channels["a"] = (NAT,)
    sig.channels["b"] = (NAT,)
    st = pure(qcore.KET0, "q")
    dl, dr = (Distribution.point(make_config(st, parse_process(text, sig)))
              for text in ("tau.a!0 || disc(q)", "(tau.a!0 + tau.b!0) || disc(q)"))
    return sig, dl, dr


@pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
def test_a_right_side_witness_replays(mode):
    sig, dl, dr = _branch_pair()
    bounds = SearchBounds(ancillas=0)
    v = distinguish(dl, dr, mode, bounds, sig)
    assert isinstance(v, Distinguished)
    assert v.witness.side == "right" and len(v.witness.refutations) == 1
    assert replay_witness(dl, dr, v.witness, mode, bounds, sig)


@pytest.mark.parametrize("mode", [SATURATED, CONSTRAINED])
def test_a_tampered_witness_does_not_replay(mode):
    sig, dl, dr = _branch_pair()
    bounds = SearchBounds(ancillas=0)
    w = distinguish(dl, dr, mode, bounds, sig).witness
    (resp, leaf), = w.refutations
    assert isinstance(leaf, BarbLeaf)
    swapped = dataclasses.replace(leaf, p_left=leaf.p_right, p_right=leaf.p_left)
    for tampered in (
        dataclasses.replace(w, refutations=((resp, swapped),)),  # the masses it prints are wrong
        dataclasses.replace(w, move=Distribution.point(BOT)),  # no side can make this move
        dataclasses.replace(w, context=P("disc(q)")),  # q is owned: the context does not type
        dataclasses.replace(w, side="left"),
        object(),
    ):
        assert not replay_witness(dl, dr, tampered, mode, bounds, sig)


class TestAdvanceUnique:
    """`advance_unique` follows the one lifted genuine move: a deadlock is
    never a move of its own, but an element without the move, beside one
    that has it, goes to BOT."""

    def test_a_stuck_point_does_not_move(self):
        d = point(pure(qcore.KET0, "q"), "k?x.disc(q)")
        assert advance_unique(d, SIG) == [d]

    def test_a_stuck_element_goes_to_bot_beside_a_moving_one(self):
        st = pure(qcore.KET0, "q")
        d = mixture(point(st, "k?x.disc(q)"), point(st, "tau.k!0 || disc(q)"), 0.5)
        run = advance_unique(d, SIG)
        assert len(run) == 2
        assert abs(run[-1].bot_mass() - 0.5) < 1e-9

    def test_an_observer_only_communication_is_followed(self):
        run = advance_unique(point(pure(qcore.KET0, "q"), "k?x.disc(q)", "k!1"), SIG)
        assert len(run) == 2
        ((c, _),) = run[-1].items()
        assert c.proc == P("disc(q)") and c.obs == Nil()
