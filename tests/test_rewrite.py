import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature
from lqccs import rewrite
from lqccs.errors import EvalError, QubitCaptureError
from lqccs.parser import parse_process, pretty
from lqccs.rewrite import (
    _rename_channel,
    congruent,
    eval_expr,
    normalize,
    normalize_observer,
    substitute,
)
from lqccs.syntax import (NIL, BinOp, BoolLit, NatLit, Par, QubitLit, Recv, Restrict, Send, Sum,
                          Tau, Var, channels, free_channels, par_all)


def P(text):
    return parse_process(text, make_signature())


def normalize_afresh(t):
    """The normal form of `t` computed from scratch: the body of `normalize`
    with its recursion patched to itself, so neither a mark nor the cache
    is read. `normalize(n) == n` holds by construction on a marked n; this
    is the normalizer that idempotence is tested against."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "normalize", rewrite._normal_form)
        return rewrite._normal_form(t)


class TestEval:
    def test_literal_comparison(self):
        assert eval_expr(BinOp("=", NatLit(1), NatLit(0))) is False

    def test_digit_equality_formula(self):
        # (1-b)(1-b') + bb' with b = b' = 1
        b, bp = NatLit(1), NatLit(1)
        e = BinOp(
            "+",
            BinOp("*", BinOp("-", NatLit(1), b), BinOp("-", NatLit(1), bp)),
            BinOp("*", b, bp),
        )
        assert eval_expr(e) == 1

    def test_env_lookup_and_comparison(self):
        assert eval_expr(BinOp("<=", Var("x"), NatLit(2)), {"x": 3}) is False

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            eval_expr(Var("nope"))

    def test_type_mismatch(self):
        with pytest.raises(EvalError):
            eval_expr(BinOp("and", NatLit(1), BoolLit(True)))


class TestNormalize:
    def test_ite_on_literals(self):
        assert normalize(P("if 1 = 0 then k!0 else k!1")) == P("k!1")

    def test_parallel_unit(self):
        assert normalize(P("c!q1 || nil")) == normalize(P("c!q1"))

    def test_parallel_commutes(self):
        assert congruent(P("c!q1 || disc(q2)"), P("disc(q2) || c!q1"))

    def test_sum_commutes_and_drops_empty_nil(self):
        assert congruent(P("k!0 + k!1"), P("k!1 + k!0"))
        assert congruent(P("k!0 + nil"), P("k!0"))

    def test_sum_unit_keeps_discards(self):
        # dropping a non-empty discard would change the typing
        assert not congruent(P("k!0 + disc(q1)"), P("k!0"))

    def test_discard_tuple_is_a_set(self):
        assert congruent(P("disc(q1, q2)"), P("disc(q2, q1)"))

    def test_restriction_pushes_past_unrelated(self):
        t = normalize(P("(c!q1 || k!0 || k?x.nil) \\ k"))
        assert t == normalize(Par(P("(k!0 || k?x.nil) \\ k"), P("c!q1")))

    def test_unused_restriction_dropped(self):
        assert congruent(P("c!q1 \\ k"), P("c!q1"))
        assert congruent(P("disc(q1) \\ k"), P("disc(q1)"))

    def test_restriction_order_irrelevant(self):
        a = P("(k!0 || k?x.l!true || l?y.nil) \\ k \\ l")
        b = P("(k!0 || k?x.l!true || l?y.nil) \\ l \\ k")
        assert congruent(a, b)

    def test_tau_is_not_erased(self):
        assert not congruent(P("tau.k!0"), P("k!0"))

    def test_closed_expressions_evaluate(self):
        assert normalize(P("k!(1 + 2)")) == P("k!3")

    def test_idempotent_on_generated(self):
        sig = make_signature()
        for seed in range(150):
            gen = TermGen(seed, sig)
            t = gen.process(frozenset({"q1", "q2"}), {}, 4)
            n = normalize(t)
            assert normalize_afresh(n) is n

    def test_normal_form_of_a_clashing_restriction_is_a_fixed_point(self):
        # the inner `\\ b` hides the b of `b!0` beside it, so its scope
        # extends over `b!0` only under a fresh name
        n = normalize(P("(a?x.b!1 \\ b || b!0) \\ a"))
        assert normalize_afresh(n) is n

    def test_a_renamed_body_is_sorted_again(self):
        # b clashes with the free b of b?x.nil and b#0 is taken, so b becomes
        # b#1, which sorts after the b#0!2 that b!1 sorted before
        body = Tau(Par(Send("b", (NatLit(1),)), Send("b#0", (NatLit(2),))))
        t = Restrict(Par(Restrict(body, "b"), Par(P("b?x.nil"), Recv("b#0", ("y",), NIL))), "b#0")
        n = normalize(t)
        assert pretty(n) == "(b#0?y.nil || tau.(b#0!2 || b#1!1)) \\ b#0 \\ b#1 || b?x.nil"
        assert normalize_afresh(n) is n

    def test_a_fresh_name_avoids_bound_channels(self):
        # b#0 is bound inside the body, so renaming b to b#0 would let b!1
        # reach the b#0 reception it cannot reach; the unused `\\ k` only
        # makes normalize extend the scope of `\\ b`
        inner = Restrict(Par(Send("b", (NatLit(1),)), Recv("b#0", ("y",), NIL)), "b#0")
        n = normalize(Restrict(Par(Restrict(Tau(inner), "b"), P("b?x.nil")), "k"))
        assert pretty(n) == "b?x.nil || tau.(b#0?y.nil \\ b#0 || b#1!1) \\ b#1"

    def test_a_chain_of_restrictions_is_one_set(self):
        # k#0 is restricted outside k but named by no component, so it binds
        # nothing: the k that clashes with k?x.c!q1 is renamed against the
        # components' channels only, so to k#0 in either order
        p = P("k!6 \\ k || k?x.c!q1")
        a, b = Restrict(Restrict(p, "k"), "k#0"), Restrict(Restrict(p, "k#0"), "k")
        assert congruent(a, b)
        assert pretty(normalize(a)) == "k#0!6 \\ k#0 || k?x.c!q1 \\ k"

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_reordering_a_chain_of_restrictions_keeps_congruence(self, seed):
        # eight terms: one to three generated components, some channels
        # renamed to a `#` name and some under a restriction of their own,
        # below a chain of two to four restrictions over c, k and `#` names,
        # each against the same chain in a shuffled order
        names = ("c", "k", "c#0", "k#0", "k#1")
        gen = TermGen(seed, make_signature(chans="ck"))
        rng = gen.rng
        for _ in range(8):
            comps = []
            for _ in range(rng.randrange(1, 4)):
                t = gen.process(frozenset(), {}, rng.randrange(3))
                new = rng.choice(names[2:])
                if rng.random() < 0.3 and new not in channels(t):
                    t = _rename_channel(t, new[0], new)
                if rng.random() < 0.5:
                    t = Restrict(t, rng.choice(names))
                comps.append(t)
            chain = rng.sample(names, rng.randrange(2, 5))
            terms = []
            for order in (chain, rng.sample(chain, len(chain))):
                term = par_all(comps)
                for c in order:
                    term = Restrict(term, c)
                terms.append(term)
            assert congruent(*terms), [pretty(t) for t in terms]

    def test_a_parallel_composition_closes_scopes_as_a_restriction_does(self):
        # a fresh name chosen beneath a parallel composition sees the outer
        # chain, and a plain Par extends the scope of a restricted component
        # as an unused restriction around it does
        p = P("k!6 \\ k || k?x.c!q1")
        disc = P("disc(q2)")
        assert congruent(Restrict(Par(disc, Restrict(p, "k")), "k#0"),
                         Restrict(Par(disc, Restrict(p, "k#0")), "k"))
        q = P("k!1 || (k?x.k!x) \\ k")
        assert congruent(q, Restrict(q, "c"))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_a_restriction_on_a_channel_not_free_is_dropped(self, seed):
        # P \ ch ≡ P for twelve generated (p || q \ ch1) \ ch2 || r terms P
        # and each ch of c, k, c#0 and k#0 not free in P
        gen = TermGen(seed, make_signature(chans="ck"))
        for _ in range(12):
            p = gen.restricted_par((frozenset({"q1"}), frozenset({"q2"}), frozenset()))
            for ch in ("c", "k", "c#0", "k#0"):
                if ch not in free_channels(p):
                    assert congruent(Restrict(p, ch), p), (pretty(p), ch)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_idempotent_on_clashing_restrictions(self, seed):
        # restrictions over c and k only, so a restricted channel is often
        # free beside its restriction or restricted again around it
        gen = TermGen(seed, make_signature(chans="ck"))
        for _ in range(16):
            n = normalize(gen.restricted_par((frozenset({"q1"}), frozenset({"q2"}), frozenset())))
            assert normalize_afresh(n) is n, pretty(n)

    def test_congruence_rule_instances(self):
        sig = make_signature()
        for seed in range(60):
            gen = TermGen(seed, sig)
            p = gen.process(frozenset({"q1"}), {}, 2)
            q = gen.process(frozenset({"q2"}), {}, 2)
            assert congruent(Par(p, q), Par(q, p))
            assert congruent(Par(p, P("nil")), p)
            g1 = gen._guard(frozenset({"q1"}), {}, 1)
            g2 = gen._guard(frozenset({"q1"}), {}, 1)
            assert congruent(Sum(g1, g2), Sum(g2, g1))


class TestObserverCongruence:
    def test_sum_nil_dropped(self):
        r = normalize_observer(P("c?x.disc(x) + nil"))
        assert r == P("c?x.disc(x)")

    def test_parallel_not_reordered(self):
        a = normalize_observer(P("k!0 || l!true"))
        b = normalize_observer(P("l!true || k!0"))
        assert a != b
        # the full process congruence does equate them
        assert congruent(P("k!0 || l!true"), P("l!true || k!0"))

    def test_conditional_resolves(self):
        assert normalize_observer(P("if true then k!0 else k!1")) == P("k!0")


class TestSubstitute:
    def test_classical_substitution(self):
        t = substitute(P("if x = 0 then k!0 else k!1"), "x", 0)
        assert normalize(t) == P("k!0")

    def test_qubit_substitution(self):
        sig = make_signature()
        t = parse_process("c!x")
        assert substitute(t, "x", QubitLit("q1")) == parse_process("c!q1", sig)

    def test_shadowing(self):
        for text in ("k?x.k!x", "randbit(x).k!x", "M01(q1 |> x).(k!x || disc(q1))"):
            t = P(text)
            assert substitute(t, "x", 3) == t, text

    def test_qubit_capture_rejected(self):
        t = parse_process("c!x || disc(q)")
        for _ in range(2):  # the memo must not remember a call that raised
            with pytest.raises(QubitCaptureError):
                substitute(t, "x", QubitLit("q"))

    def test_a_substitution_leaves_no_cycle_to_the_collector(self):
        # the walk is module-level functions, not closures that refer to
        # themselves, so what a substitution builds and drops is freed by
        # reference counting alone
        t = P("k?y.(if x = y then k!x else k!1) + randbit(z).(if z then k!x else k!0)")
        gc.collect()
        gc.disable()
        try:
            for value in range(50):
                rewrite._substitute.cache_clear()
                substitute(t, "x", value)
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0

    @pytest.mark.parametrize("first, second", [(True, 1), (1, True), (False, 0), (0, False)])
    def test_the_memo_tells_a_boolean_from_a_number(self, first, second):
        # True == 1 and hash(True) == hash(1), but their literals differ;
        # the channel is named for the case, so no other call warmed the memo
        t = Send(f"memo_{first}_{second}", (Var("x"),))
        for value in (first, second):
            (lit,) = substitute(t, "x", value).payload
            assert lit == (BoolLit(value) if isinstance(value, bool) else NatLit(value))


def test_congruent_terms_print_differently_but_normalize_alike():
    sig = make_signature()
    for seed in range(80):
        gen = TermGen(seed, sig)
        t = gen.process(frozenset({"q1", "q2"}), {}, 3)
        assert congruent(t, normalize(t))
        assert pretty(normalize(t)) == pretty(normalize(normalize(t)))
