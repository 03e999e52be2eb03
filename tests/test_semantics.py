import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature, random_config, random_density
from test_rewrite import normalize_afresh
from lqccs import osem, qcore, semantics
from lqccs.claims import typing_preserved
from lqccs.errors import ChoiceExplosion
from lqccs.parser import parse_process
from lqccs.parser import pretty
from lqccs.rewrite import (_rename_channel, close_scopes, extend_scopes, normalize,
                           normalize_observer, substitute_many)
from lqccs.syntax import NIL, Restrict, Sum, Tau, channels, children, par_all, par_components
from lqccs.semantics import (
    BOT,
    BOT_BARB,
    Configuration,
    Distribution,
    dist_barbs,
    _proc_schemas,
    exec_view,
    lift_step,
    make_config,
    mixture,
    proc_barbs,
    step,
    step_genuine,
)
from lqccs.typecheck import typecheck

SIG = make_signature(("q", "q1", "q2", "o1"))


def P(text):
    return parse_process(text, SIG)


def cfg(state, text):
    return make_config(state, P(text))


def k0(*names):
    return qcore.pure_state(
        qcore.kron_all([qcore.KET0] * len(names)) if len(names) > 1 else qcore.KET0,
        names,
    )


QL = "H(q).M01(q |> x).((if x = 0 then k!0 else k!1) || disc(q))"


class TestStep:
    def test_ql_first_step(self):
        (d,) = step(cfg(k0("q"), QL))
        ((c, p),) = list(d.items())
        assert p == 1.0
        assert np.allclose(c.rho.mat, qcore.projector(qcore.KETP))
        assert c.proc == normalize(P("M01(q |> x).((if x = 0 then k!0 else k!1) || disc(q))"))

    def test_ql_measurement_step(self):
        mid = cfg(qcore.pure_state(qcore.KETP, ("q",)), "M01(q |> x).((if x = 0 then k!0 else k!1) || disc(q))")
        (d,) = step(mid)
        items = sorted(d.items(), key=lambda kv: kv[0].key())
        assert len(items) == 2
        for c, p in items:
            assert abs(p - 0.5) < 1e-9
        procs = {c.proc for c, _ in items}
        assert procs == {normalize(P("k!0 || disc(q)")), normalize(P("k!1 || disc(q)"))}

    def test_communication(self):
        (d,) = step(cfg(k0("q"), "c!q || c?x.disc(x)"))
        ((c, p),) = list(d.items())
        assert c.proc == normalize(P("disc(q)"))

    def test_stuck_send_goes_bot(self):
        assert step(cfg(k0("q"), "c!q")) == [Distribution.point(BOT)]
        assert step_genuine(cfg(k0("q"), "c!q")) == []

    def test_bot_absorbs(self):
        assert step(BOT) == [Distribution.point(BOT)]

    def test_sum_offers_both_guards(self):
        moves = step(cfg(k0("q"), "tau.(k!0 || disc(q)) + tau.(k!1 || disc(q))"))
        assert len(moves) == 2

    def test_randbit(self):
        (d,) = step(cfg(k0("q"), "randbit(b).(k!b || disc(q))"))
        assert len(d) == 2
        assert {c.proc for c, _ in d.items()} == {
            normalize(P("k!0 || disc(q)")),
            normalize(P("k!1 || disc(q)")),
        }
        assert all(abs(p - 0.5) < 1e-9 for _, p in d.items())

    def test_restricted_channel_blocks_external_compose(self):
        # the restricted send synchronizes internally only
        moves = step(cfg(k0("q"), "(k!0 || k?x.disc(q)) \\ k"))
        assert len(moves) == 1
        ((c, _),) = list(moves[0].items())
        assert c.proc == normalize(P("disc(q)"))

    def test_congruent_sources_step_alike(self):
        a = cfg(k0("q"), "tau.disc(q) || nil")
        b = cfg(k0("q"), "nil || tau.disc(q)")
        assert step(a) == step(b)

    def test_probabilities_sum_to_one(self):
        for seed in range(40):
            gen = TermGen(seed, SIG)
            proc = gen.process(frozenset({"q1"}), {}, 3)
            c = make_config(random_density(np.random.default_rng(seed), ("q1",)), proc)
            for d in step(c, SIG):
                assert abs(sum(p for _, p in d.items()) - 1.0) < 1e-9

    def test_a_send_of_an_unbound_var_never_communicates(self):
        # a declared var has a type but no value: its send has no payload
        # to pass, while the same send of a literal communicates
        from lqccs.parser import parse_program

        sig, defs = parse_program("channel c : nat;\nchannel d : nat;\nvar x : nat;\n"
                                  "process Open = c!x || c?y.d!y;\n"
                                  "process Closed = c!0 || c?y.d!y;\n")
        assert step_genuine(make_config(k0("q"), defs["Open"]), sig) == []
        assert len(step_genuine(make_config(k0("q"), defs["Closed"]), sig)) == 1


class TestMixture:
    def test_a_weight_outside_the_unit_interval_is_refused(self):
        d1, d2 = Distribution.point(cfg(k0("q"), "k!0 || disc(q)")), Distribution.point(BOT)
        for p in (1.7, -0.1):
            with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
                mixture(d1, d2, p)

    def test_a_weight_within_tolerance_of_an_end_snaps_to_it(self):
        d1, d2 = Distribution.point(cfg(k0("q"), "k!0 || disc(q)")), Distribution.point(BOT)
        assert mixture(d1, d2, 1.0) is mixture(d1, d2, 1 - 1e-12) is d1
        assert mixture(d1, d2, 0.0) is mixture(d1, d2, 1e-12) is d2


class TestLift:
    def test_lift_of_point_is_step(self):
        c = cfg(k0("q"), QL)
        assert lift_step(Distribution.point(c)) == [(None, d) for d in step(c)]

    def test_stuck_elements_fill_with_bot(self):
        d = mixture(
            Distribution.point(cfg(k0("q"), "c!q")),
            Distribution.point(cfg(k0("q2"), "tau.disc(q2)")),
            0.5,
        )
        ((_, out),) = lift_step(d)
        assert abs(out.bot_mass() - 0.5) < 1e-9

    def test_per_element_choices_multiply(self):
        two = "tau.(k!0 || disc(q)) + tau.(k!1 || disc(q))"
        d = mixture(
            Distribution.point(cfg(k0("q"), two)),
            Distribution.point(make_config(k0("q2"), parse_process(two.replace("q", "q2"), SIG))),
            0.5,
        )
        assert len(lift_step(d)) == 4

    def test_all_stuck_mixture_lifts_to_deadlock(self):
        d = mixture(
            Distribution.point(cfg(k0("q"), "k!0 || disc(q)")),
            Distribution.point(cfg(k0("q2"), "k!1 || disc(q2)")),
            0.5,
        )
        assert lift_step(d) == [(None, Distribution.point(BOT))]

    def test_map_leaves_bot_without_calling_f(self):
        d = mixture(Distribution.point(cfg(k0("q"), "k!0 || disc(q)")), Distribution.point(BOT), 0.5)

        def f(c):
            if c.is_bot:
                raise AssertionError("f called on BOT")
            return make_config(c.rho, P("l!0 || disc(q)"))

        out = d.map(f)
        assert abs(out.bot_mass() - 0.5) < 1e-9
        assert dist_barbs(out) == {"l": 0.5, BOT_BARB: 0.5}

    def test_choice_cap(self):
        two = "tau.(k!0 || disc(q)) + tau.(k!1 || disc(q))"
        d = mixture(
            Distribution.point(cfg(k0("q"), two)),
            Distribution.point(make_config(k0("q2"), parse_process(two.replace("q", "q2"), SIG))),
            0.5,
        )
        with pytest.raises(ChoiceExplosion):
            lift_step(d, cap=3)


def _lift_by_product(dist, moves_of, cap):
    """The lifting by its definition: for each index, in order of first
    appearance, every per-element choice of moves at that index (BOT for
    an element without one), combined with the elements' weights; the
    cap is checked on the running product of the numbers of choices."""
    elems = list(dist.items())
    per_elem = [moves_of(c) for c, _ in elems]
    out = []
    for idx in dict.fromkeys(idx for mv in per_elem for idx, _ in mv):
        options = [[d for i, d in mv if i == idx] or [Distribution.point(BOT)] for mv in per_elem]
        total = 1
        for here in options:
            total *= len(here)
            if total > cap:
                raise ChoiceExplosion(f"{total}+ move combinations exceed the cap {cap}")
        for combo in itertools.product(*options):
            out.append((idx, Distribution.convex([(p, d) for (_, p), d in zip(elems, combo)])))
    return list(dict.fromkeys(out))


def _branching_config(seed: int, branches: int):
    """A random configuration whose process is a choice among `branches`
    silent branches, the first its own process: several moves at one index."""
    c, sig = random_config(seed)
    gen = TermGen(seed + 1)
    extra = [gen.process(frozenset({"q1"}), {}, 2) for _ in range(branches - 1)]
    proc = functools.reduce(Sum, [Tau(t) for t in [c.proc, *extra]])
    return make_config(c.rho, proc, c.obs), sig


DRAWN_MOVES = st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 3)), max_size=7)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 1_000_000), st.integers(0, 1_000_000), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([None, 1.0, 0.3]), st.integers(1, 4),
       st.sampled_from(["step", "estep", "drawn"]), DRAWN_MOVES, DRAWN_MOVES)
# a point whose first index b has two moves and whose second, a, three:
# grouped b before a, and over a cap of 1 at b
@example(0, 1, 1, 1, None, 4, "drawn", [("b", 0), ("a", 1), ("b", 2), ("a", 3), ("a", 0)], [])
@example(0, 1, 1, 1, None, 1, "drawn", [("b", 0), ("a", 1), ("b", 2), ("a", 3), ("a", 0)], [])
def test_lift_matches_the_product_definition(seed1, seed2, n1, n2, p, cap, rule, drawn1, drawn2):
    """`semantics.lift` on one-element distributions (a point when p is
    None, weight 1 - 1e-10 otherwise) and on two-element ones gives the
    moves of the product definition, in the same order, or raises the
    same ChoiceExplosion. The moves are those of `step` or `estep`, or
    drawn: (index, successor) lists over indices a and b."""
    c1, sig = _branching_config(seed1, n1)
    c2, _ = _branching_config(seed2, n2)
    if p is None:
        dist = Distribution.point(c1)
    elif p == 1.0:
        dist = Distribution([(c1, 1.0 - 1e-10)])
    else:
        dist = mixture(Distribution.point(c1), Distribution.point(c2), p)
    pool = [Distribution.point(c1), Distribution.point(c2), Distribution.point(BOT),
            mixture(Distribution.point(c1), Distribution.point(c2), 0.5)]
    moves_of = {
        "step": lambda c: [(None, d) for d in step(c, sig)],
        "estep": lambda c: osem.estep(c, sig),
        "drawn": lambda c: [(i, pool[j]) for i, j in (drawn1 if c == c1 else drawn2)],
    }[rule]
    try:
        want = _lift_by_product(dist, moves_of, cap)
    except ChoiceExplosion as exc:
        with pytest.raises(ChoiceExplosion, match=f"^{re.escape(str(exc))}$"):
            semantics.lift(dist, moves_of, cap)
        return
    assert semantics.lift(dist, moves_of, cap) == want


class TestBarbs:
    def test_barbs_are_kept_on_the_distribution(self):
        d = mixture(Distribution.point(cfg(k0("q"), "k!1 || disc(q)")), Distribution.point(BOT), 0.5)
        assert dist_barbs(d) is dist_barbs(d)
        assert dist_barbs(d) == {"k": 0.5, BOT_BARB: 0.5}

    def test_simple_send(self):
        assert proc_barbs(P("k!1 || disc(q)")) == frozenset({"k"})

    def test_restricted_send_masked(self):
        assert proc_barbs(P("(k!0 || c?x.disc(x)) \\ k")) == frozenset()
        assert proc_barbs(P("(k!0 || l!true) \\ k")) == frozenset({"l"})

    def test_guarded_send_not_a_barb(self):
        assert proc_barbs(P("tau.k!1")) == frozenset()

    def test_sum_exposes_barb(self):
        assert proc_barbs(P("k!0 + c?x.disc(x)")) == frozenset({"k"})

    def test_distribution_masses(self):
        d = mixture(
            Distribution.point(cfg(k0("q"), "k!1 || disc(q)")),
            Distribution.point(cfg(k0("q"), "l!true || disc(q)")),
            0.5,
        )
        assert dist_barbs(d) == {"k": 0.5, "l": 0.5}

    def test_bot_mass(self):
        d = mixture(Distribution.point(BOT), Distribution.point(cfg(k0("q"), "k!1 || disc(q)")), 1 / 3)
        b = dist_barbs(d)
        assert abs(b[BOT_BARB] - 1 / 3) < 1e-9
        assert abs(b["k"] - 2 / 3) < 1e-9


def test_restriction_masks_barbs_on_generated_terms():
    for seed in range(60):
        gen = TermGen(seed, SIG)
        proc = gen.process(frozenset({"q1"}), {}, 3)
        base = proc_barbs(proc)
        for chan in ("c", "k"):
            assert proc_barbs(Restrict(proc, chan)) == base - {chan}


class TestExecView:
    def test_scope_extends_past_a_clashing_inner_blob(self):
        # the outer `\ c` may extend over k?x.k!2; the inner `\ k` extends
        # too, once its k is renamed apart from the free k of k?x.k!2
        sig = make_signature()
        proc = normalize(parse_process(
            "(k?x.k!2 || c!q1 || M01(q2 |> m).(k!0 || c!q2) \\ k) \\ c", sig))
        assert pretty(proc) == "(M01(q2 |> m).(c!q2 || k#0!0) || c!q1) \\ c \\ k#0 || k?x.k!2"
        comps, restricted = exec_view(proc)
        assert restricted == {"c", "k#0"}
        assert sorted(map(pretty, comps)) == ["M01(q2 |> m).(c!q2 || k#0!0)", "c!q1", "k?x.k!2"]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_no_extendable_blob_is_left_opaque(self, seed):
        # sixteen terms (p || q \ ch1) \ ch2 || r over generated p, q and r,
        # some behind a reception on k: exec_view leaves no component a
        # restriction, whatever channels clash
        gen = TermGen(seed, make_signature(chans="ck"))
        for _ in range(16):
            owned = [frozenset(gen.rng.choice(((), ("q1",), ("q2",), ("o1",)))) for _ in range(3)]
            proc = gen.restricted_par(owned)
            comps, _ = exec_view(normalize(proc))
            assert not any(isinstance(comp, Restrict) for comp in comps), pretty(proc)


    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_a_normal_form_is_only_spliced(self, seed):
        # a normal form's scopes are already extended: for sixteen generated
        # (p || q \ ch1) \ ch2 || r terms, exec_view, which only splices,
        # gives what scope extension gives on the normal form's components,
        # in the same order, and renames no channel
        gen = TermGen(seed, make_signature(chans="ck"))
        for _ in range(16):
            owned = [frozenset(gen.rng.choice(((), ("q1",), ("q2",), ("o1",)))) for _ in range(3)]
            proc = normalize(gen.restricted_par(owned))
            comps, restricted = exec_view(proc)
            assert (comps, restricted) == extend_scopes(par_components(proc), ()), pretty(proc)
            assert restricted.union(*map(channels, comps)) <= channels(proc), pretty(proc)


def _close_scopes_reference(comps, restricted):
    """The residual as the whole term's normal form: the components in
    parallel under a chain of restrictions, normalized as one term."""
    term = par_all(comps)
    for c in sorted(restricted):
        term = Restrict(term, c)
    return normalize(term)


class TestRebuild:
    """`close_scopes` normalizes each component, a cache hit on the
    siblings, then closes the scopes once; its residual must be the very
    node that normalizing the whole rebuilt term gives.
    (`tests/test_merged_rules.py` builds its reference residuals with
    `close_scopes` itself, so it cannot catch a fault here.)"""

    @staticmethod
    def check(comps, restricted):
        got = close_scopes(comps, restricted)
        assert got is _close_scopes_reference(comps, restricted), (comps, sorted(restricted))
        return got

    @staticmethod
    def recorded(monkeypatch):
        """Lists of the (components, restricted) arguments of every
        `close_scopes` call the process rules and the observer rules make from
        now on, in that order."""
        calls = ([], [])
        for module, seen in zip((semantics, osem), calls):
            def record(comps, restricted, seen=seen):
                seen.append((list(comps), frozenset(restricted)))
                return close_scopes(comps, restricted)

            monkeypatch.setattr(module, "close_scopes", record)
        return calls

    @staticmethod
    def residuals(proc) -> list:
        """The residuals of the schemas of a normal `proc`, both outcomes of
        a measurement included, built afresh: `schemas` would read the ones
        kept on the node."""
        out = []
        for schema in _proc_schemas(proc):
            if schema[0] == semantics.MEASURE:
                _, _, _, guard, settle, _ = schema
                out += [settle(substitute_many(guard.cont, [(guard.var, v)])) for v in (0, 1)]
            elif schema[0] != semantics.ERROR:
                out += [r for r in schema[1:] if not isinstance(r, (str, tuple))]
        return out

    def test_without_restrictions_a_clashing_continuation_is_renamed_apart(self):
        # a plain Par is a chain of no restrictions: (k?x.k!x) \ k beside
        # k!1 has its scope extended as under any chain, so its k is k#0
        got = self.check([normalize(P("k!1")), P("(k?x.k!x) \\ k")], frozenset())
        assert pretty(got) == "k!1 || k#0?x.k#0!x \\ k#0"

    def test_a_clashing_continuation_is_renamed_apart_under_restrictions(self):
        # the continuation's k is free in k!2 beside it, so it becomes k#0
        sibs = [normalize(P("k!2")), normalize(P("d?y.nil"))]
        got = self.check([*sibs, P("(k?x.d!x) \\ k")], {"d"})
        assert pretty(got) == "(d?y.nil || k#0?x.d!x) \\ d \\ k#0 || k!2"

    def test_a_fresh_name_may_be_a_channel_of_the_chain_no_component_names(self):
        # k#0 is restricted outside but named by no component, so it binds
        # nothing: the clashing k avoids only the components' channels and
        # becomes k#0
        got = self.check([P("(k!6) \\ k"), normalize(P("k?x.c!q1"))], {"k", "k#0"})
        assert pretty(got) == "k#0!6 \\ k#0 || k?x.c!q1 \\ k"

    def test_a_continuation_that_normalizes_to_nil_is_dropped(self):
        sib, nil_cont = normalize(P("k!1")), P("if true then nil else k!1")
        for restricted in (frozenset(), {"k"}, {"c", "k"}):
            assert self.check([sib, nil_cont], restricted) is self.check([sib], restricted)
            assert self.check([nil_cont], restricted) is NIL

    def test_dropping_a_component_without_a_continuation(self):
        # the observer rule for a reception: the sender leaves, nothing joins
        proc = normalize(P("(k!0 || k?x.c!q1 || c?y.d!y || d!q2) \\ c \\ k || d?z.nil"))
        comps, restricted = exec_view(proc)
        assert restricted == {"c", "k"}
        for i in range(len(comps)):
            self.check(comps[:i] + comps[i + 1:], restricted)

    def test_generated_components_under_generated_restrictions(self):
        # 3,000 lists of one to four generated terms, some of their channels
        # renamed to c#0, k#0 or k#1 and each under up to two restrictions,
        # below a random subset of six channels
        names = ("c", "k", "c#0", "k#0", "c#1", "k#1")
        for seed in range(3_000):
            gen = TermGen(seed, make_signature(chans="ck"))
            rng, comps = gen.rng, []
            for _ in range(rng.randrange(1, 5)):
                t = gen.process(frozenset(), {}, rng.randrange(3))
                new = rng.choice(("c#0", "k#0", "k#1"))
                if rng.random() < 0.3 and new not in channels(t):
                    t = _rename_channel(t, new[0], new)
                for _ in range(rng.randrange(3)):
                    if rng.random() < 0.5:
                        t = Restrict(t, rng.choice(names))
                comps.append(t)
            self.check(comps, frozenset(c for c in names if rng.random() < 0.4))

    def test_generated_continuations_beside_restricted_siblings(self):
        # 300 terms (p || q \ ch1) \ ch2 || r: each component of their
        # execution view replaced by a generated process, restricted half
        # the time, under the view's restrictions and under none
        for seed in range(300):
            gen = TermGen(seed, make_signature(chans="ck"))
            owned = [frozenset(gen.rng.choice(((), ("q1",), ("q2",)))) for _ in range(3)]
            comps, restricted = exec_view(normalize(gen.restricted_par(owned)))
            for i in range(len(comps)):
                cont = gen.process(frozenset(), {}, 2)
                if gen.rng.random() < 0.5:
                    cont = Restrict(cont, gen.rng.choice("ck"))
                for chans in (restricted, frozenset()):
                    self.check(comps[:i] + [cont] + comps[i + 1:], chans)

    def test_every_residual_the_rules_build(self, monkeypatch):
        # the process moves of 1,000 (p || q \ ch1) \ ch2 || r terms and
        # 1,000 random_config processes, three moves deep, and the observer
        # moves of each beside k!0 || k?z.nil or its own observer
        proc_calls, obs_calls = self.recorded(monkeypatch)
        pairs = []
        for seed in range(1_000):
            gen = TermGen(seed, make_signature(chans="ck"))
            pairs.append((gen.restricted_par((frozenset({"q1"}), frozenset({"q2"}), frozenset())),
                          P("k!0 || k?z.nil")))
            cfg, _ = random_config(seed)
            pairs.append((cfg.proc, cfg.obs))
        frontier = [normalize(proc) for proc, _ in pairs]
        for proc, (_, obs) in zip(frontier, pairs):
            obs = normalize_observer(obs)
            list(osem._observer_schemas(proc, obs, obs, ""))
        for _ in range(3):
            frontier = [r for proc in frontier for r in self.residuals(proc)]
        for comps, restricted in proc_calls + obs_calls:
            self.check(comps, restricted)
        assert len(proc_calls) > 3_000 and sum(1 for _, r in proc_calls if r) > 1_000
        assert len(obs_calls) > 1_000 and sum(1 for _, r in obs_calls if r) > 100


def _subterms(t) -> set:
    """t and every sub-term of it."""
    out, todo = set(), [t]
    while todo:
        x = todo.pop()
        if x not in out:
            out.add(x)
            todo += children(x)
    return out


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_every_mark_is_earned(seed):
    # every marked node met is its own normal form computed afresh; met
    # are the normal forms of a generated process and a restricted_par
    # term, the residuals of their process moves and of their observer
    # moves beside k!0 || k?z.nil, two moves deep and all born marked,
    # and each of these terms composed with a generated frame
    gen = TermGen(seed, make_signature(chans="ck"))
    owned = (frozenset({"q1"}), frozenset({"q2"}), frozenset())
    frontier = [normalize(gen.process(frozenset({"q1", "q2"}), {}, 3)),
                normalize(gen.restricted_par(owned))]
    obs = normalize_observer(P("k!0 || k?z.nil"))
    met = list(frontier)
    for _ in range(2):
        frontier = [r for proc in frontier for r in TestRebuild.residuals(proc)] + [
            r for proc in frontier for _, r, _ in osem._observer_schemas(proc, obs, obs, "")]
        assert all(getattr(r, "_normal", False) for r in frontier)
        met += frontier
    rho = random_density(np.random.default_rng(seed), ("q1", "q2"))
    frame = gen.process(frozenset(), {}, 2)
    met += [c.proc for proc in met for c, _ in osem.apply_process_context(
        Distribution.point(Configuration(rho, proc)), frame).items()]
    for node in {n for t in met for n in _subterms(t) if getattr(n, "_normal", False)}:
        assert normalize_afresh(node) is node, pretty(node)


class TestTypingPreservation:
    def test_a_renamed_normal_form_keeps_its_typing(self):
        # the normal form sends and receives on k#0, typed as the declared k
        src = "(k?x.k!2 || c!q1 || M01(q2 |> m).(k!m || k?z.c!q2) \\ k) \\ c"
        start = cfg(k0("q1", "q2"), src)
        assert "k#0?z.c!q2" in pretty(start.proc)
        assert typecheck(SIG, start.proc) == typecheck(SIG, P(src)) == {"q1", "q2"}
        frontier, steps = [start], 0
        while frontier:
            c = frontier.pop()
            for dist in step_genuine(c, SIG):
                assert typing_preserved(c, dist, SIG)
                frontier += [x for x, _ in dist.items() if not x.is_bot]
                steps += 1
        assert steps == 2  # the measurement of |0>, then the communication on k#0

    def test_ql_chain(self):
        c = cfg(k0("q"), QL)
        assert typecheck(SIG, c.proc) == frozenset({"q"})
        d = c
        for _ in range(3):
            (dist,) = step(d, SIG)
            assert typing_preserved(d, dist, SIG)
            nxt = [x for x, _ in dist.items() if not x.is_bot]
            if not nxt:
                break
            d = nxt[0]

    def test_reduce_moves_qubit_between_components(self):
        c = cfg(k0("q"), "c!q || c?x.H(x).disc(x)")
        (dist,) = step(c, SIG)
        assert typing_preserved(c, dist, SIG)

    def test_generated(self):
        for seed in range(60):
            gen = TermGen(seed, SIG)
            proc = gen.process(frozenset({"q1", "q2"}), {}, 3)
            c = make_config(random_density(np.random.default_rng(seed), ("q1", "q2")), proc)
            for dist in step(c, SIG):
                assert typing_preserved(c, dist, SIG)
