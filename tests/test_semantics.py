import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature, random_density
from lqccs import qcore
from lqccs.claims import typing_preserved
from lqccs.errors import ChoiceExplosion
from lqccs.parser import parse_process
from lqccs.parser import pretty
from lqccs.rewrite import normalize
from lqccs.syntax import Restrict
from lqccs.semantics import (
    BOT,
    BOT_BARB,
    Configuration,
    Distribution,
    dist_barbs,
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


class TestBarbs:
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
