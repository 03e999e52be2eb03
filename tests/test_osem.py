import numpy as np
import pytest

from genterms import TermGen, make_signature, random_config, random_density
from lqccs import qcore
from lqccs.errors import TypingError
from lqccs.osem import (
    DIAMOND,
    apply_context,
    apply_process_context,
    estep,
    estep_genuine,
    lift_estep,
)
from lqccs.parser import parse_process
from lqccs.rewrite import normalize, normalize_observer
from lqccs.semantics import (
    BOT,
    Configuration,
    Distribution,
    at_index,
    dist_barbs,
    make_config,
    mixture,
)
from lqccs.syntax import NIL, Par

SIG = make_signature(("q", "q1", "q2", "o1"))


def P(text):
    return parse_process(text, SIG)


def k0(*names):
    return qcore.pure_state(
        qcore.kron_all([qcore.KET0] * len(names)) if len(names) > 1 else qcore.KET0,
        names,
    )


MEAS_01 = "c?x.M01(x |> y).((if y = 0 then k!0 else k!1) || disc(x))"
MEAS_PM = "c?x.Mpm(x |> y).((if y = 0 then l!true else l!false) || disc(x))"


def broken_nondet_distribution():
    send = P("c!q")
    return mixture(
        Distribution.point(make_config(qcore.pure_state(qcore.KET0, ("q",)), send)),
        Distribution.point(make_config(qcore.pure_state(qcore.KET1, ("q",)), send)),
        0.5,
    )


class TestEstep:
    def test_input_fires_at_epsilon(self):
        c = make_config(qcore.pure_state(qcore.KETP, ("q",)), P("c!q"), P(MEAS_01))
        moves = estep_genuine(c, SIG)
        assert [idx for idx, _ in moves].count("") == 1
        ((idx, d),) = [(i, d) for i, d in moves if i == ""]
        ((succ, p),) = list(d.items())
        assert succ.proc == NIL
        assert succ.obs == normalize_observer(
            P("M01(q |> y).((if y = 0 then k!0 else k!1) || disc(q))")
        )

    def test_output_resets_observer(self):
        c = make_config(k0("o1"), P("c?x.disc(x)"), P("c!o1"))
        ((idx, d),) = estep_genuine(c, SIG)
        assert idx == ""
        ((succ, _),) = list(d.items())
        assert succ.obs == NIL
        assert succ.proc == normalize(P("disc(o1)"))

    def test_process_moves_carry_diamond(self):
        c = make_config(k0("q"), P("tau.disc(q)"), P("k?z.nil"))
        moves = estep_genuine(c, SIG)
        assert [idx for idx, _ in moves] == [DIAMOND]
        ((succ, _),) = list(moves[0][1].items())
        assert succ.obs == normalize_observer(P("k?z.nil"))

    def test_observer_gate_and_measure_are_epsilon(self):
        c = make_config(k0("o1", "q"), P("disc(q)"), P("H(o1).M01(o1 |> y).disc(o1)"))
        moves = estep_genuine(c, SIG)
        assert [i for i, _ in moves] == [""]

    def test_parallel_positions_get_prefixes(self):
        frame = Par(P(MEAS_01), P(MEAS_PM))
        d = apply_context(broken_nondet_distribution(), frame)
        indices = sorted(i for i, _ in lift_estep(d, SIG) if i != DIAMOND)
        assert indices == ["r", "ℓ"]

    def test_mixed_choice_not_producible(self):
        frame = Par(P(MEAS_01), P(MEAS_PM))
        d = apply_context(broken_nondet_distribution(), frame)
        for idx, succ in lift_estep(d, SIG):
            if idx == DIAMOND:
                continue
            # within one index every element took the same branch: the
            # successor observers differ only in received qubits
            kinds = {
                type(c.obs).__name__ for c, _ in succ.items() if not c.is_bot
            }
            assert len(kinds) == 1

    def test_stuck_process_diamond_goes_bot(self):
        c = make_config(k0("q"), P("c!q"), P("k?z.nil"))
        moves = estep(c, SIG)
        assert (DIAMOND, Distribution.point(BOT)) in moves

    def test_single_action_observer_index_is_epsilon(self):
        c = make_config(k0("o1", "q"), P("disc(q)"), P("X(o1).disc(o1)"))
        assert [i for i, _ in estep_genuine(c, SIG)] == [""]


def test_indices_name_distinct_observer_positions():
    # a nested parallel observer exposes one index per action position
    frame = Par(Par(P("H(o1).disc(o1)"), P("c?x.disc(x)")), P("k!0"))
    c = make_config(
        qcore.pure_state(qcore.kron(qcore.KET0, qcore.KET0), ("o1", "q")),
        P("c!q || k?y.nil"),
        frame,
    )
    moves = estep_genuine(c, SIG)
    indices = [i for i, _ in moves]
    assert set(indices) == {"ℓℓ", "ℓr", "r"}
    assert len(indices) == len(set(indices))


def test_diamond_preserves_observer_paths_touch_it():
    # diamond moves carry the observer unchanged; indexed moves always
    # rewrite the observer position they fired at
    for seed in range(40):
        cfg, sig = random_config(seed)
        for idx, dist in estep_genuine(cfg, sig):
            for succ, _ in dist.items():
                if succ.is_bot:
                    continue
                if idx == DIAMOND:
                    assert succ.obs == cfg.obs
                else:
                    assert succ.obs != cfg.obs


class TestRestrictionBlocksObserver:
    """The observer is outside every restriction of the process, so it
    cannot communicate on a restricted channel in either direction."""

    @staticmethod
    def observer_moves(proc, obs):
        c = make_config(k0("q"), P(proc), P(obs))
        return [d for idx, d in estep_genuine(c, SIG) if idx == ""]

    def test_observer_send_to_restricted_receiver(self):
        assert len(self.observer_moves("k?x.nil || disc(q)", "k!0")) == 1
        assert self.observer_moves("(k?x.nil || disc(q)) \\ k", "k!0") == []

    def test_observer_receive_from_restricted_sender(self):
        assert len(self.observer_moves("k!0 || disc(q)", "k?x.l!true")) == 1
        assert self.observer_moves("(k!0 || disc(q)) \\ k", "k?x.l!true") == []


class TestLiftEstep:
    def test_point_lift_equals_estep(self):
        c = make_config(qcore.pure_state(qcore.KETP, ("q",)), P("c!q"), P(MEAS_01))
        assert sorted(lift_estep(Distribution.point(c), SIG), key=lambda m: m[0]) == sorted(
            estep(c, SIG), key=lambda m: m[0]
        )

    def test_missing_index_fills_bot(self):
        d = mixture(
            Distribution.point(
                make_config(k0("q"), P("c!q"), P("c?x.disc(x)"))
            ),
            Distribution.point(make_config(k0("q2"), P("disc(q2)"), P("nil"))),
            0.5,
        )
        eps = [succ for idx, succ in lift_estep(d, SIG) if idx == ""]
        assert len(eps) == 1
        assert abs(eps[0].bot_mass() - 0.5) < 1e-9

    def test_an_index_no_element_enables_falls_back_to_bot(self):
        d = Distribution.point(make_config(k0("q"), P("disc(q)"), P("nil")))
        assert at_index(lift_estep(d, SIG), "ℓr") == [Distribution.point(BOT)]

    def test_decomposable_on_random_splits(self):
        # restricting a lifted move to a sub-distribution and renormalizing
        # is again a move of that sub-distribution
        rng = np.random.default_rng(0)
        for seed in range(25):
            gen = TermGen(seed, SIG)
            proc1 = gen.process(frozenset({"q1"}), {}, 2)
            proc2 = gen.process(frozenset({"q1"}), {}, 2)
            st1 = random_density(np.random.default_rng(seed), ("q1",))
            st2 = random_density(np.random.default_rng(seed + 500), ("q1",))
            d1 = Distribution.point(make_config(st1, proc1))
            d2 = Distribution.point(make_config(st2, proc2))
            mixed = mixture(d1, d2, 0.5)
            for idx, succ in lift_estep(mixed, SIG):
                subs = {
                    i2: s2 for i2, s2 in lift_estep(d1, SIG) if i2 == idx
                }
                fallback = [Distribution.point(BOT)] if not subs else list(subs.values())
                # project succ onto the d1 half and renormalize
                half = [
                    (c, 2 * p)
                    for c, p in succ.items()
                ]
                # membership is checked structurally: some sub-move of d1
                # must appear as a component of the mixture
                candidates = [s for i2, s in lift_estep(d1, SIG) if i2 == idx] or fallback
                assert any(
                    all(
                        succ.support.get(c, 0.0) >= 0.5 * p - 1e-9
                        for c, p in cand.items()
                    )
                    for cand in candidates
                )


class TestApplyContext:
    def test_empty_frame_is_identity(self):
        d = broken_nondet_distribution()
        assert apply_context(d, NIL) == d

    def test_frame_fills_the_hole_of_a_nil_observer(self):
        d = Distribution.point(make_config(k0("q"), P("c!q")))
        out = apply_context(d, P(MEAS_01))
        ((c, _),) = list(out.items())
        assert c.obs == normalize_observer(P(MEAS_01))

    def test_frame_composes_on_the_right(self):
        d = Distribution.point(make_config(k0("q"), P("c!q"), P("k?z.nil")))
        out = apply_context(d, P("l?w.nil"))
        ((c, _),) = list(out.items())
        assert c.obs == Par(P("k?z.nil"), P("l?w.nil"))

    def test_frame_qubits_must_be_free(self):
        d = Distribution.point(make_config(k0("q"), P("c!q")))
        for attach in (apply_context, apply_process_context):
            with pytest.raises(TypingError):
                attach(d, P("H(q).disc(q)"))
            with pytest.raises(TypingError):
                attach(d, P("H(o1).disc(o1)"))  # o1 not in the state


class TestExtendedBarbs:
    def test_observer_send_is_a_barb(self):
        d = Distribution.point(make_config(k0("q"), P("disc(q)"), P("k!0 || c?x.disc(x)")))
        assert dist_barbs(d) == {"k": 1.0}

    def test_frame_barbs_commute(self):
        a = Distribution.point(make_config(k0("q"), P("disc(q)"), P("k!0 || l!true")))
        b = Distribution.point(make_config(k0("q"), P("disc(q)"), P("l!true || k!0")))
        assert dist_barbs(a) == dist_barbs(b) == {"k": 1.0, "l": 1.0}

    def test_nil_observer_adds_nothing(self):
        d = Distribution.point(make_config(k0("q"), P("k!0 || disc(q)")))
        assert dist_barbs(d) == {"k": 1.0}
