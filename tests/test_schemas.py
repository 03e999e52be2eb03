"""Move schemas: a term's moves are built once, without a state, and each
`step_genuine`/`estep_genuine` call instantiates them on its own state
under its own signature. A second call on the same terms reads the
schemas kept on the nodes; it must give what the reference rules of
`tests/test_merged_rules.py` give on that state, and raise the same
errors in the same order as the first call."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import make_signature, random_config, random_density
from lqccs import osem, qcore, semantics
from lqccs.errors import EvalError, QubitCaptureError
from lqccs.equiv import advance_scheduled
from lqccs.osem import estep_genuine
from lqccs.parser import parse_process
from lqccs.semantics import Configuration, Distribution, config_barbs, make_config, step_genuine
from lqccs.syntax import NIL, ApplyOp, NatLit, Par
from test_merged_rules import OBSERVERS, keys, reference_estep_genuine, reference_step_genuine

SIG = make_signature(("q", "q1", "o1"))


def P(text):
    return parse_process(text, SIG)


def state(vec, names=("q",)):
    return qcore.pure_state(vec, names)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(OBSERVERS))
def test_schemas_read_back_on_a_second_state_match_the_reference(seed, observer):
    cfg, sig = random_config(seed)
    if observer is not None:
        cfg = make_config(cfg.rho, cfg.proc, parse_process(observer, SIG))
    rho2 = random_density(np.random.default_rng(seed + 1), cfg.rho.register.names)
    for rho in (cfg.rho, rho2):
        c = Configuration(rho, cfg.proc, cfg.obs)
        assert [d.key() for d in step_genuine(c, sig)] == [
            d.key() for d in reference_step_genuine(c, sig)]
        assert keys(estep_genuine(c, sig)) == keys(reference_estep_genuine(c, sig))
    # the second state read the schemas the first one built
    with mock.patch.object(semantics, "_proc_schemas") as proc_built, \
            mock.patch.object(osem, "_observer_schemas") as obs_built:
        estep_genuine(Configuration(rho2, cfg.proc, cfg.obs), sig)
    assert not proc_built.called and not obs_built.called


def test_each_measurement_outcome_has_its_own_residual():
    c = make_config(state(qcore.KETP), P("M01(q |> y).(if y = 0 then k!0 else l!0)"))
    for _ in range(2):
        (d,) = step_genuine(c, SIG)
        assert len(d) == 2
        assert sorted(sorted(config_barbs(e)) for e, _ in d.items()) == [["k"], ["l"]]


def _two_signatures():
    out = []
    for gate in (qcore.X, qcore.H):
        sig = make_signature(("q", "q1", "o1"))
        sig.operators["U"] = qcore.Superoperator.unitary(gate)
        out.append(sig)
    return out


@pytest.mark.parametrize("proc, obs", [("U(q).disc(q)", "nil"), ("disc(q)", "U(q).disc(q)")],
                         ids=["process", "observer"])
def test_one_term_under_two_signatures(proc, obs):
    flip, hadamard = _two_signatures()
    c = make_config(state(qcore.KET0), P(proc), P(obs))
    expected = {id(flip): qcore.projector(qcore.KET1), id(hadamard): qcore.projector(qcore.KETP)}
    for sig in (flip, hadamard, flip, hadamard):
        (d,) = [d for _, d in estep_genuine(c, sig)]
        ((succ, p),) = d.items()
        assert p == 1.0
        assert np.allclose(succ.rho.mat, expected[id(sig)])


def _raised(moves, cfg, sig, error):
    with pytest.raises(error) as info:
        moves(cfg, sig)
    return str(info.value)


@pytest.mark.parametrize("moves", [step_genuine, estep_genuine])
def test_a_gate_on_a_number_raises_after_the_moves_before_it(moves):
    # U(q) comes first in the normalized term: an unknown U is reported
    # before the stored error of X(0), on the first call and on a later one
    cfg = make_config(state(qcore.KET0), Par(P("U(q).disc(q)"), ApplyOp("X", (NatLit(0),), NIL)))
    defines_u, _ = _two_signatures()
    for _ in range(2):
        assert _raised(moves, cfg, SIG, NameError) == "unknown operator 'U'"
        assert _raised(moves, cfg, defines_u, EvalError) == (
            "operator argument NatLit(value=0) is not a qubit at runtime")


@pytest.mark.parametrize("proc, obs", [("c!q || c?x.X(q).disc(x)", "nil"), ("c!q", "c?x.disc(x, q)")],
                         ids=["process", "observer"])
def test_a_qubit_capture_raises_on_every_call(proc, obs):
    cfg = make_config(state(qcore.KET0), P(proc), P(obs))
    messages = {_raised(estep_genuine, cfg, SIG, QubitCaptureError) for _ in range(2)}
    assert messages == {"substituting qubit 'q' into a term that already uses it"}


def test_elements_that_share_a_process_build_its_first_schema_once():
    # the two elements differ in state only, so the scheduled step reads the
    # first schema kept on their one process node; a process whose schemas
    # are built already gives the first of them, with no build at all
    proc = P("first_once?x.nil || tau.(first_once!3 || disc(q))")
    shared = Distribution([(make_config(state(qcore.KET0), proc), 0.5),
                           (make_config(state(qcore.KET1), proc), 0.5)])
    other = make_config(state(qcore.KETP), P("tau.first_twice!4 || disc(q)"))
    step_genuine(other, SIG)
    with mock.patch.object(semantics, "_proc_schemas", wraps=semantics._proc_schemas) as built:
        (_, shared_next) = advance_scheduled(shared, SIG, max_steps=1)
        (_, other_next) = advance_scheduled(Distribution.point(other), SIG, max_steps=1)
    assert built.call_count == 1
    assert len(shared_next) == 2 and len(other_next) == 1
