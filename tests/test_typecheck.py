import pytest

from genterms import TermGen, make_signature, mirror
from lqccs.errors import ArityError, ChannelTypeError, LinearityError, TypingError
from lqccs.parser import parse_process
from lqccs.syntax import Signature
from lqccs.typecheck import typecheck

QL = "H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q))"


def ql_signature():
    return Signature(
        channels={"a": ("nat",), "b": ("nat",), "c": ("qubit",), "d": ("qubit",)},
        qubits=("q", "q1", "q2"),
    )


def test_quantum_lottery_owns_q():
    sig = ql_signature()
    assert typecheck(sig, parse_process(QL, sig)) == frozenset({"q"})


def test_duplicate_send_across_parallel():
    sig = ql_signature()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("c!q || c!q", sig))


def test_received_qubit_must_be_used():
    # the illegal first-row processes: the received qubit is neither sent
    # nor discarded
    sig = ql_signature()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("c?x.H(x).nil", sig))
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("c?x.X(x).nil", sig))


def test_discarding_makes_it_legal():
    sig = ql_signature()
    assert typecheck(sig, parse_process("c?x.H(x).disc(x)", sig)) == frozenset()


def test_sum_branches_must_agree():
    sig = ql_signature()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("c!q + d!q1", sig))
    assert typecheck(sig, parse_process("c!q + d!q", sig)) == frozenset({"q"})


def test_conditional_branches_must_agree():
    sig = ql_signature()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("if true then c!q else disc(q1)", sig))


def test_operator_args_subset_of_context():
    sig = ql_signature()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("H(q).disc(q1)", sig))
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("CNOT(q, q).disc(q)", sig))


def test_arity_and_channel_errors():
    sig = ql_signature()
    with pytest.raises(ArityError):
        typecheck(sig, parse_process("CNOT(q).disc(q)", sig))
    with pytest.raises(ChannelTypeError):
        typecheck(sig, parse_process("a!q", sig))
    with pytest.raises(ChannelTypeError):
        typecheck(sig, parse_process("zz!1", sig))
    with pytest.raises(NameError):
        typecheck(sig, parse_process("Hadamarde(q).disc(q)", sig))


def test_classical_payload_typing():
    sig = ql_signature()
    assert typecheck(sig, parse_process("a!(1 + 2)", sig)) == frozenset()
    with pytest.raises(TypingError):
        typecheck(sig, parse_process("a!(1 <= 2)", sig))


def test_unique_typing_on_examples():
    sig = ql_signature()
    ql = parse_process(QL, sig)
    assert typecheck(sig, ql) == typecheck(sig, mirror(ql)) == frozenset({"q"})
    both = parse_process("c!q1 || disc(q2)", sig)
    assert typecheck(sig, both) == typecheck(sig, mirror(both)) == frozenset({"q1", "q2"})


def test_unique_typing_generated():
    sig = make_signature()
    for seed in range(300):
        gen = TermGen(seed, sig)
        term = gen.process(frozenset({"q1", "q2"}), {}, 4)
        assert typecheck(sig, term) == typecheck(sig, mirror(term)) == frozenset({"q1", "q2"})


def test_observers_type_with_the_same_rules():
    sig = ql_signature()
    obs = parse_process("c?x.M01(x |> y).((if y = 0 then a!0 else b!0) || disc(x))", sig)
    assert typecheck(sig, obs) == frozenset()


def test_polyadic_channels():
    sig = ql_signature()
    sig.channels["pair"] = ("qubit", "qubit")
    sig.channels["mix"] = ("nat", "qubit")
    assert typecheck(sig, parse_process("pair!(q, q1)", sig)) == frozenset({"q", "q1"})
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("pair!(q, q)", sig))
    with pytest.raises(ChannelTypeError):
        typecheck(sig, parse_process("pair!q", sig))
    assert typecheck(sig, parse_process("mix?(n, y).disc(y)", sig)) == frozenset()
    with pytest.raises(LinearityError):
        typecheck(sig, parse_process("mix?(n, y).nil", sig))


@pytest.mark.parametrize("text, error, message", [
    ("a!y", TypingError, "undeclared variable 'y'"),
    ("a!(not 3)", TypingError, "'not' expects a boolean"),
    ("a!(1 and 2)", TypingError, "'and' expects booleans, got nat, nat"),
    ("a!(1 = true)", TypingError, "'=' expects equal classical types, got nat, bool"),
    ("a!(true + 1)", TypingError, "'\\+' expects naturals, got bool, nat"),
    ("M01(q |> x).disc(q1)", LinearityError, "M01 measures \\['q'\\] not owned"),
    ("pair?(x, x).nil", LinearityError, "duplicate names in reception pattern"),
    ("if 3 then nil else nil", TypingError, "conditional guard must be boolean"),
], ids=["undeclared", "not-nat", "and-nats", "equal-mixed", "plus-bool",
        "measure-unowned", "duplicate-pattern", "nat-guard"])
def test_ill_typed_expressions_and_prefixes_are_refused(text, error, message):
    sig = ql_signature()
    sig.channels["pair"] = ("nat", "nat")
    with pytest.raises(error, match=message) as exc:
        typecheck(sig, parse_process(text, sig))
    assert type(exc.value) is error
