import pytest
from hypothesis import given
from hypothesis import strategies as st

from genterms import TermGen, make_signature
from lqccs.errors import ParseError, SortError
from lqccs.parser import parse_observer, parse_process, parse_program, pretty
from lqccs.syntax import (
    ApplyOp,
    Ite,
    Measure,
    Nil,
    Par,
    QubitLit,
    Recv,
    Restrict,
    Send,
    Signature,
    Sum,
    Tau,
    Var,
    as_qubits,
    free_qubit_args,
    fresh_channel,
    fresh_names,
)


def test_quantum_lottery_shape():
    t = parse_process("H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q))")
    assert isinstance(t, ApplyOp) and t.op == "H"
    assert t.args == (QubitLit("q"),)
    m = t.cont
    assert isinstance(m, Measure) and m.op == "M01" and m.var == "x"
    body = m.cont
    assert isinstance(body, Par)
    assert isinstance(body.left, Ite)
    assert body.right == Nil((QubitLit("q"),))


def test_sum_binds_tighter_than_parallel():
    t = parse_process("a!1 + b!1 || nil")
    assert isinstance(t, Par)
    assert isinstance(t.left, Sum)


def test_restriction_postfix():
    t = parse_process("(a!1 || m!0) \\ m")
    assert isinstance(t, Restrict) and t.chan == "m"


def test_polyadic_send_and_receive():
    t = parse_process("c!(q1, q2)")
    assert isinstance(t, Send) and len(t.payload) == 2
    t = parse_process("c?(x, y).disc(x, y)")
    assert isinstance(t, Recv) and t.vars == ("x", "y")


def test_payload_atoms_vs_process_sum():
    t = parse_process("c!q + d!q")
    assert isinstance(t, Sum)
    t = parse_process("k!(1 + 2)")
    assert isinstance(t, Send)


def test_program_declarations():
    sig, defs = parse_program(
        """
        channel c : qubit;
        channel pair : nat * bool;
        var n : nat;
        qubit q0, q1;
        process Main = c!q0 || disc(q1);
        """
    )
    assert sig.channels["c"] == ("qubit",)
    assert sig.channels["pair"] == ("nat", "bool")
    assert sig.variables["n"] == "nat"
    assert sig.qubits == ("q0", "q1")
    assert isinstance(defs["Main"], Par)


def test_process_references_expand():
    _, defs = parse_program(
        """
        channel a : nat;
        process P = a!1;
        process Q = tau.P;
        """
    )
    assert defs["Q"] == Tau(defs["P"])


@pytest.mark.parametrize("qubits_first", (True, False))
def test_a_bound_name_stays_bound_whatever_the_declaration_order(qubits_first):
    # q1 is a declared qubit and also the variable of the reception: the
    # process sends the received qubit, and the declared q2
    decl = "qubit q1, q2;\n"
    proc = "process P = c!q2 || c?q1.d!q1;\n"
    src = "channel c : qubit;\nchannel d : qubit;\n" + (decl + proc if qubits_first else proc + decl)
    _, defs = parse_program(src)
    assert defs["P"] == Par(
        Send("c", (QubitLit("q2"),)), Recv("c", ("q1",), Send("d", (Var("q1"),))))


@pytest.mark.parametrize("qubits_first", (True, False))
def test_a_referenced_definition_keeps_its_declared_qubits(qubits_first):
    # A sends the declared q; B's binder of the same name, around the
    # reference, must not capture it
    decl = "qubit q;\n"
    procs = "process A = c!q;\nprocess B = d?q.A;\n"
    src = "channel c : qubit;\nchannel d : qubit;\n" + (decl + procs if qubits_first else procs + decl)
    _, defs = parse_program(src)
    assert defs["B"] == Recv("d", ("q",), Send("c", (QubitLit("q"),)))


def test_recursion_is_rejected():
    with pytest.raises(ParseError):
        parse_program("channel a : nat; process P = tau.P;")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_process("a!1 ||")
    assert exc.value.line == 1


@pytest.mark.parametrize("parse_fn, text, col, message", [
    (parse_program, "channel c : qubit * ;", 21, "expected a type, found ';'"),
    (parse_program, "qubit q0, ;", 11, "expected an identifier, found ';'"),
    (parse_process, "c?(x, ).nil", 7, "expected an identifier, found ')'"),
    (parse_process, "c!(1, )", 7, "expected an expression, found ')'"),
])
def test_missing_item_after_a_separator(parse_fn, text, col, message):
    with pytest.raises(ParseError) as exc:
        parse_fn(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value) == f"1:{col}: {message}"


def test_observer_sort_errors():
    with pytest.raises(SortError):
        parse_observer("tau.a!1")
    with pytest.raises(SortError):
        parse_observer("(a!1) \\ a")
    with pytest.raises(SortError):
        parse_observer("c?x.disc(x) + c?y.disc(y)")
    # reception sums over distinct channels are fine
    parse_observer("c?x.disc(x) + d?y.disc(y)")


@pytest.mark.parametrize("text, message", [
    ("c?x.disc(x) + a!1", "observer sums may only contain receptions, found Send"),
    ("c?x.tau.disc(x)", "tau is not allowed in observers"),
], ids=["send-in-a-sum", "below-a-reception"])
def test_observer_sort_errors_inside_a_term(text, message):
    with pytest.raises(SortError, match=message):
        parse_observer(text)


def test_sum_of_parallel_is_rejected():
    with pytest.raises(SortError):
        parse_process("(a!1 || b!1) + tau.nil")


def test_roundtrip_fixed_examples():
    examples = [
        "nil",
        "disc(q1, q2)",
        "tau.tau.k!3",
        "H(q1).M01(q1 |> x).((if x = 0 then k!0 else k!1) || disc(q1))",
        "c?x.(H(x).c!x) + d?y.disc(y)",
        "(c!q1 || c?x.disc(x)) \\ c",
        "randbit(b).(if b = 0 then k!0 else k!1)",
        "c!(q1) || k!(1 + 2)",
        "if not (1 <= 0) then k!1 else nil",
    ]
    sig = make_signature()
    for text in examples:
        t = parse_process(text, sig)
        assert parse_process(pretty(t), sig) == t, text


def test_roundtrip_generated_terms():
    sig = make_signature()
    for seed in range(500):
        gen = TermGen(seed, sig)
        t = gen.process(frozenset({"q1", "q2"}), {}, 4)
        assert parse_process(pretty(t), sig) == t, pretty(t)


def test_roundtrip_generated_observers():
    sig = make_signature()
    for seed in range(100):
        gen = TermGen(seed + 999, sig)
        t = gen.observer(frozenset({"o1"}), {}, 3)
        assert parse_observer(pretty(t), sig) == t, pretty(t)


@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_property(seed):
    sig = make_signature()
    gen = TermGen(seed, sig)
    t = gen.process(frozenset({"q1", "q2"}), {}, 3)
    assert parse_process(pretty(t), sig) == t


def test_a_fresh_channel_name_does_not_parse():
    # a restricted channel renamed apart is called `stem#i`, so it can never
    # equal a channel of a source term
    with pytest.raises(ParseError):
        parse_process("d#0!1", make_signature())


def test_fresh_names_are_the_least_untaken():
    assert fresh_names("flag", 3, {"flag0", "flag2"}) == ["flag1", "flag3", "flag4"]
    assert fresh_channel("d#0", {"d#0"}) == "d#1"


def test_free_qubit_args_skip_bound_names():
    # x is bound by the reception; q is free in a discard, r only in a payload
    text = "c?x.H(x).disc(x) || disc(q) || d!r"
    term = parse_process(text, Signature())
    assert free_qubit_args(term) == {"q"}
    assert as_qubits(term, {"q"}) == parse_process(text)
