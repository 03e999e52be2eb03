"""Concrete syntax: tokenizer, recursive-descent parser, pretty printer.

Term grammar (loosest to tightest): parallel `||`, restriction `\\ c`,
sum `+`, prefixes. Prefix continuations are single prefixed terms;
parenthesize to continue with a parallel or conditional body. Conditional
branches parse maximally, so `(if e then P else Q) || R` needs the parens.

Program files are a sequence of declarations and process definitions;
earlier definitions may be referenced by name in later ones (plain macro
expansion, no recursion). Declarations are read first, so a definition's
free declared qubits become qubit atoms before a later binder around a
reference could capture them; its other free names, `var` names too, can
still be captured:

    channel c : qubit;
    channel m : nat * nat;
    var x : nat;
    qubit q0, q1;
    process Main = H(q0).M01(q0 |> x).((if x = 0 then c!q0 else c!q0) || nil);
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .syntax import (
    BOOL,
    NAT,
    QUBIT,
    ApplyOp,
    BinOp,
    BoolLit,
    Ite,
    Measure,
    NatLit,
    Nil,
    Not,
    Par,
    QubitLit,
    RandBit,
    Recv,
    Restrict,
    Send,
    Signature,
    Sum,
    Tau,
    Var,
    as_qubits,
    cached,
    check_observer,
    check_process_sorts,
    free_qubit_args,
)

KEYWORDS = {
    "nil", "disc", "tau", "if", "then", "else", "randbit",
    "true", "false", "not", "and", "or",
    "channel", "var", "qubit", "process", "nat", "bool",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>\d+)
  | (?P<op>\|\||\|>|<=|[()!?.,+\-*=\\;:|])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.defs = {}  # process definitions read so far, by name

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[min(self.i, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def fail(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- programs

    def parse_program(self):
        sig = Signature()
        bodies = []  # (name, position of the body's first token)
        while not self.at(""):
            tok = self.peek()
            if tok.text == "channel":
                self.next()
                name = self.ident()
                self.expect(":")
                sig.channels[name] = self.separated(self.base_type, "*")
                self.expect(";")
            elif tok.text == "var":
                self.next()
                name = self.ident()
                self.expect(":")
                sig.variables[name] = self.base_type()
                self.expect(";")
            elif tok.text == "qubit":
                self.next()
                sig.qubits = sig.qubits + self.separated(self.ident, ",")
                self.expect(";")
            elif tok.text == "process":
                self.next()
                name = self.ident()
                self.expect("=")
                bodies.append((name, self.i))
                while not self.at(";") and not self.at(""):
                    self.next()
                self.next()
            else:
                self.fail(f"expected a declaration, found {tok.text!r}")
        for name, start in bodies:
            self.i = start
            self.defs[name] = as_qubits(self.parse_par(), sig.qubits)
            check_process_sorts(self.defs[name])
            self.expect(";")
        if not self.defs:
            self.fail("program has no process definitions")
        return sig, self.defs

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise ParseError(f"expected an identifier, found {tok.text!r}", tok.line, tok.col)
        return tok.text

    def base_type(self) -> str:
        tok = self.next()
        if tok.text not in (QUBIT, NAT, BOOL):
            raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)
        return tok.text

    def separated(self, item, sep: str) -> tuple:
        """item (sep item)*"""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return tuple(items)

    def left_assoc(self, operand, ops: tuple, build):
        """operand (op operand)*, folded to the left by build(op, left, right)"""
        left = operand()
        while self.peek().text in ops:
            op = self.next().text
            left = build(op, left, operand())
        return left

    # -- terms

    def parse_par(self):
        return self.left_assoc(self.parse_restr, ("||",), lambda _, left, right: Par(left, right))

    def parse_restr(self):
        term = self.parse_sum()
        while self.at("\\"):
            self.next()
            term = Restrict(term, self.ident())
        return term

    def parse_sum(self):
        return self.left_assoc(self.parse_prefix, ("+",), lambda _, left, right: Sum(left, right))

    def parse_prefix(self):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        if tok.text == "nil":
            self.next()
            return Nil()
        if tok.text == "disc":
            self.next()
            return Nil(self.expr_list())
        if tok.text == "tau":
            self.next()
            self.expect(".")
            return Tau(self.parse_prefix())
        if tok.text == "randbit":
            self.next()
            self.expect("(")
            var = self.ident()
            self.expect(")")
            self.expect(".")
            return RandBit(var, self.parse_prefix())
        if tok.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_par()
            self.expect("else")
            els = self.parse_par()
            return Ite(cond, then, els)
        if tok.kind == "name" and tok.text not in KEYWORDS:
            name = self.next().text
            follow = self.peek()
            if follow.text == "!":
                self.next()
                payload = self.send_payload()
                return Send(name, payload)
            if follow.text == "?":
                self.next()
                vars_ = self.recv_pattern()
                self.expect(".")
                return Recv(name, vars_, self.parse_prefix())
            if follow.text == "(":
                self.next()
                args = self.separated(self.parse_expr, ",")
                if self.at("|>"):
                    self.next()
                    var = self.ident()
                    self.expect(")")
                    self.expect(".")
                    return Measure(name, args, var, self.parse_prefix())
                self.expect(")")
                self.expect(".")
                return ApplyOp(name, args, self.parse_prefix())
            if name in self.defs:
                return self.defs[name]
            raise ParseError(f"undefined process name {name!r}", tok.line, tok.col)
        self.fail(f"expected a process term, found {tok.text or 'end of input'!r}")

    def send_payload(self) -> tuple:
        # unparenthesized payloads are atoms, so `c!q + d!q` is a process
        # sum; compound payload expressions need parens: c!(x + 1)
        if self.at("("):
            return self.expr_list()
        return (self.parse_atom(),)

    def recv_pattern(self) -> tuple:
        if self.at("("):
            self.next()
            names = self.separated(self.ident, ",")
            self.expect(")")
            return names
        return (self.ident(),)

    def expr_list(self) -> tuple:
        """A parenthesized, possibly empty, expression list."""
        self.expect("(")
        args = () if self.at(")") else self.separated(self.parse_expr, ",")
        self.expect(")")
        return args

    # -- expressions

    def parse_expr(self):
        return self.left_assoc(self.parse_and, ("or",), BinOp)

    def parse_and(self):
        return self.left_assoc(self.parse_cmp, ("and",), BinOp)

    def parse_cmp(self):
        left = self.parse_add()
        if self.peek().text in ("=", "<="):
            op = self.next().text
            return BinOp(op, left, self.parse_add())
        return left

    def parse_add(self):
        return self.left_assoc(self.parse_mul, ("+", "-"), BinOp)

    def parse_mul(self):
        return self.left_assoc(self.parse_atom, ("*",), BinOp)

    def parse_atom(self):
        tok = self.peek()
        if tok.text == "not":
            self.next()
            return Not(self.parse_atom())
        if tok.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.text == "true":
            self.next()
            return BoolLit(True)
        if tok.text == "false":
            self.next()
            return BoolLit(False)
        if tok.kind == "num":
            self.next()
            return NatLit(int(tok.text))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text)
        self.fail(f"expected an expression, found {tok.text!r}")


def parse_program(text: str):
    """Parse a full program file: (Signature, {name: term})."""
    return _Parser(text).parse_program()


def parse_process(text: str, sig: Signature | None = None):
    """Parse a bare process term.

    Without a signature, free names used in operator, measurement, or
    discard argument positions are classified as qubit atoms.
    """
    p = _Parser(text)
    term = p.parse_par()
    tok = p.peek()
    if tok.text != "":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    term = as_qubits(term, sig.qubits if sig is not None else free_qubit_args(term))
    check_process_sorts(term)
    return term


def parse_observer(text: str, sig: Signature | None = None):
    term = parse_process(text, sig)
    check_observer(term)
    return term


# --- pretty printer ---------------------------------------------------------


def pretty_expr(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, QubitLit):
        return e.name
    if isinstance(e, NatLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Not):
        return f"not {pretty_expr(e.arg)}"
    if isinstance(e, BinOp):
        return f"({pretty_expr(e.left)} {e.op} {pretty_expr(e.right)})"
    raise TypeError(f"not an expression: {e!r}")


def _pretty_cont(t) -> str:
    # continuation of a prefix: parenthesize anything that is not a prefix
    if isinstance(t, (Par, Sum, Restrict, Ite)):
        return f"({pretty(t)})"
    return pretty(t)


@cached("_pretty")
def pretty(t) -> str:
    if isinstance(t, Nil):
        if not t.discards:
            return "nil"
        return f"disc({', '.join(pretty_expr(e) for e in t.discards)})"
    if isinstance(t, Tau):
        return f"tau.{_pretty_cont(t.cont)}"
    if isinstance(t, ApplyOp):
        return f"{t.op}({', '.join(pretty_expr(e) for e in t.args)}).{_pretty_cont(t.cont)}"
    if isinstance(t, Measure):
        args = ", ".join(pretty_expr(e) for e in t.args)
        return f"{t.op}({args} |> {t.var}).{_pretty_cont(t.cont)}"
    if isinstance(t, Recv):
        pat = t.vars[0] if len(t.vars) == 1 else "(" + ", ".join(t.vars) + ")"
        return f"{t.chan}?{pat}.{_pretty_cont(t.cont)}"
    if isinstance(t, Send):
        if len(t.payload) == 1:
            return f"{t.chan}!{_pretty_payload(t.payload[0])}"
        return f"{t.chan}!({', '.join(pretty_expr(e) for e in t.payload)})"
    if isinstance(t, Sum):
        return f"{_pretty_sum_side(t.left)} + {_pretty_sum_side(t.right)}"
    if isinstance(t, Par):
        return f"{_pretty_par_side(t.left)} || {_pretty_par_side(t.right)}"
    if isinstance(t, Restrict):
        body = pretty(t.body)
        if isinstance(t.body, (Par, Ite)):
            body = f"({body})"
        return f"{body} \\ {t.chan}"
    if isinstance(t, Ite):
        return f"if {pretty_expr(t.cond)} then {_pretty_par_side(t.then)} else {_pretty_par_side(t.els)}"
    if isinstance(t, RandBit):
        return f"randbit({t.var}).{_pretty_cont(t.cont)}"
    raise TypeError(f"not a term: {t!r}")


def _pretty_payload(e) -> str:
    s = pretty_expr(e)
    # `c!x + y` would parse as a sum of processes; keep payload atomic
    if isinstance(e, (BinOp, Not)):
        return s if s.startswith("(") else f"({s})"
    return s


def _pretty_sum_side(t) -> str:
    if isinstance(t, (Par, Restrict, Ite, Sum)):
        return f"({pretty(t)})"
    return pretty(t)


def _pretty_par_side(t) -> str:
    if isinstance(t, (Par, Ite)):
        return f"({pretty(t)})"
    return pretty(t)
