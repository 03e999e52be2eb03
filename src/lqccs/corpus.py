"""Executable corpus: rows 2-6 of the paper's six-row comparison table,
as data checked by one function, and the three protocols (teleportation,
superdense coding, quantum coin flipping). Each entry carries its program
source, the bounds its check runs with, and the check."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import qcore
from .equiv import (
    CONSTRAINED,
    SATURATED,
    CertifiedBisimilar,
    Distinguished,
    SearchBounds,
    advance_scheduled,
    advance_unique,
    config_partial_trace,
    density_quotient_equiv,
    distinguish,
)
from .osem import apply_context, lift_estep
from .parser import parse_process, parse_program
from .qcore import TOL_MAT, TOL_PROB
from .semantics import (Distribution, at_index, barb_mismatch, config_barbs, dist_barbs,
                        exec_view, make_config)
from .syntax import Send, Signature


@dataclass
class CorpusEntry:
    name: str
    source: str
    bounds: SearchBounds
    run: Callable = field(repr=False)  # () -> (ok, detail)


def _point(state, proc):
    return Distribution.point(make_config(state, proc))


def _zeros(names):
    """The all-|0> state on the named qubits."""
    return qcore.pure_state(qcore.kron_all([qcore.KET0] * len(names)), names)


def _forced_end(dist, sig):
    """The end of the forced run from `dist`, or None unless the run takes
    5 steps, as each protocol's forced prefix does."""
    run = advance_unique(dist, sig)
    return run[-1] if len(run) - 1 == 5 else None


# ---------------------------------------------------------------------------
# Table rows: each pair `Left`/`Right` starts from the all-|0> state on
# `qubits` and must get the `expected` (mode, verdict, certificate kind)
# from `distinguish` at `bounds`, with `hint` as the only hint context.


@dataclass(frozen=True)
class TableRow:
    name: str
    source: str
    qubits: tuple
    bounds: SearchBounds
    expected: tuple  # ((mode, verdict, certificate kind or None), ...)
    detail: str
    hint: str | None = None
    evidence: Callable | None = None  # (sig, dl, dr, bounds) -> failure or None


def check_row(row: TableRow):
    """-> (ok, detail): run `distinguish` in each expected mode and compare
    the verdict, the certificate kind and, for a hinted distinguisher,
    that the witness is the hint context."""
    sig, defs = parse_program(row.source)
    state = _zeros(row.qubits)
    dl, dr = _point(state, defs["Left"]), _point(state, defs["Right"])
    hint = None if row.hint is None else parse_process(row.hint, sig)
    bounds = row.bounds if hint is None else replace(row.bounds, hint_contexts=(hint,))
    for mode, verdict, kind in row.expected:
        v = distinguish(dl, dr, mode, bounds, sig)
        if v.verdict != verdict:
            return False, f"{mode} mode: {v.verdict}, expected {verdict}"
        if kind is not None and v.certificate[0] != kind:
            return False, f"{mode} mode: certificate {v.certificate[0]}, expected {kind}"
        if hint is not None and isinstance(v, Distinguished) and v.witness.context != hint:
            return False, f"{mode} mode: the witness is not the hint context"
    failure = row.evidence and row.evidence(sig, dl, dr, row.bounds)
    if failure:
        return False, failure
    return True, row.detail


def _discard_tracing(sig, dl, dr, bounds):
    """After any preparation is delivered and the qubit discarded, tracing
    out the discard equates both sides."""
    sig.qubits = ("anc0",)  # the preparations name the ancilla
    for prep in ("c!anc0", "H(anc0).c!anc0", "X(anc0).c!anc0"):
        frame = parse_process(prep, sig)
        red_l, red_r = (
            config_partial_trace(
                advance_unique(at_index(lift_estep(ctx, sig), "")[0], sig)[-1], ("anc0",))
            for ctx in (apply_context(dl, frame), apply_context(dr, frame))
        )
        cert = density_quotient_equiv(red_l, red_r, bounds, sig)
        if not isinstance(cert, CertifiedBisimilar):
            return f"trace-reduction certificate failed for prep {prep}"
    return None


_DISTINGUISHED_BOTH = (
    (SATURATED, "distinguished", None),
    (CONSTRAINED, "distinguished", None),
)

TABLE1 = (
    TableRow(
        name="table1-row2",
        source="""
channel c : qubit;
process Left = c?x.H(x).disc(x);
process Right = c?x.X(x).disc(x);
""",
        qubits=("anc0",),
        bounds=SearchBounds(context_size=12, depth=4, fresh_channels=2, ancillas=0),
        expected=(
            (SATURATED, "inconclusive-at-bounds", None),
            (CONSTRAINED, "inconclusive-at-bounds", None),
        ),
        detail="no distinguisher at bounds; certified after discard tracing",
        evidence=_discard_tracing,
    ),
    TableRow(
        name="table1-row3",
        source="""
channel c : qubit;
channel d : qubit;
process Left = c?x.H(x).d!x;
process Right = c?x.X(x).d!x;
""",
        qubits=("anc0",),
        bounds=SearchBounds(context_size=14, depth=5, fresh_channels=2, ancillas=0),
        expected=_DISTINGUISHED_BOTH,
        detail="distinguished in both modes",
    ),
    TableRow(
        name="table1-row4",
        source="""
channel c : qubit;
qubit q1, q2;
process Left = SetMaxMix(q1,q2).(c!q1 || c!q2);
process Right = SetPhiP(q1,q2).(c!q1 || c!q2);
""",
        qubits=("q1", "q2"),
        bounds=SearchBounds(context_size=14, depth=5, fresh_channels=2, ancillas=0),
        expected=_DISTINGUISHED_BOTH,
        detail="distinguished in both modes (entangled pair detected)",
    ),
    TableRow(
        name="table1-row5",
        source="""
channel c : qubit;
qubit q;
process Left = SetPlus(q).M01(q |> x).c!q;
process Right = Set0(q).Mpm(q |> x).c!q;
""",
        qubits=("q",),
        bounds=SearchBounds(context_size=14, depth=6, fresh_channels=4, ancillas=0),
        # the two-basis reception context: it chooses the basis without
        # measuring, which only saturated contexts may do
        hint=(
            "c?x.(M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))"
            " + Mpm(x |> y).((if y = 0 then flag2!0 else flag3!0) || disc(x)))"
        ),
        expected=(
            (SATURATED, "distinguished", None),
            (CONSTRAINED, "certified-bisimilar", "density-quotient"),
        ),
        detail="distinguished saturated (two-basis context), certified constrained",
    ),
    TableRow(
        name="table1-row6",
        source="""
channel c : qubit;
channel d : qubit;
qubit q;
process Left = SetPlus(q).M01(q |> x).(c!q + d!q);
process Right = Set0(q).Mpm(q |> x).(c!q + d!q);
""",
        qubits=("q",),
        bounds=SearchBounds(context_size=14, depth=6, fresh_channels=2, ancillas=0),
        # the reception-sum context: the process's choice of channel is
        # correlated with its measurement
        hint=(
            "c?x.M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))"
            " + d?x.I(x).disc(x)"
        ),
        expected=((CONSTRAINED, "distinguished", None),),
        detail="distinguished constrained (measurement-correlated choice)",
    ),
)


def build_table1():
    return [CorpusEntry(r.name, r.source, r.bounds, partial(check_row, r)) for r in TABLE1]


# ---------------------------------------------------------------------------
# teleportation


TELEPORT_SRC = """
channel m : nat;
channel out : qubit;
qubit q0, q1, q2;
process Bob = m?y.(if y = 0 then I(q2).out!q2
              else (if y = 1 then X(q2).out!q2
              else (if y = 2 then Z(q2).out!q2 else ZX(q2).out!q2)));
process Alice = CNOT(q0,q1).H(q0).M01(q0,q1 |> x).(m!x || disc(q0,q1));
process Tel = (Alice || Bob) \\ m;
process Spec = SWAP(q0,q2).tau.tau.tau.tau.(out!q2 || disc(q0,q1));
"""


TELEPORT_STATES = (
    ("ket0", qcore.KET0),
    ("ket+", qcore.KETP),
    ("3/5,4/5", np.array([[0.6], [0.8]], dtype=complex)),
)


def build_teleportation() -> CorpusEntry:
    bounds = SearchBounds(depth=8)

    def check():
        sig, defs = parse_program(TELEPORT_SRC)
        out_send = parse_process("out!q2", sig)
        for name, psi in TELEPORT_STATES:
            st = qcore.pure_state(qcore.kron(psi, qcore.PHI_P), ("q0", "q1", "q2"))
            ends = [_forced_end(_point(st, defs[p]), sig) for p in ("Tel", "Spec")]
            if any(end is None for end in ends):
                return False, f"{name}: protocol or specification is not 5 forced steps"
            reduced, spec = (config_partial_trace(end, ("q0", "q1")) for end in ends)
            target = _point(qcore.pure_state(psi, ("q2",)), out_send)
            for other, what in ((target, "the input state"), (spec, "the specification")):
                cert = density_quotient_equiv(reduced, other, bounds, sig)
                if not isinstance(cert, CertifiedBisimilar):
                    return False, f"{name}: output not certified equal to {what}"
        return True, "output state certified for all sampled inputs; spec matched in lockstep"

    return CorpusEntry("teleportation", TELEPORT_SRC, bounds, check)


# ---------------------------------------------------------------------------
# superdense coding


SUPERDENSE_SRC = """
channel c : qubit;
channel a : qubit;
channel b : qubit;
channel success : qubit;
channel fail : qubit;
qubit q0, q1;
process Alice = PauliMix(q0).c!q0;
process Bob = c?x.CNOT(x,q1).H(x).M01(x,q1 |> y).((a!x + b!x) || disc(q1));
process Rob = c?x.CNOT(x,q1).H(x).tau.((a!x + b!x) || disc(q1));
process SDCBob = (Alice || Bob) \\ c;
process SDCRob = (Alice || Rob) \\ c;
"""

_SUPERDENSE_CTX = (
    "a?z.M01(z |> res).(if res = 0 then success!z else fail!z)"
    " + b?z.I(z).disc(z)"
)


def _reachable_barbmaps(dist, sig, depth):
    """All barb maps reachable through the indexed lifting."""
    seen = set()
    out = []
    frontier = [dist]
    for _ in range(depth):
        nxt = []
        for d in frontier:
            for _, succ in lift_estep(d, sig):
                if succ in seen:
                    continue
                seen.add(succ)
                out.append(dist_barbs(succ))
                nxt.append(succ)
        frontier = nxt
    return out


def build_superdense() -> CorpusEntry:
    bounds = SearchBounds(depth=8, ancillas=0, fresh_channels=2)

    def check():
        sig, defs = parse_program(SUPERDENSE_SRC)
        st = qcore.pure_state(qcore.PSI_P, ("q0", "q1"))
        dbob = _point(st, defs["SDCBob"])
        drob = _point(st, defs["SDCRob"])
        # forced decode prefixes; Rob passes through the maximally mixed pair
        end_b, end_r = _forced_end(dbob, sig), _forced_end(drob, sig)
        if end_b is None or end_r is None:
            return False, "decode prefixes are not 5 forced steps"
        (rob_cfg, _), = end_r.items()
        if not np.allclose(rob_cfg.rho.mat, np.eye(4) / 4, atol=TOL_MAT):
            return False, "Rob's decoded state is not the maximally mixed pair"
        frame = parse_process(_SUPERDENSE_CTX, sig)
        bob_maps = _reachable_barbmaps(apply_context(end_b, frame), sig, 3)
        rob_maps = _reachable_barbmaps(apply_context(end_r, frame), sig, 3)
        hit = any(
            abs(m.get("success", 0.0) - 0.5) <= TOL_PROB
            and m.get("fail", 0.0) <= TOL_PROB
            for m in bob_maps
        )
        if not hit:
            return False, "Bob cannot reach success 1/2 with fail 0"
        for m in rob_maps:
            s, f = m.get("success", 0.0), m.get("fail", 0.0)
            if abs(s - f) > TOL_PROB or (abs(s) > TOL_PROB and abs(s - 0.5) > TOL_PROB):
                return False, f"Rob reached success {s}, fail {f}"
        v = distinguish(dbob, drob, CONSTRAINED, replace(bounds, hint_contexts=(frame,)), sig)
        if not isinstance(v, Distinguished):
            return False, f"constrained mode: {v.verdict}"
        return True, "Bob reaches success 1/2, fail 0; Rob both-or-neither; distinguished"

    return CorpusEntry("superdense", SUPERDENSE_SRC, bounds, check)


# ---------------------------------------------------------------------------
# quantum coin flipping


def _bit_expr(n: int, i: int, var: str) -> str:
    """Boolean expression for bit i (leading bit first) of the n-qubit
    measurement outcome held in `var`."""
    if n == 1:
        return f"({var} = 1)"
    if i == 1:
        return f"(2 <= {var})"
    return f"(({var} = 1) or ({var} = 3))"


def qcf_source(n: int) -> str:
    if n not in (1, 2):
        raise ValueError("coin flipping corpus supports n in {1, 2}")
    qs = [f"q{i+1}" for i in range(n)]
    decls = [
        "channel atob : " + " * ".join(["qubit"] * n) + ";",
        "channel guess : nat;",
        "channel secret : nat;",
        "channel witness : nat;",
        "channel a : nat;",
        "channel b : nat;",
        "channel cheat : nat;",
    ]
    for i in range(1, n + 1):
        decls.append(f"channel base{i} : nat;")
        decls.append(f"channel bit{i} : nat;")
    decls.append("qubit " + ", ".join(qs) + ";")

    qtuple = ", ".join(qs)
    zvars = [f"z{i}" for i in range(1, n + 1)]

    alice_tail = (
        "(atob!(" + qtuple + ") || guess?g.(a!AWIN || secret!SEC || witness!w))"
    )
    a01_tail = alice_tail.replace("AWIN", "((1 - g) * 1 + g * 0)").replace("SEC", "0")
    apm_tail = alice_tail.replace("AWIN", "((1 - g) * 0 + g * 1)").replace("SEC", "1")
    alice01 = f"H({qtuple}).M01({qtuple} |> w).{a01_tail}"
    alicepm = f"I({qtuple}).Mpm({qtuple} |> w).{apm_tail}"

    servers = []
    for i in range(1, n + 1):
        z = zvars[i - 1]
        servers.append(
            f"process Server{i} = randbit(sb{i}).(if sb{i} = 0 "
            f"then M01({z} |> x{i}).(base{i}!sb{i} || bit{i}!x{i} || disc({z})) "
            f"else Mpm({z} |> x{i}).(base{i}!sb{i} || bit{i}!x{i} || disc({z})));"
        )
    bob_recv = "".join(f"base{i}?b{i}." for i in range(1, n + 1)) + "".join(
        f"bit{i}?x{i}." for i in range(1, n + 1)
    )
    # a server outcome disagrees with the revealed witness bit only under
    # a matching basis; the bit values are compared as booleans
    cheats = " || ".join(
        f"(if (b{i} = g2) and (not ((x{i} = 1) = {_bit_expr(n, i, 'v')})) "
        "then cheat!0 else nil)"
        for i in range(1, n + 1)
    )
    bob_tail = (
        f"secret?g2.witness?v.(b!((1 - g) * (1 - g2) + g * g2) || {cheats})"
    )
    bob2 = f"{bob_recv}randbit(g).(guess!g || {bob_tail})"
    hide = "".join(f" \\ base{i} \\ bit{i}" for i in range(1, n + 1))
    srv_par = " || ".join(f"Server{i}" for i in range(1, n + 1))

    lines = decls + servers + [
        f"process Alice01 = {alice01};",
        f"process AlicePM = {alicepm};",
        "process Alice = randbit(sv).(if sv = 0 then Alice01 else AlicePM);",
        f"process Bob = atob?({', '.join(zvars)}).(({srv_par} || {bob2}){hide});",
        "process QCF = (Alice || Bob) \\ atob \\ guess \\ secret \\ witness;",
        "process FairCoin = "
        + "tau." * (4 * n + 5)
        + "randbit(x).(a!x || tau.tau.b!x || disc(" + qtuple + "));",
    ]
    return "\n".join(lines)


def _lockstep(sig, defs, state, proc, spec, max_steps):
    """-> (run, failure): run `proc` and its specification `spec` with the
    fixed schedule; they must take as many steps and show the same barbs
    at each step."""
    run = advance_scheduled(_point(state, defs[proc]), sig, max_steps=max_steps)
    ref = advance_scheduled(_point(state, defs[spec]), sig, max_steps=max_steps)
    if len(run) != len(ref):
        return None, f"step counts differ: {proc} {len(run) - 1}, {spec} {len(ref) - 1}"
    for k, (dp, ds) in enumerate(zip(run, ref)):
        bm = barb_mismatch(dist_barbs(dp), dist_barbs(ds))
        if bm is not None:
            return None, f"{proc} diverges from {spec} at step {k}: {bm}"
    return run, None


def build_qcf(n: int = 1) -> CorpusEntry:
    src = qcf_source(n)
    bounds = SearchBounds(depth=6, fresh_channels=4, ancillas=0)

    def check():
        sig, defs = parse_program(src)
        zeros = _zeros(tuple(f"q{i+1}" for i in range(n)))
        # fairness: the protocol runs in lockstep with the specification
        run, failure = _lockstep(sig, defs, zeros, "QCF", "FairCoin", 16 * n + 16)
        if failure:
            return False, failure
        masses = {0: 0.0, 1: 0.0}
        for cfg, p in run[-1].items():
            barbs = sorted(config_barbs(cfg))
            if barbs != ["a", "b"]:
                return False, f"final element with barbs {barbs}"
            sends = _outcome_payloads(cfg.proc)
            if sends.get("a") != sends.get("b"):
                return False, "a and b carry different bits"
            masses[sends["a"]] = masses.get(sends["a"], 0.0) + p
        if abs(masses[0] - 0.5) > TOL_PROB or abs(masses[1] - 0.5) > TOL_PROB:
            return False, f"outcome masses {masses} are not a fair coin"
        if any("cheat" in dist_barbs(d) for d in run):
            return False, "honest run expressed the cheat barb"
        # dishonest Bob: the sent prefixes are certified equal, yet
        # distinguishable under unconstrained contexts; dishonest Alice wins
        failure = _qcf_dishonest_bob(sig, n) or _qcf_dishonest_alice(n)
        if failure:
            return False, failure
        return True, "fair outcome; Bob cannot cheat (certified); Alison always wins"

    return CorpusEntry(f"qcf-n{n}", src, bounds, check)


def _outcome_payloads(proc) -> dict:
    """Channel -> the number sent, for each single-value send in parallel
    on a channel not restricted."""
    comps, restricted = exec_view(proc)
    return {
        comp.chan: int(comp.payload[0].value)
        for comp in comps
        if isinstance(comp, Send) and comp.chan not in restricted and len(comp.payload) == 1
        and hasattr(comp.payload[0], "value")
    }


def _qcf_dishonest_bob(sig: Signature, n: int):
    send = parse_process("atob!(" + ", ".join(f"q{i+1}" for i in range(n)) + ")", sig)
    names = tuple(f"q{i+1}" for i in range(n))
    dim = 1 << n
    basis = np.eye(dim, dtype=complex)
    # Alice's uniform mixtures over the computational and the Hadamard basis
    a01, apm = (
        Distribution([
            (make_config(qcore.pure_state(u @ basis[:, [j]], names), send), 1.0 / dim)
            for j in range(dim)
        ])
        for u in (basis, qcore.kron_all([qcore.H] * n))
    )
    cert = density_quotient_equiv(a01, apm, SearchBounds(), sig)
    if not isinstance(cert, CertifiedBisimilar):
        return "message prefixes not certified equal"
    ys = ", ".join(f"y{i}" for i in range(n))
    hint = parse_process(
        f"atob?({ys})."
        f"(M01(y0 |> r).((if r = 0 then flag0!0 else flag1!0) || disc({ys}))"
        f" + Mpm(y0 |> r).((if r = 0 then flag2!0 else flag3!0) || disc({ys})))",
        sig,
    )
    bounds = SearchBounds(depth=4, fresh_channels=4, ancillas=0, hint_contexts=(hint,))
    v = distinguish(a01, apm, SATURATED, bounds, sig)
    if not isinstance(v, Distinguished):
        return f"prefixes not distinguished in saturated mode: {v.verdict}"
    return None


def alison_source(n: int) -> str:
    base = qcf_source(n)
    qs = [f"q{i+1}" for i in range(n)]
    qps = [f"qp{i+1}" for i in range(n)]
    prep = "".join(f"SetPhiP({q},{qp})." for q, qp in zip(qs, qps))
    qptuple = ", ".join(qps)
    tail = f"(witness!u || disc({qptuple}))"
    alison2 = (
        "guess?g.(a!0 || secret!(1 - g) || "
        f"(if (1 - g) = 0 then M01({qptuple} |> u).{tail} "
        f"else Mpm({qptuple} |> u).{tail}))"
    )
    lines = [
        f"qubit {qptuple};",
        base,
        f"process Alison = {prep}(atob!({', '.join(qs)}) || {alison2});",
        "process QCFAlison = (Alison || Bob) \\ atob \\ guess \\ secret \\ witness;",
        "process UnfairCoin = "
        + "tau." * (5 * n + 3)
        + "(a!0 || tau.tau.tau.b!0 || disc(" + ", ".join(qs) + ") || disc("
        + qptuple + "));",
    ]
    return "\n".join(lines)


def _qcf_dishonest_alice(n: int):
    sig, defs = parse_program(alison_source(n))
    zeros = _zeros(tuple([f"q{i+1}" for i in range(n)] + [f"qp{i+1}" for i in range(n)]))
    run, failure = _lockstep(sig, defs, zeros, "QCFAlison", "UnfairCoin", 16 * n + 16)
    if failure:
        return failure
    for cfg, p in run[-1].items():
        sends = _outcome_payloads(cfg.proc)
        if sends.get("a") != 0 or sends.get("b") != 0:
            return "Alison did not force outcome 0 on both channels"
    if any("cheat" in dist_barbs(d) for d in run):
        return "Alison was caught cheating"
    return None


# ---------------------------------------------------------------------------


def _protocols():
    return [build_teleportation(), build_superdense(), build_qcf(1)]


def all_entries():
    return build_table1() + _protocols()


def suite(name: str):
    named = {"table1": build_table1, "protocols": _protocols, "all": all_entries}
    if name in named:
        return named[name]()
    for entry in all_entries():
        if entry.name == name:
            return [entry]
    raise KeyError(f"unknown suite or entry {name!r}")
