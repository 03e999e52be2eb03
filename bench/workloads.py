"""Seeded inputs and hand-written answers for the three workloads.

This module is plain Python and never imports lqccs: the inputs are
`.lq` source text, and every answer below is written out by hand, so
that the check of a verdict does not depend on the code under test.

- `corpus`: the nine corpus entries in a fixed order. Each entry's own
  check decides whether its verdicts are right.
- `game`: `distinguish` calls in both modes on pair families whose
  answers are known by construction (tables below). The seed draws the
  members and their order; the number drawn from each answer class is
  fixed, so every seed asks for about the same amount of work.
- `wide`: teleportation next to idle spectator qubits that the process
  discards, at 8, 9 and 10 register qubits. The seed picks the
  spectators' product states, which cannot change Bob's output.
"""

from __future__ import annotations

import random

WORKLOADS = ("corpus", "game", "wide")

# ---------------------------------------------------------------------------
# corpus

CORPUS_ORDER = (
    "table1-row2",
    "table1-row3",
    "table1-row4",
    "table1-row5",
    "table1-row6",
    "teleportation",
    "superdense",
    "qcf-n1",
    "qcf-n2",
)

# ---------------------------------------------------------------------------
# game: pair families and their answers, written by hand.
# D = distinguished (in both modes), E = never distinguished.

GATES = ("I", "H", "X", "Z", "ZX")
GATE_ANSWERS = """
      I   H   X   Z   ZX
I     E   D   D   D   D
H     D   E   D   D   D
X     D   D   E   D   D
Z     D   D   D   E   D
ZX    D   D   D   D   E
"""

PAIR_STATES = ("SetPhiP", "SetPhiM", "SetPsiP", "SetMaxMix")
STATE_ANSWERS = """
            SetPhiP  SetPhiM  SetPsiP  SetMaxMix
SetPhiP     E        D        D        D
SetPhiM     D        E        D        D
SetPsiP     D        D        E        D
SetMaxMix   D        D        D        E
"""

# family (c): a phase before a measurement in the basis it commutes with
# is invisible, with or without the outcome sent on `k`
PHASE_MEMBERS = {
    ("Z", "M01", "d!x || k!y"): "E",
    ("Z", "M01", "d!x"): "E",
    ("X", "Mpm", "d!x || k!y"): "E",
    ("X", "Mpm", "d!x"): "E",
}

MODES = ("constrained", "saturated")

# drawn per pass: (family, answer) -> count. Family (c) is not drawn but
# repeated: each of its members runs GAME_PHASE_REPEATS times per mode.
# Its saturated members are the slowest verdicts; with 4 repeats they make
# 13% of a pass, so p90 falls inside their cluster rather than on its edge.
GAME_DRAWS = {("a", "D"): 36, ("a", "E"): 9, ("b", "D"): 36, ("b", "E"): 9}
GAME_PHASE_REPEATS = 4


def _parse_table(text: str) -> dict:
    rows = [line.split() for line in text.strip().splitlines()]
    cols = rows[0]
    return {(r[0], c): mark for r in rows[1:] for c, mark in zip(cols, r[1:])}


def gate_program(g1: str, g2: str) -> str:
    return (
        "channel c : qubit;\nchannel d : qubit;\nqubit a0;\n"
        f"process L = c?x.{g1}(x).d!x;\n"
        f"process R = c?x.{g2}(x).d!x;\n"
    )


def state_program(s1: str, s2: str) -> str:
    return (
        "channel c : qubit;\nqubit q1, q2;\n"
        f"process L = {s1}(q1,q2).(c!q1 || c!q2);\n"
        f"process R = {s2}(q1,q2).(c!q1 || c!q2);\n"
    )


def phase_program(gate: str, meas: str, tail: str) -> str:
    return (
        "channel c : qubit;\nchannel d : qubit;\nchannel k : nat;\nqubit a0;\n"
        f"process L = c?x.I(x).{meas}(x |> y).({tail});\n"
        f"process R = c?x.{gate}(x).{meas}(x |> y).({tail});\n"
    )


def game_members() -> list:
    """Every family member: (family, member id, program text, answer)."""
    out = []
    for (g1, g2), mark in sorted(_parse_table(GATE_ANSWERS).items()):
        out.append(("a", f"a:{g1}/{g2}", gate_program(g1, g2), mark))
    for (s1, s2), mark in sorted(_parse_table(STATE_ANSWERS).items()):
        out.append(("b", f"b:{s1}/{s2}", state_program(s1, s2), mark))
    for (gate, meas, tail), mark in sorted(PHASE_MEMBERS.items()):
        tag = "k" if "k!" in tail else "d"
        out.append(("c", f"c:I/{gate}/{meas}/{tag}", phase_program(gate, meas, tail), mark))
    return out


def game_inputs(seed: int) -> list:
    """The seeded verdict sequence of one `game` pass: a list of dicts
    with `id`, `family`, `mode`, `source` and `answer`."""
    rng = random.Random(seed)
    members = game_members()
    items = []
    for (family, mark), count in sorted(GAME_DRAWS.items()):
        pool = [(m, mode) for m in members if m[0] == family and m[3] == mark for mode in MODES]
        items.extend(rng.choice(pool) for _ in range(count))
    phase = [(m, mode) for m in members if m[0] == "c" for mode in MODES]
    items.extend(phase * GAME_PHASE_REPEATS)
    rng.shuffle(items)
    return [
        {"id": f"{k:03d}:{m[1]}:{mode}", "member": m[1], "family": m[0],
         "mode": mode, "source": m[2], "answer": m[3]}
        for k, (m, mode) in enumerate(items)
    ]


# ---------------------------------------------------------------------------
# wide

WIDE_SIZES = (8, 9, 10)
# teleported inputs, as in the corpus entry: name -> amplitudes (a, b)
WIDE_INPUTS = (("ket0", (1.0, 0.0)), ("ket+", (0.5 ** 0.5, 0.5 ** 0.5)), ("3/5,4/5", (0.6, 0.8)))
# spectator product states: name -> amplitudes (a, b)
SPECTATOR_STATES = {
    "ket0": (1.0, 0.0),
    "ket1": (0.0, 1.0),
    "ketplus": (0.5 ** 0.5, 0.5 ** 0.5),
    "ketminus": (0.5 ** 0.5, -(0.5 ** 0.5)),
}


def wide_program(teleport_src: str, n: int) -> str:
    specs = ", ".join(f"s{i}" for i in range(n - 3))
    return f"{teleport_src}\nqubit {specs};\nprocess Wide = Tel || disc({specs});\n"


def wide_inputs(seed: int) -> list:
    """The `wide` verdicts of one pass: register size, teleported input
    and the seeded spectator states."""
    rng = random.Random(seed)
    out = []
    for n in WIDE_SIZES:
        for name, amps in WIDE_INPUTS:
            spectators = [rng.choice(tuple(SPECTATOR_STATES)) for _ in range(n - 3)]
            out.append({"id": f"n{n}:{name}", "n": n, "amps": amps, "spectators": spectators})
    return out


# ---------------------------------------------------------------------------


def self_check() -> list:
    """Problems with the benchmark's own inputs; empty when sound."""
    problems = []
    gate_table = _parse_table(GATE_ANSWERS)
    state_table = _parse_table(STATE_ANSWERS)
    if set(gate_table) != {(a, b) for a in GATES for b in GATES}:
        problems.append("gate answer table does not cover every gate pair")
    if set(state_table) != {(a, b) for a in PAIR_STATES for b in PAIR_STATES}:
        problems.append("state answer table does not cover every state pair")
    for table in (gate_table, state_table):
        for (a, b), mark in table.items():
            if mark not in "DE" or (mark == "E") != (a == b):
                problems.append(f"answer {mark!r} for {a}/{b} is not distinguished-iff-different")
    if any(mark != "E" for mark in PHASE_MEMBERS.values()):
        problems.append("a phase-before-measurement pair is not marked equivalent")
    for seed in (0, 1, 12345):
        if game_inputs(seed) != game_inputs(seed) or wide_inputs(seed) != wide_inputs(seed):
            problems.append(f"seed {seed} does not give the same inputs twice")
    if game_inputs(0) == game_inputs(1):
        problems.append("game inputs do not depend on the seed")
    return problems
