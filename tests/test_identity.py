"""Identity of configurations and distributions.

A configuration hashes its register names, process and observer only;
its rounded state key is built when two configurations agree on those,
or when a support is sorted. These tests pin the hash/eq contract, that
the key is not built where no two configurations collide, and that a
collision still tells different states apart."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature, random_config, random_density
from lqccs import qcore
from lqccs.parser import parse_process
from lqccs.semantics import (
    BOT,
    Configuration,
    Distribution,
    make_config,
    open_guards,
    proc_barbs,
    step,
)
from lqccs.syntax import Send

SIG = make_signature(("q", "q1", "o1"))


def _family(seed: int) -> list:
    """Configurations that collide on register, process and observer in
    every way: the same object, an equal copy, a copy perturbed below the
    key's rounding, a different state, a different process, and BOT."""
    c, _ = random_config(seed)
    names = c.rho.register.names
    other, _ = random_config(seed + 1)
    rng = np.random.default_rng(seed)
    return [
        c,
        Configuration(c.rho, c.proc, c.obs),
        Configuration(qcore.DensityMatrix(names, c.rho.mat.copy(), check=False), c.proc, c.obs),
        Configuration(qcore.DensityMatrix(names, c.rho.mat + 1e-12, check=False), c.proc, c.obs),
        Configuration(random_density(rng, names), c.proc, c.obs),
        Configuration(c.rho, other.proc, c.obs),
        Configuration(c.rho, c.proc, other.obs),
        other,
        BOT,
    ]


def _assert_contract(a, b):
    assert (a == b) == (a.key() == b.key())
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_configuration_identity_is_its_key(seed):
    for a, b in itertools.product(_family(seed), repeat=2):
        _assert_contract(a, b)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
def test_distribution_identity_is_its_key(seed, p):
    fam = _family(seed)
    dists = [Distribution.point(c) for c in fam]
    dists += [Distribution([(a, p), (b, 1 - p)]) for a, b in zip(fam, fam[1:])]
    for a, b in itertools.product(dists, repeat=2):
        _assert_contract(a, b)


def _ket_vectors(seed: int) -> list:
    """Kets on two qubits: one ket, the same ket, a global phase away,
    1e-12 away, the same diagonal with other phases, and another ket."""
    rng = np.random.default_rng(seed)

    def ket():
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        return v / np.linalg.norm(v)

    psi = ket()
    return [psi, psi.copy(), np.exp(0.7j) * psi, psi + 1e-12 * ket(),
            np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)) * psi, ket()]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_ket_configuration_identity_is_its_key(seed):
    """Colliding kets are compared on their diagonals before any key is
    built; equality must still be exactly equality of keys."""
    c, _ = random_config(seed)
    names = c.rho.register.names
    vecs = _ket_vectors(seed)
    for u, v in itertools.product(vecs, repeat=2):
        # fresh states, so that neither has a key and the pre-test runs
        a = Configuration(qcore.pure_state(u, names), c.proc, c.obs)
        b = Configuration(qcore.pure_state(v, names), c.proc, c.obs)
        _assert_contract(a, b)
    # a ket and its dense twin are one state
    ket = qcore.pure_state(vecs[0], names)
    dense = qcore.DensityMatrix(names, ket.mat, check=False)
    assert Configuration(ket, c.proc, c.obs) == Configuration(dense, c.proc, c.obs)


def test_equal_states_merge_and_different_states_stay_apart():
    c, *_ = _family(3)
    same = Configuration(qcore.DensityMatrix(c.rho.register.names, c.rho.mat.copy(),
                                             check=False), c.proc, c.obs)
    assert len(Distribution([(c, 0.5), (same, 0.5)])) == 1
    apart = Configuration(random_density(np.random.default_rng(0), c.rho.register.names),
                          c.proc, c.obs)
    assert len(Distribution([(c, 0.5), (apart, 0.5)])) == 2


def test_measurement_outcomes_that_share_a_process_stay_apart():
    """Both outcomes of `M01(q |> y).disc(q)` on |+> continue as `disc(q)`;
    only their states tell them apart."""
    plus = qcore.pure_state(qcore.KETP, ("q",))
    (d,) = step(make_config(plus, parse_process("M01(q |> y).disc(q)", SIG)))
    items = list(d.items())
    assert len(items) == 2
    (a, pa), (b, pb) = items
    assert abs(pa - 0.5) < 1e-9 and abs(pb - 0.5) < 1e-9
    assert a.proc is b.proc and a.obs is b.obs
    assert hash(a) == hash(b)
    assert a != b
    mats = sorted((c.rho.mat for c, _ in items), key=lambda m: m[0, 0].real)
    assert np.allclose(mats[0], qcore.projector(qcore.KET1))
    assert np.allclose(mats[1], qcore.projector(qcore.KET0))


def _count_keys(monkeypatch) -> list:
    calls = []
    key = qcore.DensityMatrix.key

    def counting(self):
        calls.append(self)
        return key(self)

    monkeypatch.setattr(qcore.DensityMatrix, "key", counting)
    return calls


def test_distinct_processes_build_no_state_key(monkeypatch):
    calls = _count_keys(monkeypatch)
    gen = TermGen(5, SIG)
    rng = np.random.default_rng(5)
    procs = {}
    while len(procs) < 6:
        c = make_config(random_density(rng, ("q1",)), gen.process(frozenset({"q1"}), {}, 2))
        procs.setdefault(c.proc, c)
    configs = list(procs.values())
    d = Distribution([(c, 1 / len(configs)) for c in configs])
    assert len(d) == len(configs)
    assert len({*configs, BOT}) == len(configs) + 1
    assert calls == []


def test_a_single_move_builds_no_state_key(monkeypatch):
    calls = _count_keys(monkeypatch)
    start = make_config(qcore.pure_state(qcore.KET0, ("q",)), parse_process("H(q).disc(q)", SIG))
    (d,) = step(start)
    ((c, p),) = d.items()
    assert p == 1.0 and np.allclose(c.rho.mat, qcore.projector(qcore.KETP))
    assert calls == []


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_open_guards_are_kept_on_the_term(seed):
    gen = TermGen(seed, SIG)
    proc = gen.process(frozenset({"q1"}), {}, 3)
    guards = open_guards(proc)
    assert isinstance(guards, tuple)
    assert open_guards(proc) is guards
    assert open_guards.__wrapped__(proc) == guards
    assert proc_barbs(proc) == frozenset(g.chan for g in guards if isinstance(g, Send))
