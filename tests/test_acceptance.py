"""Acceptance gate: one test per criterion, each printing a PASS line
with its wall-clock time. Tolerances are pinned at 1e-9 where the
criterion is numeric."""

import time

import numpy as np
import pytest

from genterms import TermGen, make_signature, mirror, random_density
from lqccs import corpus, qcore
from lqccs.claims import (
    check_nondet_vs_ite,
    crossvalidate_semantics,
    partial_trace_necessary,
    refines_upto,
    replay_measurement_witness,
)
from lqccs.equiv import (
    CONSTRAINED,
    SATURATED,
    CertifiedBisimilar,
    Distinguished,
    SearchBounds,
    _node_count,
    density_quotient_equiv,
    distinguish,
    replay_witness,
)
from lqccs.errors import LinearityError
from lqccs.ops import resolve_operator
from lqccs.parser import parse_process
from lqccs.semantics import Distribution, dist_barbs, lift_step, make_config, mixture
from lqccs.typecheck import typecheck

TOL = 1e-9


def _report(num, label, t0):
    print(f"ACCEPTANCE {num} PASS ({time.monotonic() - t0:.2f}s): {label}")


def test_criterion_1_quantum_backend_exactness():
    t0 = time.monotonic()
    rho = qcore.pure_state(qcore.KET0, ("q",))
    got = qcore.apply_superop(resolve_operator("H", 1), ("q",), rho)
    assert np.max(np.abs(got.mat - qcore.projector(qcore.KETP))) < TOL

    red = qcore.partial_trace(qcore.pure_state(qcore.PHI_P, ("a", "b")), ("a",))
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < TOL

    mixed = qcore.mix(qcore.pure_state(qcore.KET0, ("q",)),
                      qcore.pure_state(qcore.KETP, ("q",)), 1 / 3)
    assert np.max(np.abs(mixed.mat - np.array([[2, 1], [1, 1]]) / 3)) < TOL

    pauli = qcore.Superoperator.probabilistic(
        [(0.25, qcore.I2), (0.25, qcore.X), (0.25, qcore.Z), (0.25, qcore.ZX)]
    )
    out = qcore.apply_superop(pauli, ("a",), qcore.pure_state(qcore.PSI_P, ("a", "b")))
    want = 0.25 * sum(
        qcore.projector(v) for v in (qcore.PHI_P, qcore.PHI_M, qcore.PSI_P, qcore.PSI_M)
    )
    assert np.max(np.abs(out.mat - want)) < TOL
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "backend exactness at 1e-9", t0)


def test_criterion_2_typing():
    t0 = time.monotonic()
    sig = make_signature(("q", "q1", "q2"))
    sig.channels["a"] = ("nat",)
    sig.channels["b"] = ("nat",)
    ql = parse_process("H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q))", sig)
    assert typecheck(sig, ql) == frozenset({"q"})
    for row1 in ("c?x.H(x).nil", "c?x.X(x).nil"):
        with pytest.raises(LinearityError):
            typecheck(sig, parse_process(row1, sig))
    for seed in range(500):
        gen = TermGen(seed, sig)
        term = gen.process(frozenset({"q1", "q2"}), {}, 4)
        assert typecheck(sig, term) == typecheck(sig, mirror(term)) == frozenset({"q1", "q2"})
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, "unique typing over 500 random terms; illegal rows rejected", t0)


def test_criterion_3_quantum_lottery_semantics():
    t0 = time.monotonic()
    sig = make_signature(("q",))
    sig.channels["a"] = ("nat",)
    sig.channels["b"] = ("nat",)
    ql = parse_process("H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q))", sig)
    d = Distribution.point(make_config(qcore.pure_state(qcore.KET0, ("q",)), ql))

    ((_, d1),) = lift_step(d, sig)
    ((c1, p1),) = list(d1.items())
    assert abs(p1 - 1.0) < TOL
    assert np.max(np.abs(c1.rho.mat - qcore.projector(qcore.KETP))) < TOL

    ((_, d2),) = lift_step(d1, sig)
    assert len(d2) == 2
    states = sorted(np.real(c.rho.mat[0, 0]) for c, _ in d2.items())
    assert abs(states[0] - 0.0) < TOL and abs(states[1] - 1.0) < TOL

    barbs = dist_barbs(d2)
    assert abs(barbs["a"] - 0.5) < TOL and abs(barbs["b"] - 0.5) < TOL

    ((_, d3),) = lift_step(d2, sig)
    assert abs(d3.bot_mass() - 1.0) < TOL
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, "lottery chain reproduced, final barbs a/b at one half", t0)


@pytest.mark.parametrize("entry", corpus.build_table1(), ids=lambda e: e.name)
def test_criterion_4_table_rows(entry):
    t0 = time.monotonic()
    assert entry.bounds.context_size <= 14
    assert entry.bounds.depth <= 6
    ok, detail = entry.run()
    elapsed = time.monotonic() - t0
    assert ok, detail
    assert elapsed < 60.0
    _report(4, f"{entry.name}: {detail}", t0)


def test_criterion_5a_mixture_certificates():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for procsrc in ("c!q", "M01(q |> x).c!q"):
        proc = parse_process(procsrc, make_signature(("q",)))
        for trial in range(25):
            rho = random_density(rng, ("q",))
            sigma = random_density(rng, ("q",))
            p = float(rng.uniform())
            dl = mixture(
                Distribution.point(make_config(rho, proc)),
                Distribution.point(make_config(sigma, proc)),
                p,
            )
            dr = Distribution.point(make_config(qcore.mix(rho, sigma, p), proc))
            assert isinstance(density_quotient_equiv(dl, dr), CertifiedBisimilar)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, "a: 50 random mixtures certified bisimilar", t0)


def test_criterion_5b_refinement_moves_matched():
    import test_equiv

    t0 = time.monotonic()
    sig = make_signature(("q", "q1", "q2", "o1"))
    count = 0
    for seed in range(800):
        gen = TermGen(seed, sig)
        big = gen.process(frozenset({"q1"}), {}, 4)
        small, changed = test_equiv._refine_randomly(gen, big, {})
        if not changed:
            continue
        assert refines_upto(small, big)
        st = random_density(np.random.default_rng(seed), ("q1",))
        ds = Distribution.point(make_config(st, small))
        db = Distribution.point(make_config(st, big))
        ok, why = check_nondet_vs_ite(ds, db, SearchBounds(depth=3), sig)
        assert ok, f"seed {seed}: {why}"
        count += 1
        if count >= 50:
            break
    assert count >= 50
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, "b: 50 random refinements matched move for move at depth 3", t0)


def test_criterion_5c_partial_trace_refutations():
    t0 = time.monotonic()
    sig = make_signature(("q",))
    disc = parse_process("disc(q)", sig)
    rng = np.random.default_rng(7)
    done = 0
    while done < 20:
        rho = random_density(rng, ("q", "e"))
        sigma = random_density(rng, ("q", "e"))
        dl = Distribution.point(make_config(rho, disc))
        dr = Distribution.point(make_config(sigma, disc))
        verdict, wit = partial_trace_necessary(dl, dr)
        if verdict != "refuted":
            continue
        assert replay_measurement_witness(dl, dr, wit, sig)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, "c: 20 unequal partial traces refuted with replayable witnesses", t0)


def test_criterion_6_semantics_cross_validation():
    from genterms import random_config

    t0 = time.monotonic()
    checked = 0
    mismatch_total = 0
    seed = 0
    while checked < 200:
        cfg, sig = random_config(seed)
        seed += 1
        if cfg.obs is not None and _node_count(cfg.obs) > 8:
            continue
        ok, mismatches = crossvalidate_semantics(cfg, depth=2, sig=sig)
        mismatch_total += len(mismatches)
        checked += 1
    assert mismatch_total == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(6, "200 random configurations agree across both semantics at depth 2", t0)


def test_criterion_7_protocols():
    t0 = time.monotonic()
    for entry in (corpus.build_teleportation(), corpus.build_superdense(), corpus.build_qcf(1)):
        ok, detail = entry.run()
        assert ok, f"{entry.name}: {detail}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(7, "teleportation, superdense coding, and coin flipping verified", t0)


def test_criterion_8_witness_soundness():
    t0 = time.monotonic()
    replayed = 0

    def run_pair(srcs, chans, state_names, vec, mode, hints=(), qubits=()):
        sig = make_signature(qubits)
        sig.channels.update(chans)
        dl = Distribution.point(
            make_config(qcore.pure_state(vec, state_names), parse_process(srcs[0], sig))
        )
        dr = Distribution.point(
            make_config(qcore.pure_state(vec, state_names), parse_process(srcs[1], sig))
        )
        hint_terms = tuple(parse_process(h, sig) for h in hints)
        bounds = SearchBounds(depth=6, ancillas=0, fresh_channels=4, hint_contexts=hint_terms)
        v = distinguish(dl, dr, mode, bounds, sig)
        assert isinstance(v, Distinguished)
        assert replay_witness(dl, dr, v.witness, mode, bounds, sig)
        return 1

    # barb mismatch, gate difference, measurement-basis difference, both modes
    replayed += run_pair(
        ("k!0 || disc(q)", "l!true || disc(q)"), {}, ("q",), qcore.KET0, CONSTRAINED,
        qubits=("q",),
    )
    replayed += run_pair(
        ("H(q).c!q", "X(q).c!q"), {}, ("q",), qcore.KET0, CONSTRAINED, qubits=("q",)
    )
    replayed += run_pair(
        ("SetPlus(q).M01(q |> x).c!q", "Set0(q).Mpm(q |> x).c!q"),
        {},
        ("q",),
        qcore.KET0,
        SATURATED,
        hints=(
            "c?x.(M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))"
            " + Mpm(x |> y).((if y = 0 then flag2!0 else flag3!0) || disc(x)))",
        ),
        qubits=("q",),
    )
    replayed += run_pair(
        ("SetPlus(q).M01(q |> x).(c!q + d!q)", "Set0(q).Mpm(q |> x).(c!q + d!q)"),
        {},
        ("q",),
        qcore.KET0,
        CONSTRAINED,
        hints=(
            "c?x.M01(x |> y).((if y = 0 then flag0!0 else flag1!0) || disc(x))"
            " + d?x.I(x).disc(x)",
        ),
        qubits=("q",),
    )
    assert replayed == 4
    _report(8, "all distinguishing witnesses replay from the witness alone", t0)
