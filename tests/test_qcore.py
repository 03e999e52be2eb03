import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqccs import qcore
from lqccs.cli import build_state
from lqccs.errors import ArityError, RegisterError, TargetError
from lqccs.ops import STATES, resolve_measurement, resolve_operator
from lqccs.qcore import (
    CNOT,
    H,
    I2,
    KET0,
    KET1,
    KETM,
    KETP,
    PHI_M,
    PHI_P,
    PSI_M,
    PSI_P,
    X,
    Z,
    DensityMatrix,
    Measurement,
    Superoperator,
    apply_superop,
    kron,
    kron_all,
    measure,
    mix,
    partial_trace,
    projector,
    pure_state,
)
from lqccs.syntax import Signature


def ident(n):
    return np.eye(n, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), ident(4))

    def test_basis_product(self):
        assert np.allclose(kron(KET0, KET1), np.array([[0], [1], [0], [0]]))

    def test_x_on_first_qubit(self):
        # oracle: direct 4x4 matrix-vector product
        m = kron(X, I2)
        v00 = kron(KET0, KET0)
        assert np.allclose(m @ v00, kron(KET1, KET0))


def bit_permutation(order, n):
    """Basis-index permutation p: qubit j of p[i] is qubit order[j] of i
    (qubit 0 is the most significant bit)."""
    perm = np.empty(1 << n, dtype=np.int64)
    for idx in range(1 << n):
        out = 0
        for new_pos, old_pos in enumerate(order):
            bit = (idx >> (n - 1 - old_pos)) & 1
            out |= bit << (n - 1 - new_pos)
        perm[idx] = out
    return perm


def dense_embedding(op, positions, n):
    """Oracle: `op` on the qubits `positions` of an n-qubit register as a
    2^n x 2^n matrix, built as op (x) I and re-indexed so that the targets
    move from the front to `positions`."""
    rest = [q for q in range(n) if q not in positions]
    perm = bit_permutation(list(positions) + rest, n)
    big = np.kron(op, ident(1 << (n - len(positions))))
    return big[np.ix_(perm, perm)]


def random_state(rng, n):
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = a @ a.conj().T
    return rho / rho.trace()


def register(n):
    return tuple(f"q{i}" for i in range(n))


class TestLiftAt:
    """Operators on a subset of the register, against `dense_embedding`."""

    def test_no_lift_needed(self):
        assert np.allclose(dense_embedding(H, [0], 1), H)
        rho = random_state(np.random.default_rng(1), 1)
        out = apply_superop(resolve_operator("H", 1), ("q",), DensityMatrix(("q",), rho, check=False))
        assert np.allclose(out.mat, H @ rho @ H.conj().T)

    def test_x_on_second_qubit(self):
        # oracle: explicit I (x) X product applied to |00><00|
        assert np.allclose(dense_embedding(X, [1], 2), kron(I2, X))
        rho = pure_state(kron(KET0, KET0), ("a", "b"))
        got = apply_superop(resolve_operator("X", 1), ("b",), rho)
        assert np.allclose(got.mat, projector(kron(KET0, KET1)))

    def test_cnot_reversed_control(self):
        # oracle: SWAP . CNOT . SWAP on |01><01| -> |11><11|
        swap = qcore.SWAP
        want = swap @ CNOT @ swap
        assert np.allclose(dense_embedding(CNOT, [1, 0], 2), want)
        rho = random_state(np.random.default_rng(7), 2)
        got = apply_superop(resolve_operator("CNOT", 2), ("b", "a"), DensityMatrix(("a", "b"), rho, check=False))
        assert np.allclose(got.mat, want @ rho @ want.conj().T)
        rho = pure_state(kron(KET0, KET1), ("a", "b"))
        got = apply_superop(resolve_operator("CNOT", 2), ("b", "a"), rho)
        assert np.allclose(got.mat, projector(kron(KET1, KET1)))

    def test_single_qubit_lift_equals_kron_composition(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            for i in range(n):
                mats = [I2] * n
                mats[i] = H
                full = kron_all(mats)
                assert np.allclose(dense_embedding(H, [i], n), full)
                rho = random_state(rng, n)
                dm = DensityMatrix(register(n), rho, check=False)
                out = apply_superop(resolve_operator("H", 1), (f"q{i}",), dm)
                assert np.allclose(out.mat, full @ rho @ full.conj().T)

    def test_bad_targets(self):
        rho = pure_state(kron(KET0, KET0), ("a", "b"))
        with pytest.raises(TargetError):
            apply_superop(resolve_operator("X", 1), ("c",), rho)
        with pytest.raises(TargetError):
            apply_superop(resolve_operator("CNOT", 2), ("a", "a"), rho)
        with pytest.raises(TargetError):
            apply_superop(resolve_operator("CNOT", 2), ("a",), rho)
        with pytest.raises(TargetError):
            measure(resolve_measurement("M01", 1), ("a", "b"), rho)

    def test_permutation_consistency_three_qubits(self):
        # applying at the targets equals permuting the state to bring the
        # targets up front, applying K (x) I, and permuting back
        rng = np.random.default_rng(11)
        for targets in itertools.permutations(range(3), 2):
            rho = random_state(rng, 3)
            dm = DensityMatrix(register(3), rho, check=False)
            got = apply_superop(resolve_operator("CNOT", 2), tuple(f"q{t}" for t in targets), dm)
            rest = [q for q in range(3) if q not in targets]
            perm = bit_permutation(list(targets) + rest, 3)
            inv = np.argsort(perm)
            big = kron(CNOT, I2)
            rho_new = rho[np.ix_(inv, inv)]
            back = big @ rho_new @ big.conj().T
            assert np.allclose(got.mat, back[np.ix_(perm, perm)])


@st.composite
def local_operators(draw):
    """(n, target positions, operators, state): up to 5 qubits, 1-3
    targets in any order, 1-4 random operators of which some may be zero."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    positions = tuple(draw(st.permutations(range(n)))[:k])
    kept = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << k
    ops = [
        keep * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for keep in kept
    ]
    return n, positions, ops, random_state(rng, n)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(local_operators())
@example((5, (4, 2, 0), [kron_all([H, X, I2]), 0 * ident(8)],
          random_state(np.random.default_rng(5), 5)))
@example((4, (3, 0), [CNOT, qcore.SWAP], random_state(np.random.default_rng(4), 4)))
def test_local_contraction_matches_dense_embedding(case):
    n, positions, ops, rho = case
    names = register(n)
    targets = tuple(names[p] for p in positions)
    dm = DensityMatrix(names, rho, check=False)
    posts = [
        e @ rho @ e.conj().T for e in (dense_embedding(op, positions, n) for op in ops)
    ]

    got = apply_superop(Superoperator(ops, check=False), targets, dm)
    assert np.max(np.abs(got.mat - sum(posts))) < 1e-12

    results = measure(Measurement(ops, check=False), targets, dm)
    want = [(i, post.trace().real) for i, post in enumerate(posts)]
    want = [(i, p) for i, p in want if p > qcore.TOL_PROB]
    assert [outcome for outcome, _, _ in results] == [i for i, _ in want]
    for (outcome, p, post), (_, p_want) in zip(results, want):
        assert abs(p - p_want) < 1e-12
        assert np.max(np.abs(post.mat - posts[outcome] / p_want)) < 1e-12


def measure_all_outcomes(m, targets, rho):
    """Reference for `measure`, built on `dense_embedding`: build every
    outcome's post-state, then drop the outcomes of probability at most
    TOL_PROB."""
    positions = rho.register.positions(targets)
    results = []
    for outcome, op in enumerate(m.operators):
        big = dense_embedding(op, positions, rho.num_qubits)
        post = big @ rho.mat @ big.conj().T
        p = post.trace().real
        if p > qcore.TOL_PROB:
            results.append((outcome, float(p), DensityMatrix(rho.register, post / p, check=False)))
    return results


@st.composite
def measured_states(draw):
    """(measurement, targets, state): 1-3 qubits, 1-2 targets in any order,
    a builtin measurement or M_m = P_m V for a random unitary V, and a
    state whose targets are confined to the span of a random nonempty set
    of the measurement's outcomes, so the others have probability zero, or
    of computational basis states."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(2, n)))
    positions = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["M01", "Mpm", "rotated"] + (["MBell"] if k == 2 else [])))
    if kind == "rotated":
        v, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
        m = Measurement([np.diag(row) @ v for row in np.eye(1 << k)], check=False)
    else:
        m = resolve_measurement(kind, k)
    kept = draw(st.lists(st.booleans(), min_size=len(m), max_size=len(m)).filter(any))
    basis = draw(st.booleans())
    span = sum((np.diag(np.eye(1 << k)[i]) if basis else op.conj().T @ op)
               for i, (op, keep) in enumerate(zip(m.operators, kept)) if keep)
    big = dense_embedding(span, positions, n)
    rho = big @ random_state(rng, n) @ big.conj().T
    names = register(n)
    return m, tuple(names[p] for p in positions), DensityMatrix(names, rho / rho.trace(), check=False)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(measured_states())
def test_measure_matches_building_every_outcome(case):
    m, targets, rho = case
    built = []
    restore = qcore._restore

    def counted(out, positions, rho):
        # every post-state leaves the kernel through `_restore`
        posts = restore(out, positions, rho)
        built.append(len(posts))
        return posts

    qcore._restore = counted
    try:
        got = measure(m, targets, rho)
    finally:
        qcore._restore = restore
    want = measure_all_outcomes(m, targets, rho)
    # no post-state is built for an outcome that is then dropped
    assert sum(built) == len(got)
    assert [outcome for outcome, _, _ in got] == [outcome for outcome, _, _ in want]
    for (_, p, post), (_, p_want, post_want) in zip(got, want):
        assert abs(p - p_want) <= qcore.TOL_PROB
        assert post.close_to(post_want)
        assert post.key() == post_want.key()


class TestApplySuperop:
    def test_hadamard_on_ket0(self):
        rho = pure_state(KET0, ("q",))
        out = apply_superop(resolve_operator("H", 1), ("q",), rho)
        assert np.allclose(out.mat, projector(KETP), atol=1e-12)

    def test_constant_superoperator(self):
        rng = np.random.default_rng(3)
        setter = resolve_operator("SetPhiP", 2)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= rho.trace()
        dm = DensityMatrix(("a", "b"), rho, check=False)
        out = apply_superop(setter, ("a", "b"), dm)
        assert np.allclose(out.mat, projector(PHI_P), atol=1e-9)

    def test_pauli_mix_on_psi_plus(self):
        mixop = Superoperator.probabilistic(
            [(0.25, I2), (0.25, X), (0.25, Z), (0.25, Z @ X)]
        )
        rho = pure_state(PSI_P, ("a", "b"))
        out = apply_superop(mixop, ("a",), rho)
        want = 0.25 * (
            projector(PHI_P) + projector(PHI_M) + projector(PSI_P) + projector(PSI_M)
        )
        assert np.allclose(out.mat, want, atol=1e-9)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= rho.trace()
            dm = DensityMatrix(("a", "b"), rho, check=False)
            out = apply_superop(resolve_operator("CNOT", 2), ("a", "b"), dm)
            assert abs(out.trace() - 1.0) < 1e-9


class TestMeasure:
    def test_plus_in_computational_basis(self):
        res = measure(resolve_measurement("M01", 1), ("q",), pure_state(KETP, ("q",)))
        assert len(res) == 2
        (o0, p0, s0), (o1, p1, s1) = res
        assert (o0, o1) == (0, 1)
        assert abs(p0 - 0.5) < 1e-9 and abs(p1 - 0.5) < 1e-9
        assert np.allclose(s0.mat, projector(KET0))
        assert np.allclose(s1.mat, projector(KET1))

    def test_certain_outcome_drops_zero_branch(self):
        res = measure(resolve_measurement("M01", 1), ("q",), pure_state(KET0, ("q",)))
        assert len(res) == 1
        assert res[0][0] == 0 and abs(res[0][1] - 1.0) < 1e-9

    def test_bell_pair_decays_to_correlated_basis(self):
        res = measure(resolve_measurement("M01", 1), ("a",), pure_state(PHI_P, ("a", "b")))
        assert len(res) == 2
        (o0, p0, s0), (o1, p1, s1) = res
        assert abs(p0 - 0.5) < 1e-9 and abs(p1 - 0.5) < 1e-9
        assert np.allclose(s0.mat, projector(kron(KET0, KET0)))
        assert np.allclose(s1.mat, projector(kron(KET1, KET1)))

    def test_probabilities_sum_to_one_and_posts_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= rho.trace()
            dm = DensityMatrix(("a", "b"), rho, check=False)
            res = measure(resolve_measurement("Mpm", 1), ("b",), dm)
            assert abs(sum(p for _, p, _ in res) - 1.0) < 1e-9
            for _, _, post in res:
                assert abs(post.trace() - 1.0) < 1e-9
                assert np.linalg.eigvalsh(post.mat).min() > -1e-9


def test_equal_states_hash_alike():
    a = DensityMatrix(("q",), np.diag([0.50000005, 0.49999995]))
    b = DensityMatrix(("q",), np.diag([0.50000005 + 1e-12, 0.49999995 - 1e-12]))
    assert a == b
    assert hash(a) == hash(b)


class TestPartialTrace:
    def test_product_state(self):
        rho = pure_state(KET0, ("a",)).tensor(pure_state(KET1, ("b",)))
        out = partial_trace(rho, ("b",))
        assert out.register.names == ("a",)
        assert np.allclose(out.mat, projector(KET0))

    def test_bell_pair_reduces_to_maximally_mixed(self):
        out = partial_trace(pure_state(PHI_P, ("a", "b")), ("a",))
        assert np.allclose(out.mat, ident(2) / 2, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mats = []
            for _ in range(2):
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rho = a @ a.conj().T
                mats.append(DensityMatrix(("a", "b"), rho / rho.trace(), check=False))
            p = rng.uniform()
            lhs = partial_trace(mix(mats[0], mats[1], p), ("a",))
            rhs = (
                p * partial_trace(mats[0], ("a",)).mat
                + (1 - p) * partial_trace(mats[1], ("a",)).mat
            )
            assert np.allclose(lhs.mat, rhs, atol=1e-9)

    def test_trace_out_commutes_with_local_operations(self):
        # tr_B((E_A (x) F_B)(rho)) = E_A(tr_B(rho)) for trace-preserving F
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= rho.trace()
            dm = DensityMatrix(("p", "q"), rho, check=False)
            e = Superoperator.unitary(H)
            f = Superoperator.probabilistic([(0.5, I2), (0.5, X)])
            stepped = apply_superop(f, ("q",), apply_superop(e, ("p",), dm))
            lhs = partial_trace(stepped, ("q",))
            rhs = apply_superop(e, ("p",), partial_trace(dm, ("q",)))
            assert np.allclose(lhs.mat, rhs.mat, atol=1e-9)

    def test_unknown_qubit(self):
        with pytest.raises(TargetError):
            partial_trace(pure_state(KET0, ("a",)), ("zz",))


class TestMix:
    def test_idempotent(self):
        rho = pure_state(KETP, ("q",))
        assert np.allclose(mix(rho, rho, 0.3).mat, rho.mat)

    def test_one_third_mixture(self):
        out = mix(pure_state(KET0, ("q",)), pure_state(KETP, ("q",)), 1 / 3)
        want = np.array([[2, 1], [1, 1]], dtype=complex) / 3
        assert np.allclose(out.mat, want, atol=1e-12)

    def test_maximally_mixed_two_ways(self):
        a = mix(pure_state(KET0, ("q",)), pure_state(KET1, ("q",)), 0.5)
        b = mix(pure_state(KETP, ("q",)), pure_state(KETM, ("q",)), 0.5)
        assert np.allclose(a.mat, b.mat, atol=1e-12)
        assert np.allclose(a.mat, ident(2) / 2)

    def test_register_mismatch(self):
        with pytest.raises(RegisterError):
            mix(pure_state(KET0, ("q",)), pure_state(KET0, ("r",)), 0.5)


class TestBuiltins:
    def test_cnot_flips_target(self):
        out = resolve_operator("CNOT", 2).kraus[0] @ kron(KET1, KET0)
        assert np.allclose(out, kron(KET1, KET1))

    def test_bell_state(self):
        got = build_state("phi+", ("q0", "q1"))
        assert np.allclose(got.mat, projector(PHI_P))

    def test_hadamard_basis_measurement(self):
        m = resolve_measurement("Mpm", 1)
        assert np.allclose(m.operators[0], projector(KETP))
        assert np.allclose(m.operators[1], projector(KETM))

    def test_measurement_completeness(self):
        for name, arity in (("M01", 1), ("Mpm", 1), ("MBell", 2)):
            m = resolve_measurement(name, arity)
            acc = sum(op.conj().T @ op for op in m.operators)
            assert np.allclose(acc, ident(acc.shape[0]), atol=1e-9)

    def test_unknown_name(self):
        with pytest.raises(NameError):
            resolve_operator("Hadamarde", 1)

    def test_kraus_sum_condition_checked(self):
        with pytest.raises(ValueError):
            Superoperator([H, H])
        with pytest.raises(ValueError):
            Measurement([projector(KET0), projector(KETP)])


@pytest.mark.parametrize("build, error, message", [
    (lambda: qcore.QubitRegister(("a", "a")), RegisterError, "duplicate qubit names"),
    (lambda: DensityMatrix(("a",), ident(4) / 4), RegisterError, "does not fit register of 1"),
    (lambda: DensityMatrix(("a",), [[0.5, 0.5], [0, 0.5]]), ValueError, "not Hermitian"),
    (lambda: DensityMatrix(("a",), np.diag([1.2, -0.2])), ValueError, "not PSD"),
    (lambda: DensityMatrix(("a",), np.diag([1.0, 0.5])), ValueError, "trace 1.5 outside"),
    (lambda: DensityMatrix.from_ket(("a",), np.full(4, 0.5 + 0j)), RegisterError, "ket shape"),
    (lambda: pure_state(KET0, ("a",)).tensor(pure_state(KET1, ("a",))), RegisterError,
     "share qubit names"),
    (lambda: mix(pure_state(KET0, ("a",)), pure_state(KET1, ("a",)), 1.5), ValueError,
     "mixing weight 1.5 outside"),
], ids=["duplicate-names", "shape", "not-hermitian", "not-psd", "trace-above-one",
        "ket-shape", "overlapping-tensor", "mix-weight"])
def test_malformed_states_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("resolve, name, arity, error, message", [
    (resolve_operator, "SetPhiP", 1, ArityError, "SetPhiP takes 2 qubits, got 1"),
    (resolve_operator, "PauliMix", 2, ArityError, "PauliMix takes 1 qubit, got 2"),
    (resolve_measurement, "MBell", 3, ArityError, "MBell takes 2 qubits, got 3"),
    (resolve_operator, "U", 2, ArityError, "U has arity 1, applied to 2 qubits"),
    (resolve_measurement, "Mz", 2, ArityError, "Mz has arity 1, applied to 2 qubits"),
    (resolve_measurement, "Mzz", 1, NameError, "unknown measurement 'Mzz'"),
], ids=["set-arity", "paulimix-arity", "mbell-arity", "registered-operator-arity",
        "registered-measurement-arity", "unknown-measurement"])
def test_operator_names_and_arities_are_checked(resolve, name, arity, error, message):
    sig = Signature(operators={"U": Superoperator.unitary(H)},
                    measurements={"Mz": resolve_measurement("M01", 1)})
    with pytest.raises(error, match=message):
        resolve(name, arity, sig)


@pytest.mark.parametrize("family", [Superoperator, Measurement])
@pytest.mark.parametrize("ops, message", [
    ([], "empty"),
    ([np.eye(3)], "must be 2\\^n x 2\\^n"),
    ([I2, ident(4)], "mixed shape"),
], ids=["empty", "not-a-power-of-two", "mixed-shapes"])
def test_malformed_operator_family_is_refused(family, ops, message):
    """Superoperators and measurements check their operators alike: a
    nonempty list of 2^n x 2^n matrices of one shape, also unchecked."""
    with pytest.raises(ValueError, match=message):
        family(ops, check=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda m: DensityMatrix(("q",), m),
    lambda m: Superoperator([m], check=False),
    lambda m: Superoperator.probabilistic([(1.0, m)]),
    lambda m: Superoperator.constant(m),
    lambda m: Measurement([m, I2], check=False),
    lambda m: pure_state(m[:, :1], ("q",)),
    lambda m: projector(m[:, :1]),
    lambda m: kron(m, I2),
    lambda m: kron_all([I2, m]),
], ids=["state", "superop", "probabilistic", "constant",
        "measurement", "pure-state", "projector", "kron", "kron-all"])
def test_non_finite_caller_data_is_refused(build, bad):
    """Finiteness is checked where caller data enters: checked states,
    operators and vectors. Results computed from checked operands
    (`check=False` states) are not scanned again."""
    m = projector(KET0).copy()
    m[0, 0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        build(m)


# ---------------------------------------------------------------------------
# kets against their dense twins: a pure state held as psi must give every
# backend operation the result of the same state held as rho = psi psi^dag


def random_ket(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_kraus(rng, dim, count):
    """`count` Kraus operators summing to the identity: the blocks of a
    random isometry from dim to count * dim."""
    a = rng.normal(size=(count * dim, dim)) + 1j * rng.normal(size=(count * dim, dim))
    iso, _ = np.linalg.qr(a)
    return [iso[i * dim:(i + 1) * dim] for i in range(count)]


def twins(psi, names):
    ket = pure_state(psi, names)
    assert ket.ket is not None
    return ket, DensityMatrix(names, ket.mat, check=False)


def assert_twins(got, want):
    assert got.register == want.register
    assert np.max(np.abs(got.mat - want.mat)) < qcore.TOL_MAT
    assert got.key() == want.key()


def assert_same_order(gots, wants):
    def order(states):
        return sorted(range(len(states)), key=lambda i: states[i].key())
    assert order(gots) == order(wants)


@st.composite
def ket_cases(draw):
    """(register, target positions, ket, rng): 1-8 qubits, 1-3 targets in
    any order, a random ket, or one with the targets confined to a random
    nonempty set of computational basis values, so that some outcomes of
    M01 have probability zero."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n)))
    positions = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_ket(rng, n)
    if draw(st.booleans()):
        kept = draw(st.lists(st.booleans(), min_size=1 << k, max_size=1 << k).filter(any))
        psi = dense_embedding(np.diag(np.array(kept, dtype=complex)), positions, n) @ psi
        psi /= np.linalg.norm(psi)
    return register(n), positions, psi, rng


KET_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


class TestKetTwin:
    @KET_SETTINGS
    @given(ket_cases())
    def test_one_kraus_superop_keeps_a_ket(self, case):
        names, positions, psi, rng = case
        ket, dense = twins(psi, names)
        targets = tuple(names[p] for p in positions)
        e = Superoperator([random_unitary(rng, 1 << len(targets))], check=False)
        got, want = apply_superop(e, targets, ket), apply_superop(e, targets, dense)
        assert got.ket is not None
        assert_twins(got, want)
        assert_same_order([ket, got], [dense, want])

    @KET_SETTINGS
    @given(ket_cases(), st.integers(2, 4))
    def test_several_kraus_superop(self, case, count):
        names, positions, psi, rng = case
        ket, dense = twins(psi, names)
        targets = tuple(names[p] for p in positions)
        e = Superoperator(random_kraus(rng, 1 << len(targets), count))
        assert_twins(apply_superop(e, targets, ket), apply_superop(e, targets, dense))

    @KET_SETTINGS
    @given(ket_cases(), st.sampled_from(["M01", "Mpm", "MBell", "rotated"]))
    def test_measure(self, case, kind):
        names, positions, psi, rng = case
        ket, dense = twins(psi, names)
        if kind == "MBell" and len(positions) != 2:
            kind = "M01"
        dim = 1 << len(positions)
        if kind == "rotated":
            v = random_unitary(rng, dim)
            m = Measurement([np.diag(row) @ v for row in np.eye(dim)], check=False)
        else:
            m = resolve_measurement(kind, len(positions))
        targets = tuple(names[p] for p in positions)
        got = measure(m, targets, ket)
        want = measure(m, targets, dense)
        assert [outcome for outcome, _, _ in got] == [outcome for outcome, _, _ in want]
        for (_, p, post), (_, p_want, post_want) in zip(got, want):
            assert abs(p - p_want) < qcore.TOL_MAT
            assert post.ket is not None
            assert abs(post.trace() - 1.0) < qcore.TOL_MAT
            assert_twins(post, post_want)
        assert_same_order([post for _, _, post in got], [post for _, _, post in want])

    @KET_SETTINGS
    @given(ket_cases(), st.data())
    def test_partial_trace(self, case, data):
        names, _, psi, _ = case
        ket, dense = twins(psi, names)
        traced = data.draw(st.lists(st.sampled_from(names), unique=True))
        assert_twins(partial_trace(ket, traced), partial_trace(dense, traced))

    @KET_SETTINGS
    @given(ket_cases(), st.integers(1, 2), st.floats(0.0, 1.0))
    def test_tensor_and_mix(self, case, m, p):
        names, _, psi, rng = case
        ket, dense = twins(psi, names)
        other, other_dense = twins(random_ket(rng, m), tuple(f"r{i}" for i in range(m)))
        both = ket.tensor(other)
        assert both.ket is not None
        assert_twins(both, dense.tensor(other_dense))
        assert_twins(ket.tensor(other_dense), dense.tensor(other_dense))
        second, second_dense = twins(random_ket(rng, len(names)), names)
        assert_twins(mix(ket, second, p), mix(dense, second_dense, p))
        assert_same_order([ket, second, both], [dense, second_dense, dense.tensor(other_dense)])


@st.composite
def kernel_cases(draw):
    """(channel, measurement, target positions, state, traced qubits): 1-6
    qubits held as a ket or as rho, the targets in any order; a random CPTP
    map of 1, 2, 4 or 16 Kraus operators on 1-3 targets, or CNOT, SetPhiP
    (4 Kraus operators) or SetMaxMix (16) on 2, so that channels with and
    without a `transfer` both occur; a builtin or rotated measurement,
    with the state confined to the span of a random nonempty set of its
    outcomes, so that the others are dropped; any subset of the qubits."""
    kind = draw(st.sampled_from(["random", "CNOT", "SetPhiP", "SetMaxMix"]))
    k = draw(st.integers(1, 3)) if kind == "random" else 2
    n = draw(st.integers(k, 6))
    positions = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        e = Superoperator(random_kraus(rng, 1 << k, draw(st.sampled_from([1, 2, 4, 16]))))
    else:
        e = resolve_operator(kind, k)
    mkind = draw(st.sampled_from(["M01", "Mpm", "rotated"] + (["MBell"] if k == 2 else [])))
    if mkind == "rotated":
        v = random_unitary(rng, 1 << k)
        m = Measurement([np.diag(row) @ v for row in np.eye(1 << k)])
    else:
        m = resolve_measurement(mkind, k)
    kept = draw(st.lists(st.booleans(), min_size=len(m), max_size=len(m)).filter(any))
    span = sum(op.conj().T @ op for op, keep in zip(m.operators, kept) if keep)
    big = dense_embedding(span, positions, n)
    traced = tuple(draw(st.lists(st.sampled_from(register(n)), unique=True)))
    if draw(st.booleans()):
        return e, m, positions, pure_state(big @ random_ket(rng, n), register(n)), traced
    rho = big @ random_state(rng, n) @ big.conj().T
    return e, m, positions, DensityMatrix(register(n), rho / rho.trace(), check=False), traced


def reference_partial_trace(rho, traced_positions):
    """Oracle for `partial_trace`: re-index rho with `bit_permutation` so
    that the kept qubits lead, then trace the rest out of the blocks."""
    n = rho.shape[0].bit_length() - 1
    kept = [q for q in range(n) if q not in traced_positions]
    inv = np.argsort(bit_permutation(kept + list(traced_positions), n))
    dk, dt = 1 << len(kept), 1 << len(traced_positions)
    return np.einsum("atbt->ab", rho[np.ix_(inv, inv)].reshape(dk, dt, dk, dt))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(kernel_cases())
@example((resolve_operator("CNOT", 2), resolve_measurement("MBell", 2), (2, 0),
          pure_state(random_ket(np.random.default_rng(6), 3), register(3)), ("q1",)))
@example((resolve_operator("CNOT", 2), resolve_measurement("M01", 2), (1, 0),
          DensityMatrix(register(2), random_state(np.random.default_rng(8), 2), check=False),
          ("q0",)))
def test_kernel_matches_dense_embedding(case):
    """The targets-first kernel against full `kron` matrices, which share
    no numerics with it: `apply_superop`, `measure` and `partial_trace`
    agree within 1e-12, with the same outcome lists."""
    e, m, positions, state, traced = case
    names, n, rho = state.register.names, state.num_qubits, state.mat
    targets = tuple(names[p] for p in positions)

    bigs = [dense_embedding(k, positions, n) for k in e.kraus]
    want = sum(big @ rho @ big.conj().T for big in bigs)
    got = apply_superop(e, targets, state)
    assert (got.ket is not None) == (state.ket is not None and len(e.kraus) == 1)
    assert np.max(np.abs(got.mat - want)) < 1e-12

    posts = [big @ rho @ big.conj().T
             for big in (dense_embedding(op, positions, n) for op in m.operators)]
    want = [(i, post.trace().real) for i, post in enumerate(posts)]
    want = [(i, p) for i, p in want if p > qcore.TOL_PROB]
    results = measure(m, targets, state)
    assert [outcome for outcome, _, _ in results] == [i for i, _ in want]
    for (outcome, p, post), (_, p_want) in zip(results, want):
        assert abs(p - p_want) < 1e-12
        assert np.max(np.abs(post.mat - posts[outcome] / p_want)) < 1e-12

    want = reference_partial_trace(rho, [names.index(q) for q in traced])
    assert np.max(np.abs(partial_trace(state, traced).mat - want)) < 1e-12


def peak_bytes(call):
    """`call()` and the peak of the memory it allocates, as tracemalloc
    sees it."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_state(n):
    return DensityMatrix(register(n), random_state(np.random.default_rng(3), n), check=False)


def test_dense_channel_holds_no_state_per_kraus_operator():
    """SetMaxMix, 16 Kraus operators, on a dense 9-qubit state: the new
    allocations peak below three 2^n x 2^n complex matrices, where one
    per Kraus operator would be sixteen."""
    n = 9
    e, rho = resolve_operator("SetMaxMix", 2), dense_state(n)
    out, peak = peak_bytes(lambda: apply_superop(e, ("q6", "q2"), rho))
    assert abs(out.trace() - 1.0) < 1e-9
    assert peak < 3 * 16 * (1 << n) ** 2


def test_a_constant_channel_is_its_state():
    """Every state preparation, and PauliMix, which is SetMaxMix on one
    qubit, holds the state it prepares; unitaries and a registered channel
    hold none, and no channel holds an array larger than its Kraus stack."""
    prepared = [(name, projector(vec)) for name, (_, vec) in STATES.items()]
    prepared += [("SetMaxMix", ident(1 << k) / (1 << k)) for k in (1, 2, 3)]
    prepared.append(("PauliMix", ident(2) / 2))
    constants = [resolve_operator(name, len(sigma).bit_length() - 1) for name, sigma in prepared]
    for e, (_, sigma) in zip(constants, prepared):
        assert np.allclose(e.state, sigma, atol=1e-12)
    assert resolve_operator("PauliMix", 1) is resolve_operator("SetMaxMix", 1)
    sig = Signature(operators={"Flip": Superoperator.probabilistic([(0.5, I2), (0.5, X)])})
    others = [resolve_operator(name, k) for name, k in [("H", 1), ("H", 3), ("CNOT", 2)]]
    for e in others + [resolve_operator("Flip", 1, sig)]:
        assert e.state is None
    for e in others + constants:
        held = [getattr(e, slot) for slot in Superoperator.__slots__]
        assert all(a.nbytes <= e.kraus.nbytes for a in held if isinstance(a, np.ndarray))


@pytest.mark.parametrize("name, targets, sigma", [
    ("SetPhiP", ("q6", "q2"), projector(PHI_P)), ("SetMaxMix", ("q6", "q2"), ident(4) / 4),
    ("PauliMix", ("q6",), ident(2) / 2)], ids=["SetPhiP", "SetMaxMix", "PauliMix"])
def test_dense_constant_channel_holds_two_states(name, targets, sigma):
    """A constant on a dense 9-qubit state, sigma (x) tr_T rho: the new
    allocations peak below 2.1 2^n x 2^n complex matrices, the result and
    its permuted copy, with tr_T rho read in place (a copy of the
    targets-first view would add a quarter state for PauliMix)."""
    n = 9
    e, rho = resolve_operator(name, len(targets)), dense_state(n)
    out, peak = peak_bytes(lambda: apply_superop(e, targets, rho))
    rest = tuple(q for q in register(n) if q not in targets)
    assert np.allclose(partial_trace(out, rest).mat, sigma, atol=1e-12)
    assert np.allclose(partial_trace(out, targets).mat,
                       partial_trace(rho, targets).mat, atol=1e-12)
    assert peak < 2.1 * 16 * (1 << n) ** 2


@pytest.mark.parametrize("held", ["ket", "dense"])
@pytest.mark.parametrize("positions", [(0, 2), (2, 0)], ids=["in-order", "reversed"])
@pytest.mark.parametrize("name, k", [
    ("SetPhiP", 2), ("SetMaxMix", 2), ("PauliMix", 1), ("Set0", 1)],
    ids=["SetPhiP", "SetMaxMix", "PauliMix", "Set0"])
def test_a_constant_never_reads_its_kraus_stack(name, k, positions, held):
    """A constant is applied as its state, to a ket as to rho: with its
    Kraus stack taken away it gives the map that a fresh constant's
    Kraus operators give, each embedded with `dense_embedding`; a
    one-qubit constant acts on the first qubit of `positions`."""
    n, positions = 3, positions[:k]
    rng = np.random.default_rng(sum(positions) + 7 * k)
    sigma = resolve_operator(name, k).state
    e = Superoperator.constant(sigma)
    e.kraus = None
    if held == "ket":
        state = pure_state(random_ket(rng, n), register(n))
    else:
        state = DensityMatrix(register(n), random_state(rng, n), check=False)
    rho = state.mat
    bigs = [dense_embedding(op, positions, n) for op in Superoperator.constant(sigma).kraus]
    want = sum(big @ rho @ big.conj().T for big in bigs)
    got = apply_superop(e, tuple(register(n)[p] for p in positions), state)
    assert got.ket is None
    assert np.max(np.abs(got.mat - want)) < 1e-12


@pytest.mark.parametrize("sigma, message", [
    ([[0.5, 0.5], [0, 0.5]], "not Hermitian"),
    (np.diag([1.0, -0.2]), "not PSD"),
    (np.diag([0.5, 0.3]), "sum M\\^dag M = I"),
], ids=["not-hermitian", "not-psd", "trace-0.8"])
def test_constant_refuses_a_non_state(sigma, message):
    """A constant channel is defined by the state it prepares, so that
    state is checked as a state: Hermitian, PSD and of unit trace."""
    with pytest.raises(ValueError, match=message):
        Superoperator.constant(sigma)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6))
def test_completeness_check_is_the_einsum_as_one_product(seed, k, count):
    """The completeness check sums M_m^dag M_m as one matrix product, which
    equals the einsum over the stack on random complete Kraus and
    measurement families, on the built-in ones and on arbitrary stacks;
    a family passes the check exactly when it is complete."""
    rng = np.random.default_rng(seed)
    dim = 1 << k
    complete = [np.stack(random_kraus(rng, dim, count)),
                resolve_operator("SetMaxMix", k).kraus, resolve_measurement("M01", k).operators]
    arbitrary = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    for stack in complete + [arbitrary]:
        want = np.einsum("mba,mbc->ac", stack.conj(), stack)
        assert np.allclose(qcore._gram(stack), want, rtol=1e-12, atol=1e-12)
    for family in (Superoperator, Measurement):
        for stack in complete:
            family(list(stack))
        with pytest.raises(ValueError, match="sum M\\^dag M = I"):
            family(list(arbitrary))


@pytest.mark.parametrize("k", [6, 8])
def test_dense_unitary_on_many_qubits_holds_nothing_operator_squared(k):
    """H on all k qubits of a dense k-qubit state, targets reversed: the
    allocations peak below five 2^k x 2^k matrices (the state's view, the
    operator's conjugate and two products), where the transfer matrix
    alone would be 4^k of them."""
    e = resolve_operator("H", k)
    rho = dense_state(k)
    targets = register(k)[::-1]
    out, peak = peak_bytes(lambda: apply_superop(e, targets, rho))
    big = dense_embedding(e.kraus[0], tuple(range(k))[::-1], k)
    assert np.max(np.abs(out.mat - big @ rho.mat @ big.conj().T)) < 1e-12
    assert peak < 5 * 16 * 4 ** k


def test_dense_measurement_holds_nothing_per_outcome_beyond_its_post_state():
    """M01 on all 6 qubits of a dense 6-qubit state, 64 outcomes: the
    allocations peak below five times the 64 post-states returned, where
    M_m (x) conj(M_m) per outcome would take 16 GiB."""
    n = 6
    m, rho = resolve_measurement("M01", n), dense_state(n)
    results, peak = peak_bytes(lambda: measure(m, register(n), rho))
    assert [outcome for outcome, _, _ in results] == list(range(1 << n))
    diag = rho.mat.diagonal().real
    for outcome, p, post in results:
        assert abs(p - diag[outcome]) < 1e-12
        assert abs(post.mat[outcome, outcome] - 1.0) < 1e-9
    assert peak < 5 * len(results) * 16 * 4 ** n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(ket_cases(), st.sampled_from(["equal", "phase", "1e-12", "other"]))
def test_keys_differ_never_contradicts_the_keys(case, kind):
    """The diagonal pre-test of kets says *unequal* only where the rounded
    keys differ, also for equal kets, kets a global phase apart and kets
    1e-12 apart."""
    names, _, psi, rng = case
    if kind == "equal":
        phi = psi.copy()
    elif kind == "phase":
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi
    elif kind == "1e-12":
        phi = psi + 1e-12 * random_ket(rng, len(names))
    else:
        phi = random_ket(rng, len(names))
    a, b = pure_state(psi, names), pure_state(phi, names)
    differ = a.keys_differ(b)
    assert differ == b.keys_differ(a)
    if a.key() == b.key():
        assert not differ
    # once a key is built the pre-test stands aside
    assert not a.keys_differ(b)
    if kind != "other":
        assert a.key() == b.key()


def test_keys_differ_tells_basis_states_apart():
    a, b = pure_state(KET0, ("q",)), pure_state(KET1, ("q",))
    assert a.keys_differ(b)
    assert not a.keys_differ(pure_state(KET0, ("p",)))
    assert not a.keys_differ(DensityMatrix(("q",), projector(KET1)))
    # |+> and |-> share a diagonal: only their keys tell them apart
    assert not pure_state(KETP, ("q",)).keys_differ(pure_state(KETM, ("q",)))
