import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqccs import qcore
from lqccs.errors import RegisterError, TargetError
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
    builtin,
    kron,
    kron_all,
    measure,
    mix,
    partial_trace,
    projector,
    pure_state,
)


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
        out = apply_superop(builtin("H"), ("q",), DensityMatrix(("q",), rho, check=False))
        assert np.allclose(out.mat, H @ rho @ H.conj().T)

    def test_x_on_second_qubit(self):
        # oracle: explicit I (x) X product applied to |00><00|
        assert np.allclose(dense_embedding(X, [1], 2), kron(I2, X))
        rho = pure_state(kron(KET0, KET0), ("a", "b"))
        got = apply_superop(builtin("X"), ("b",), rho)
        assert np.allclose(got.mat, projector(kron(KET0, KET1)))

    def test_cnot_reversed_control(self):
        # oracle: SWAP . CNOT . SWAP on |01><01| -> |11><11|
        swap = qcore.SWAP
        want = swap @ CNOT @ swap
        assert np.allclose(dense_embedding(CNOT, [1, 0], 2), want)
        rho = random_state(np.random.default_rng(7), 2)
        got = apply_superop(builtin("CNOT"), ("b", "a"), DensityMatrix(("a", "b"), rho, check=False))
        assert np.allclose(got.mat, want @ rho @ want.conj().T)
        rho = pure_state(kron(KET0, KET1), ("a", "b"))
        got = apply_superop(builtin("CNOT"), ("b", "a"), rho)
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
                out = apply_superop(builtin("H"), (f"q{i}",), dm)
                assert np.allclose(out.mat, full @ rho @ full.conj().T)

    def test_bad_targets(self):
        rho = pure_state(kron(KET0, KET0), ("a", "b"))
        with pytest.raises(TargetError):
            apply_superop(builtin("X"), ("c",), rho)
        with pytest.raises(TargetError):
            apply_superop(builtin("CNOT"), ("a", "a"), rho)
        with pytest.raises(TargetError):
            apply_superop(builtin("CNOT"), ("a",), rho)
        with pytest.raises(TargetError):
            measure(builtin("M01"), ("a", "b"), rho)

    def test_permutation_consistency_three_qubits(self):
        # applying at the targets equals permuting the state to bring the
        # targets up front, applying K (x) I, and permuting back
        rng = np.random.default_rng(11)
        for targets in itertools.permutations(range(3), 2):
            rho = random_state(rng, 3)
            dm = DensityMatrix(register(3), rho, check=False)
            got = apply_superop(builtin("CNOT"), tuple(f"q{t}" for t in targets), dm)
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


class TestApplySuperop:
    def test_hadamard_on_ket0(self):
        rho = pure_state(KET0, ("q",))
        out = apply_superop(builtin("H"), ("q",), rho)
        assert np.allclose(out.mat, projector(KETP), atol=1e-12)

    def test_constant_superoperator(self):
        rng = np.random.default_rng(3)
        setter = builtin("Set(Phi+)")
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
            out = apply_superop(builtin("CNOT"), ("a", "b"), dm)
            assert abs(out.trace() - 1.0) < 1e-9


class TestMeasure:
    def test_plus_in_computational_basis(self):
        res = measure(builtin("M01"), ("q",), pure_state(KETP, ("q",)))
        assert len(res) == 2
        (o0, p0, s0), (o1, p1, s1) = res
        assert (o0, o1) == (0, 1)
        assert abs(p0 - 0.5) < 1e-9 and abs(p1 - 0.5) < 1e-9
        assert np.allclose(s0.mat, projector(KET0))
        assert np.allclose(s1.mat, projector(KET1))

    def test_certain_outcome_drops_zero_branch(self):
        res = measure(builtin("M01"), ("q",), pure_state(KET0, ("q",)))
        assert len(res) == 1
        assert res[0][0] == 0 and abs(res[0][1] - 1.0) < 1e-9

    def test_bell_pair_decays_to_correlated_basis(self):
        res = measure(builtin("M01"), ("a",), pure_state(PHI_P, ("a", "b")))
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
            res = measure(builtin("Mpm"), ("b",), dm)
            assert abs(sum(p for _, p, _ in res) - 1.0) < 1e-9
            for _, _, post in res:
                assert abs(post.trace() - 1.0) < 1e-9
                assert np.linalg.eigvalsh(post.mat).min() > -1e-9


@pytest.mark.xfail(
    strict=True,
    reason="DensityMatrix.__eq__ compares within TOL_MAT but __hash__ rounds the "
    "entries, so states that compare equal can hash apart",
)
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
        out = builtin("CNOT").kraus[0] @ kron(KET1, KET0)
        assert np.allclose(out, kron(KET1, KET1))

    def test_bell_state(self):
        got = builtin("Phi+")
        assert np.allclose(got.mat, projector(PHI_P))

    def test_hadamard_basis_measurement(self):
        m = builtin("Mpm")
        assert np.allclose(m.operators[0], projector(KETP))
        assert np.allclose(m.operators[1], projector(KETM))

    def test_measurement_completeness(self):
        for name in ("M01", "Mpm", "MBell"):
            m = builtin(name)
            acc = sum(op.conj().T @ op for op in m.operators)
            assert np.allclose(acc, ident(acc.shape[0]), atol=1e-9)

    def test_unknown_name(self):
        with pytest.raises(NameError):
            builtin("Hadamarde")

    def test_kraus_sum_condition_checked(self):
        with pytest.raises(ValueError):
            Superoperator([H, H])
        with pytest.raises(ValueError):
            Measurement([projector(KET0), projector(KETP)])
