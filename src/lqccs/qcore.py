"""Dense linear algebra for multi-qubit density operators.

States are density operators over an ordered register of named qubits;
qubit i of the register is the i-th tensor factor (most significant bit
of the basis index). A pure state is held as its ket psi, a flat 2^n
vector, and mixed states as the 2^n x 2^n matrix rho; rho = psi psi^dag
of a ket is built only when a reader asks for it. `pure_state` builds
kets; a measurement branch and the tensor product of two kets keep them
kets. Operators act on k target qubits through a targets-first view (the
state's axes permuted once so that the targets lead, and back once),
never extended to the whole register. A superoperator's kind picks its
rule: a non-constant one-Kraus map keeps a ket a ket; a constant channel,
which prepares a state sigma on its targets, is its state, rho -> sigma
(x) tr_T rho with tr_T from `partial_trace`; any other map adds up
K_i rho K_i^dag one at a time. A ket meeting the last two is made rho.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import RegisterError, TargetError
from .memo import recall

TOL_MAT = 1e-9
TOL_PROB = 1e-9
# slack when checking caller-supplied matrices: Hermitian, PSD, trace at
# most one, Kraus and measurement completeness
TOL_CHECK = 1e-7
# slack on a distribution's total mass and on a replayed witness's
# flag probabilities
TOL_MASS = 1e-6
# entrywise distance below which two reduced or aggregate states agree
TOL_STATE = 1e-8

# granularity used when hashing states: coarser than TOL_MAT so that
# states equal up to tolerance do not split across hash buckets
HASH_DECIMALS = 7
# granularity of TOL_PROB, used when keying a distribution's masses
PROB_DECIMALS = 9
# entries further apart than this round to different keys, with a wide
# margin for the float error of computing them two ways
KEY_APART = 10.0 ** (1 - HASH_DECIMALS)

_SQ2 = 1.0 / math.sqrt(2.0)


def _as_array(mat) -> np.ndarray:
    """Caller data as a complex array, checked to be finite."""
    a = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices (or column vectors)."""
    return np.kron(_as_array(a), _as_array(b))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of any number of factors; of none, the 1x1 identity."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, _as_array(m))
    return out


class QubitRegister:
    """Ordered sequence of distinct qubit names."""

    __slots__ = ("names", "_pos")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate qubit names in register {names}")
        self.names = names
        self._pos = {q: i for i, q in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, QubitRegister) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"QubitRegister{self.names}"

    def position(self, name) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise TargetError(f"unknown qubit {name!r} (register {self.names})") from None

    def positions(self, names):
        return tuple(self.position(q) for q in names)

    def without(self, names) -> "QubitRegister":
        gone = set(names)
        return QubitRegister(tuple(q for q in self.names if q not in gone))


class DensityMatrix:
    """Positive semidefinite operator over a named qubit register.

    Trace may be below one for intermediate (partial) states; states used
    in configurations are normalized. `check=True` validates caller data,
    finiteness included; `check=False` is for results computed from
    states and operators that were already checked, and scans nothing.

    A pure state may be held as its ket instead (`from_ket`): `ket` is
    then the flat 2^n vector psi, and `mat`, rho = psi psi^dag, is built
    on each read and not kept. `ket` is None for a state held as rho.
    """

    __slots__ = ("register", "ket", "_mat", "_key")

    def __init__(self, register, mat, check: bool = True):
        if not isinstance(register, QubitRegister):
            register = QubitRegister(register)
        mat = _as_array(mat) if check else np.asarray(mat, dtype=complex)
        dim = 1 << len(register)
        if mat.shape != (dim, dim):
            raise RegisterError(
                f"matrix shape {mat.shape} does not fit register of {len(register)} qubits"
            )
        if check:
            if np.max(np.abs(mat - mat.conj().T)) > TOL_CHECK:
                raise ValueError("density matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(mat)
            if eigs.min() < -TOL_CHECK:
                raise ValueError(f"density matrix is not PSD (min eigenvalue {eigs.min()})")
            tr = mat.trace().real
            if tr < -TOL_MAT or tr > 1.0 + TOL_CHECK:
                raise ValueError(f"density matrix trace {tr} outside [0, 1]")
        mat.setflags(write=False)
        self.register = register
        self.ket = None
        self._mat = mat
        self._key = None

    @classmethod
    def from_ket(cls, register, psi: np.ndarray) -> "DensityMatrix":
        """The state psi psi^dag held as psi, a flat complex 2^n vector
        computed from checked data; nothing is scanned, and psi is made
        read-only, not copied."""
        self = cls.__new__(cls)
        self.register = register if isinstance(register, QubitRegister) else QubitRegister(register)
        if psi.shape != (1 << len(self.register),):
            raise RegisterError(
                f"ket shape {psi.shape} does not fit register of {len(self.register)} qubits"
            )
        psi.setflags(write=False)
        self.ket = psi
        self._mat = None
        self._key = None
        return self

    @property
    def mat(self) -> np.ndarray:
        """rho; for a ket, psi psi^dag, built afresh on each read."""
        return self._mat if self.ket is None else _ket_bra(self.ket)

    @property
    def num_qubits(self) -> int:
        return len(self.register)

    def trace(self) -> float:
        if self.ket is not None:
            return float(np.vdot(self.ket, self.ket).real)
        return float(self._mat.trace().real)

    def is_pure(self) -> bool:
        """Held as a ket, or tr(rho^2) within TOL_MAT of one."""
        return self.ket is not None or abs(np.vdot(self._mat, self._mat).real - 1.0) <= TOL_MAT

    def key(self):
        """Hashable fingerprint; rounded so equal states collide. For a ket
        it is built from psi psi^dag, so it does not depend on how a state
        is held."""
        if self._key is None:
            rounded = np.round(self.mat, HASH_DECIMALS) + 0.0  # kill -0.0
            self._key = (self.register.names, rounded.tobytes())
        return self._key

    def keys_differ(self, other: "DensityMatrix") -> bool:
        """Whether `key()`s not built yet must differ, read off two kets'
        diagonals |psi_i|^2: True only when neither state has a key, both
        are kets over one register and some diagonal entries are more than
        KEY_APART apart; False says nothing."""
        if (self.ket is None or other.ket is None or self._key is not None
                or other._key is not None or self.register != other.register):
            return False
        diag = np.abs(self.ket) ** 2 - np.abs(other.ket) ** 2
        return bool(np.max(np.abs(diag)) > KEY_APART)

    def __eq__(self, other):
        return isinstance(other, DensityMatrix) and self.close_to(other)

    def __hash__(self):
        # equality holds within a tolerance, which no rounding of the entries
        # respects, so only the register is hashed
        return hash(self.register.names)

    def __repr__(self):
        return f"DensityMatrix({self.register.names}, tr={self.trace():.6f})"

    def close_to(self, other) -> bool:
        return self.register == other.register and np.allclose(
            self.mat, other.mat, atol=TOL_MAT
        )

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        if set(self.register.names) & set(other.register.names):
            raise RegisterError("tensor factors share qubit names")
        names = self.register.names + other.register.names
        if self.ket is not None and other.ket is not None:
            return DensityMatrix.from_ket(names, np.kron(self.ket, other.ket))
        return DensityMatrix(names, np.kron(self.mat, other.mat), check=False)

    def to_json(self):
        dim = 1 << self.num_qubits
        return {
            "rows": dim,
            "cols": dim,
            "entries": [[float(z.real), float(z.imag)] for z in self.mat.reshape(-1)],
        }


def _operator_stack(ops, check: bool, what: str):
    """Caller operators as one (q, 2^k, 2^k) complex stack, and k; with
    `check`, sum_m M_m^dag M_m = I is checked too."""
    ops = [_as_array(m) for m in ops]
    if not ops:
        raise ValueError(f"empty {what} list")
    shape = ops[0].shape
    if any(m.shape != shape for m in ops):
        raise ValueError(f"{what} operators of mixed shape")
    k = shape[0].bit_length() - 1 if len(shape) == 2 else -1
    if k < 0 or shape != (1 << k, 1 << k):
        raise ValueError(f"{what} operators must be 2^n x 2^n, not {shape}")
    stack = np.stack(ops)
    if check and np.max(np.abs(_gram(stack) - np.eye(1 << k))) > TOL_CHECK:
        raise ValueError(f"{what} operators do not satisfy sum M^dag M = I")
    return stack, k


def _gram(stack) -> np.ndarray:
    """sum_m M_m^dag M_m of a (q, d, d) stack, as one matrix product."""
    d = stack.shape[-1]
    return stack.conj().reshape(-1, d).T @ stack.reshape(-1, d)


class Superoperator:
    """Completely positive map given by its Kraus decomposition, a
    (r, 2^k, 2^k) stack; `check` requires it to be trace preserving.
    `state` is sigma, 2^k x 2^k, for the constant map rho -> sigma (x)
    tr_T rho that `constant` builds, and None for every other map; a
    constant is applied as its state (the module docstring's rules), its
    stack kept only as the reference the tests and the bench tracer read."""

    __slots__ = ("arity", "kraus", "state")

    def __init__(self, kraus, check: bool = True):
        self.kraus, self.arity = _operator_stack(kraus, check, "Kraus")
        self.state = None

    @staticmethod
    def unitary(u) -> "Superoperator":
        return Superoperator([u])

    @staticmethod
    def probabilistic(pairs) -> "Superoperator":
        """Mixture of unitaries: Kraus {sqrt(p_i) U_i}."""
        return Superoperator([math.sqrt(p) * _as_array(u) for p, u in pairs])

    @staticmethod
    def constant(rho: np.ndarray) -> "Superoperator":
        """Map sending every input state to `rho`, which must be a state:
        Hermitian, PSD and, by the Kraus completeness check, of unit trace.
        Its Kraus operators, a reference only, are sqrt(lam_j) |v_j><i|
        over rho's eigenpairs (lam_j, v_j) with lam_j > 0 and basis |i>."""
        rho = _as_array(rho)
        dim = rho.shape[0]
        rho = DensityMatrix(range(dim.bit_length() - 1), rho).mat
        lam, vecs = np.linalg.eigh(rho)
        cols = vecs[:, lam > TOL_MAT] * np.sqrt(lam[lam > TOL_MAT])
        e = Superoperator(np.einsum("aj,ib->jiab", cols, np.eye(dim)).reshape(-1, dim, dim))
        e.state = rho
        return e


class Measurement:
    """Ordered family {M_m} with sum_m M_m^dag M_m = I, a (q, 2^k, 2^k)
    stack. `effects[m]` is conj(M_m^dag M_m) flattened, so that p_m is
    effects[m] . vec(rho_T) for the targets' reduced state rho_T."""

    __slots__ = ("arity", "operators", "effects")

    def __init__(self, operators, check: bool = True):
        ops, self.arity = _operator_stack(operators, check, "measurement")
        self.operators = ops
        self.effects = (ops.transpose(0, 2, 1) @ ops.conj()).reshape(len(ops), -1)

    def __len__(self):
        return len(self.operators)


def _target_positions(family, targets, rho: DensityMatrix) -> tuple:
    """Register positions of `targets`, checked to be distinct and to
    match `family`'s arity."""
    positions = rho.register.positions(targets)
    k = len(positions)
    if len(set(positions)) != k:
        raise TargetError(f"duplicate targets {tuple(targets)}")
    if k != family.arity:
        raise TargetError(f"operator on {family.arity} qubits does not match {k} targets")
    return positions


@lru_cache(maxsize=None)
def _axes(n: int, positions: tuple, dense: bool):
    """Tensor shape and axis orders to (`_lead`) and from (`_restore`,
    after a batch axis) the targets-first order: the target axes in the
    order of `positions`, for rho their rows then their columns, then the
    other axes in register order, for rho rows then columns."""
    lead = positions + (tuple(n + p for p in positions) if dense else ())
    bits = 2 * n if dense else n
    forward = lead + tuple(i for i in range(bits) if i not in lead)
    back = (0,) + tuple(1 + i for i in np.argsort(forward).tolist())
    return (2,) * bits, forward, back


def _lead(rho: DensityMatrix, positions) -> np.ndarray:
    """rho's targets-first view, a copy: psi as a 2^k x 2^(n-k) matrix, or
    rho as a 4^k x 4^(n-k) one, row (target row, target column)."""
    dense = rho.ket is None
    shape, forward, _ = _axes(rho.num_qubits, positions, dense)
    x = rho._mat if dense else rho.ket
    return x.reshape(shape).transpose(forward).reshape(1 << len(positions) * (1 + dense), -1)


def _restore(out: np.ndarray, positions, rho: DensityMatrix) -> np.ndarray:
    """`_lead` undone on each of a stack of views: a stack of kets or of
    2^n x 2^n matrices, as rho is held."""
    dense = rho.ket is None
    shape, _, back = _axes(rho.num_qubits, positions, dense)
    x = rho._mat if dense else rho.ket
    return out.reshape((-1,) + shape).transpose(back).reshape((-1,) + x.shape)


def _sandwich(ops, view: np.ndarray) -> np.ndarray:
    """The views of M rho M^dag for each M of the stack `ops`, from rho's
    view: M on the targets' row index, conj(M) on their column index."""
    d, others = ops.shape[-1], view.shape[1]
    rows = (ops @ view.reshape(d, -1)).reshape(len(ops), d, d, others)
    return (ops.conj()[:, None] @ rows).reshape(len(ops), d * d, others)


def _marginal(rho: DensityMatrix, positions) -> np.ndarray:
    """Reduced state of rho, held as a matrix, on the qubits at
    `positions`, in that order; read in place, with no copy of rho."""
    n = rho.num_qubits
    # row axis i and column axis n + i share a label, and so are traced
    # out, unless i is a target
    labels = list(range(n)) + [n + i if i in positions else i for i in range(n)]
    out = list(positions) + [n + p for p in positions]
    dim = 1 << len(positions)
    return np.einsum(rho._mat.reshape((2,) * (2 * n)), labels, out).reshape(dim, dim)


def _backend_key(op, targets, rho: DensityMatrix):
    return (op, tuple(targets), rho.key())


def apply_superop(e: Superoperator, targets, rho: DensityMatrix) -> DensityMatrix:
    """Sum_i E_i rho E_i^dag with the Kraus operators acting on `targets`."""
    return recall(_apply_superop, _backend_key, e, targets, rho)


def _apply_superop(e: Superoperator, targets, rho: DensityMatrix) -> DensityMatrix:
    positions = _target_positions(e, targets, rho)
    if rho.ket is not None:
        if e.state is None and len(e.kraus) == 1:
            psi = _restore(e.kraus[0] @ _lead(rho, positions), positions, rho)[0]
            return DensityMatrix.from_ket(rho.register, psi)
        rho = DensityMatrix(rho.register, rho.mat, check=False)
    if e.state is not None:
        # sigma (x) tr_T rho, in the targets-first view's (row, column) order
        out = e.state.reshape(-1, 1) * partial_trace(rho, targets)._mat.reshape(1, -1)
    else:
        # one K_i at a time: at most four 2^n x 2^n arrays, whatever r is
        view = _lead(rho, positions)
        out = _sandwich(e.kraus[:1], view)
        for k in e.kraus[1:]:
            out += _sandwich(k[None], view)
        del view
    return DensityMatrix(rho.register, _restore(out, positions, rho)[0], check=False)


def measure(m: Measurement, targets, rho: DensityMatrix):
    """All outcomes with positive probability: (m, p_m, rho_m / p_m)."""
    return recall(_measure, _backend_key, m, targets, rho)


def _measure(m: Measurement, targets, rho: DensityMatrix):
    positions = _target_positions(m, targets, rho)
    view = _lead(rho, positions)
    if rho.ket is None:
        # p_m = tr(M_m^dag M_m rho_T) on the targets' reduced state rho_T
        # picks the outcomes to keep before any post-state is built
        p = (m.effects @ _marginal(rho, positions).reshape(-1)).real.tolist()
        kept = [o for o, po in enumerate(p) if po > TOL_PROB]
        posts = _restore(_sandwich(m.operators[kept], view), positions, rho)
        return [(o, p[o], DensityMatrix(rho.register, post / p[o], check=False))
                for o, post in zip(kept, posts)]
    # branch m is M_m psi / sqrt(p_m), with p_m = |M_m psi|^2, a norm the
    # targets-first order does not change
    posts = (m.operators.reshape(-1, len(view)) @ view).reshape(len(m), -1)
    p = np.einsum("ij,ij->i", posts.conj(), posts).real.tolist()
    kept = [o for o, po in enumerate(p) if po > TOL_PROB]
    return [(o, p[o], DensityMatrix.from_ket(rho.register, post / math.sqrt(p[o])))
            for o, post in zip(kept, _restore(posts[kept], positions, rho))]


def partial_trace(rho: DensityMatrix, traced) -> DensityMatrix:
    """Reduced state over the remaining qubits, order preserved; of a ket,
    A A^dag with A the ket's targets-first view, a kept x traced matrix."""
    traced = tuple(traced)
    if not traced:
        return rho
    gone = set(rho.register.positions(traced))
    kept = tuple(i for i in range(rho.num_qubits) if i not in gone)
    register = rho.register.without(traced)
    if rho.ket is None:
        return DensityMatrix(register, _marginal(rho, kept), check=False)
    view = _lead(rho, kept)
    return DensityMatrix(register, view @ view.conj().T, check=False)


def mix(rho: DensityMatrix, sigma: DensityMatrix, p: float) -> DensityMatrix:
    """Convex combination p*rho + (1-p)*sigma over a shared register."""
    if rho.register != sigma.register:
        raise RegisterError(
            f"register mismatch: {rho.register.names} vs {sigma.register.names}"
        )
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"mixing weight {p} outside [0, 1]")
    return DensityMatrix(rho.register, p * rho.mat + (1 - p) * sigma.mat, check=False)


# ---------------------------------------------------------------------------
# Builtin gates, measurements, and states

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
ZX = Z @ X
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

KET0 = np.array([[1], [0]], dtype=complex)
KET1 = np.array([[0], [1]], dtype=complex)
KETP = _SQ2 * (KET0 + KET1)
KETM = _SQ2 * (KET0 - KET1)
PHI_P = _SQ2 * (kron(KET0, KET0) + kron(KET1, KET1))
PHI_M = _SQ2 * (kron(KET0, KET0) - kron(KET1, KET1))
PSI_P = _SQ2 * (kron(KET0, KET1) + kron(KET1, KET0))
PSI_M = _SQ2 * (kron(KET0, KET1) - kron(KET1, KET0))


def projector(vec) -> np.ndarray:
    return _ket_bra(_as_array(vec))


def _ket_bra(psi: np.ndarray) -> np.ndarray:
    v = psi.reshape(-1, 1)
    return v @ v.conj().T


def pure_state(vec, names) -> DensityMatrix:
    """The normalized ket `vec` over the register `names`, held as a ket."""
    v = _as_array(vec).reshape(-1)
    return DensityMatrix.from_ket(names, v / np.linalg.norm(v))


def computational_measurement(n: int) -> Measurement:
    dim = 1 << n
    ops = []
    for m in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[m, m] = 1.0
        ops.append(p)
    return Measurement(ops, check=False)


def hadamard_measurement(n: int) -> Measurement:
    hn = kron_all([H] * n)
    return Measurement([hn @ op @ hn for op in computational_measurement(n).operators], check=False)


def bell_measurement() -> Measurement:
    return Measurement([projector(v) for v in (PHI_P, PHI_M, PSI_P, PSI_M)], check=False)


def maximally_mixed(n: int) -> np.ndarray:
    dim = 1 << n
    return np.eye(dim, dtype=complex) / dim
