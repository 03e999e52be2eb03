"""Dense linear algebra for multi-qubit density operators.

States are density matrices over an ordered register of named qubits;
qubit i of the register is the i-th tensor factor (most significant bit
of the basis index). Operators act on arbitrary subsets of the register
by local contraction: a k-qubit operator is contracted into the k target
axes of the state's (2,)*2n tensor view, so it is never extended to the
whole register.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegisterError, TargetError

TOL_MAT = 1e-9
TOL_PROB = 1e-9

# granularity used when hashing states: coarser than TOL_MAT so that
# states equal up to tolerance do not split across hash buckets
HASH_DECIMALS = 7

_SQ2 = 1.0 / math.sqrt(2.0)


def _as_array(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices (or column vectors)."""
    return np.kron(_as_array(a), _as_array(b))


def kron_all(mats) -> np.ndarray:
    out = _as_array(mats[0])
    for m in mats[1:]:
        out = np.kron(out, _as_array(m))
    return out


def dagger(a) -> np.ndarray:
    return _as_array(a).conj().T


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
    in configurations are normalized.
    """

    __slots__ = ("register", "mat", "_key")

    def __init__(self, register, mat, check: bool = True):
        if not isinstance(register, QubitRegister):
            register = QubitRegister(register)
        mat = _as_array(mat)
        dim = 1 << len(register)
        if mat.shape != (dim, dim):
            raise RegisterError(
                f"matrix shape {mat.shape} does not fit register of {len(register)} qubits"
            )
        if check:
            if np.max(np.abs(mat - mat.conj().T)) > 1e-7:
                raise ValueError("density matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(mat)
            if eigs.min() < -1e-7:
                raise ValueError(f"density matrix is not PSD (min eigenvalue {eigs.min()})")
            tr = mat.trace().real
            if tr < -TOL_MAT or tr > 1.0 + 1e-7:
                raise ValueError(f"density matrix trace {tr} outside [0, 1]")
        mat.setflags(write=False)
        self.register = register
        self.mat = mat
        self._key = None

    @property
    def num_qubits(self) -> int:
        return len(self.register)

    def trace(self) -> float:
        return float(self.mat.trace().real)

    def key(self):
        """Hashable fingerprint; rounded so equal states collide."""
        if self._key is None:
            rounded = np.round(self.mat, HASH_DECIMALS) + 0.0  # kill -0.0
            self._key = (self.register.names, rounded.tobytes())
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, DensityMatrix)
            and self.register == other.register
            and self.mat.shape == other.mat.shape
            and np.allclose(self.mat, other.mat, atol=TOL_MAT)
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"DensityMatrix({self.register.names}, tr={self.trace():.6f})"

    def close_to(self, other, atol=TOL_MAT) -> bool:
        return self.register == other.register and np.allclose(
            self.mat, other.mat, atol=atol
        )

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        if set(self.register.names) & set(other.register.names):
            raise RegisterError("tensor factors share qubit names")
        return DensityMatrix(
            self.register.names + other.register.names,
            np.kron(self.mat, other.mat),
            check=False,
        )

    def to_json(self):
        dim = self.mat.shape[0]
        return {
            "rows": dim,
            "cols": dim,
            "entries": [[float(z.real), float(z.imag)] for z in self.mat.reshape(-1)],
        }


class Superoperator:
    """Completely positive map given by its Kraus decomposition."""

    __slots__ = ("arity", "kraus", "trace_preserving")

    def __init__(self, kraus, trace_preserving: bool = True, check: bool = True):
        kraus = [_as_array(k) for k in kraus]
        if not kraus:
            raise ValueError("empty Kraus list")
        dim = kraus[0].shape[0]
        n = dim.bit_length() - 1
        if 1 << n != dim:
            raise ValueError("Kraus operators must be 2^n x 2^n")
        if any(k.shape != (dim, dim) for k in kraus):
            raise ValueError("Kraus operators of mixed dimension")
        if check:
            acc = sum(k.conj().T @ k for k in kraus)
            if trace_preserving:
                if np.max(np.abs(acc - np.eye(dim))) > 1e-7:
                    raise ValueError("Kraus operators do not sum to identity")
            else:
                eigs = np.linalg.eigvalsh(np.eye(dim) - acc)
                if eigs.min() < -1e-7:
                    raise ValueError("Kraus sum exceeds identity")
        self.arity = n
        self.kraus = kraus
        self.trace_preserving = trace_preserving

    @staticmethod
    def unitary(u) -> "Superoperator":
        return Superoperator([u])

    @staticmethod
    def probabilistic(pairs) -> "Superoperator":
        """Mixture of unitaries: Kraus {sqrt(p_i) U_i}."""
        return Superoperator([math.sqrt(p) * _as_array(u) for p, u in pairs])

    @staticmethod
    def constant(rho: np.ndarray) -> "Superoperator":
        """Map sending every input state to `rho`."""
        rho = _as_array(rho)
        dim = rho.shape[0]
        eigvals, eigvecs = np.linalg.eigh(rho)
        kraus = []
        for k in range(dim):
            lam = eigvals[k].real
            if lam <= TOL_MAT:
                continue
            col = eigvecs[:, k].reshape(dim, 1)
            for i in range(dim):
                basis_row = np.zeros((1, dim), dtype=complex)
                basis_row[0, i] = 1.0
                kraus.append(math.sqrt(lam) * (col @ basis_row))
        return Superoperator(kraus)


class Measurement:
    """Ordered family {M_m} with sum_m M_m^dag M_m = I."""

    __slots__ = ("arity", "operators")

    def __init__(self, operators, check: bool = True):
        operators = [_as_array(m) for m in operators]
        dim = operators[0].shape[0]
        n = dim.bit_length() - 1
        if check:
            acc = sum(m.conj().T @ m for m in operators)
            if np.max(np.abs(acc - np.eye(dim))) > 1e-7:
                raise ValueError("measurement does not satisfy the completeness equation")
        self.arity = n
        self.operators = operators

    def __len__(self):
        return len(self.operators)


def _conjugations(ops, targets, rho: DensityMatrix):
    """K rho K^dag for each operator K in `ops`, acting on the qubits
    `targets` of rho's register, as 2^n x 2^n matrices.

    K is contracted into the target row axes of rho's (2,)*2n tensor view
    and conj(K) into the matching column axes; no 2^n x 2^n operator is
    built."""
    positions = rho.register.positions(targets)
    k = len(positions)
    if len(set(positions)) != k:
        raise TargetError(f"duplicate targets {tuple(targets)}")
    n = rho.num_qubits
    dim = 1 << n
    rows = list(positions)
    cols = [n + p for p in positions]
    ins = list(range(k, 2 * k))
    # after both contractions the axes are: target rows, other rows, other
    # columns, target columns; moveaxis puts the targets back in place
    outs = list(range(k)) + list(range(2 * n - k, 2 * n))
    tensor = rho.mat.reshape((2,) * (2 * n))
    for op in ops:
        if op.shape != (1 << k, 1 << k):
            raise TargetError(f"operator shape {op.shape} does not match {k} targets")
        op = op.reshape((2,) * (2 * k))
        # the column targets keep their axis numbers n + p: the k row axes
        # that the first contraction removes are replaced by K's k output axes
        t = np.tensordot(op, tensor, axes=(ins, rows))
        t = np.tensordot(t, op.conj(), axes=(cols, ins))
        yield np.moveaxis(t, outs, rows + cols).reshape(dim, dim)


def apply_superop(e: Superoperator, targets, rho: DensityMatrix) -> DensityMatrix:
    """Sum_i E_i rho E_i^dag with the Kraus operators acting on `targets`."""
    out = np.zeros_like(rho.mat)
    for post in _conjugations(e.kraus, targets, rho):
        out += post
    return DensityMatrix(rho.register, out, check=False)


def measure(m: Measurement, targets, rho: DensityMatrix):
    """All outcomes with positive probability: (m, p_m, rho_m / p_m)."""
    results = []
    for outcome, post in enumerate(_conjugations(m.operators, targets, rho)):
        p = post.trace().real
        if p <= TOL_PROB:
            continue
        results.append((outcome, float(p), DensityMatrix(rho.register, post / p, check=False)))
    return results


def partial_trace(rho: DensityMatrix, traced) -> DensityMatrix:
    """Reduced state over the remaining qubits, order preserved."""
    traced = tuple(traced)
    if not traced:
        return rho
    positions = set(rho.register.positions(traced))
    n = rho.num_qubits
    keep = [i for i in range(n) if i not in positions]
    tensor = rho.mat.reshape([2] * (2 * n))
    # trace out each dropped axis pair, highest axis first so indices stay valid
    for pos in sorted(positions, reverse=True):
        k = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=pos, axis2=k + pos)
    dim = 1 << len(keep)
    return DensityMatrix(rho.register.without(traced), tensor.reshape(dim, dim), check=False)


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
    v = _as_array(vec).reshape(-1, 1)
    return v @ v.conj().T


def pure_state(vec, names) -> DensityMatrix:
    v = _as_array(vec).reshape(-1, 1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(names, projector(v), check=False)


def computational_measurement(n: int) -> Measurement:
    dim = 1 << n
    ops = []
    for m in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[m, m] = 1.0
        ops.append(p)
    return Measurement(ops, check=False)


def hadamard_measurement(n: int) -> Measurement:
    hn = kron_all([H] * n) if n > 1 else H
    return Measurement([hn @ op @ hn for op in computational_measurement(n).operators], check=False)


def bell_measurement() -> Measurement:
    return Measurement([projector(v) for v in (PHI_P, PHI_M, PSI_P, PSI_M)], check=False)


_STATE_VECTORS = {
    "ket0": KET0,
    "ket1": KET1,
    "ketplus": KETP,
    "ketminus": KETM,
    "Phi+": PHI_P,
    "Phi-": PHI_M,
    "Psi+": PSI_P,
    "Psi-": PSI_M,
}

_GATES = {
    "I": I2,
    "X": X,
    "Z": Z,
    "H": H,
    "ZX": ZX,
    "CNOT": CNOT,
    "SWAP": SWAP,
}


def maximally_mixed(n: int) -> np.ndarray:
    dim = 1 << n
    return np.eye(dim, dtype=complex) / dim


def builtin(name: str):
    """Look up a named gate, measurement, or state.

    Gates come back as Superoperator, measurement names as Measurement,
    state names as DensityMatrix over placeholder qubit names q0..qn-1.
    Parameterized forms: Set(<state>), MaxMixed(<n>), Set(MaxMixed(<n>)).
    """
    if name in _GATES:
        return Superoperator.unitary(_GATES[name])
    if name == "M01":
        return computational_measurement(1)
    if name == "Mpm":
        return hadamard_measurement(1)
    if name == "MBell":
        return bell_measurement()
    if name in _STATE_VECTORS:
        v = _STATE_VECTORS[name]
        n = v.shape[0].bit_length() - 1
        return pure_state(v, tuple(f"q{i}" for i in range(n)))
    if name.startswith("MaxMixed(") and name.endswith(")"):
        n = int(name[len("MaxMixed(") : -1])
        return DensityMatrix(tuple(f"q{i}" for i in range(n)), maximally_mixed(n), check=False)
    if name.startswith("Set(") and name.endswith(")"):
        inner = name[len("Set(") : -1]
        if inner in _STATE_VECTORS:
            return Superoperator.constant(projector(_STATE_VECTORS[inner]))
        if inner.startswith("MaxMixed(") and inner.endswith(")"):
            n = int(inner[len("MaxMixed(") : -1])
            return Superoperator.constant(maximally_mixed(n))
    raise NameError(f"unknown builtin {name!r}")
