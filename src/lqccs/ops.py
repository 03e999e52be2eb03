"""Resolution of operator and measurement names used in terms.

Single-qubit gates resolve at any arity as tensor powers; Set-prefixed
names prepare a fixed state; PauliMix, the uniform mixture of I, X, Z,
ZX, is the channel SetMaxMix on one qubit and resolves to that object.
A Signature may register extra named operators which take precedence.
"""

from __future__ import annotations

from functools import lru_cache

from . import qcore
from .errors import ArityError
from .syntax import Signature

_TENSORABLE = {"I": qcore.I2, "H": qcore.H, "X": qcore.X, "Z": qcore.Z, "ZX": qcore.ZX}
_FIXED = {"CNOT": qcore.CNOT, "SWAP": qcore.SWAP}
# the named states: Set-operator name -> (`--state` token, state vector)
STATES = {
    "Set0": ("ket0", qcore.KET0),
    "Set1": ("ket1", qcore.KET1),
    "SetPlus": ("ketplus", qcore.KETP),
    "SetMinus": ("ketminus", qcore.KETM),
    "SetPhiP": ("phi+", qcore.PHI_P),
    "SetPhiM": ("phi-", qcore.PHI_M),
    "SetPsiP": ("psi+", qcore.PSI_P),
    "SetPsiM": ("psi-", qcore.PSI_M),
}


@lru_cache(maxsize=None)
def _builtin_operator(name: str, arity: int):
    if name in _TENSORABLE:
        return qcore.Superoperator.unitary(qcore.kron_all([_TENSORABLE[name]] * arity))
    if name in _FIXED:
        if arity != 2:
            raise ArityError(f"{name} takes 2 qubits, got {arity}")
        return qcore.Superoperator.unitary(_FIXED[name])
    if name in STATES:
        vec = STATES[name][1]
        want = vec.shape[0].bit_length() - 1
        if arity != want:
            raise ArityError(f"{name} takes {want} qubits, got {arity}")
        return qcore.Superoperator.constant(qcore.projector(vec))
    if name == "SetMaxMix":
        return qcore.Superoperator.constant(qcore.maximally_mixed(arity))
    if name == "PauliMix":
        if arity != 1:
            raise ArityError(f"PauliMix takes 1 qubit, got {arity}")
        return _builtin_operator("SetMaxMix", 1)
    return None


@lru_cache(maxsize=None)
def _builtin_measurement(name: str, arity: int):
    if name == "M01":
        return qcore.computational_measurement(arity)
    if name == "Mpm":
        return qcore.hadamard_measurement(arity)
    if name == "MBell":
        if arity != 2:
            raise ArityError(f"MBell takes 2 qubits, got {arity}")
        return qcore.bell_measurement()
    return None


def resolve_operator(name: str, arity: int, sig: Signature | None = None) -> qcore.Superoperator:
    if sig is not None and name in sig.operators:
        op = sig.operators[name]
        if op.arity != arity:
            raise ArityError(f"{name} has arity {op.arity}, applied to {arity} qubits")
        return op
    op = _builtin_operator(name, arity)
    if op is None:
        raise NameError(f"unknown operator {name!r}")
    return op


def resolve_measurement(name: str, arity: int, sig: Signature | None = None) -> qcore.Measurement:
    if sig is not None and name in sig.measurements:
        m = sig.measurements[name]
        if m.arity != arity:
            raise ArityError(f"{name} has arity {m.arity}, applied to {arity} qubits")
        return m
    m = _builtin_measurement(name, arity)
    if m is None:
        raise NameError(f"unknown measurement {name!r}")
    return m
