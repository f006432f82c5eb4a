"""Dense state-vector reference simulator.

Ground truth for equivalence tests.  Deliberately self-contained: it keeps
its own gate matrix table and applies gates by axis slicing on the full
2^n amplitude array, sharing nothing with the diagram kernel beyond Python's
complex type.  Index convention matches the circuit module: qubit 0 is the
least significant bit, amplitude ``i`` belongs to the basis string of ``i``
written most significant bit first.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import CapacityError, InternalError, InvalidArgumentError, UnsupportedGateError

MAX_SIM_QUBITS = 14
MAX_MATRIX_QUBITS = 8

_S2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "h": [[_S2, _S2], [_S2, -_S2]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(0.25j * math.pi)]],
    "tdg": [[1, 0], [0, cmath.exp(-0.25j * math.pi)]],
    "sx": [[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]],
    "sxdg": [[0.5 - 0.5j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 - 0.5j]],
}


def _matrix_2x2(gate) -> np.ndarray:
    kind = {"cx": "x", "cz": "z", "cp": "p"}.get(gate.kind, gate.kind)
    if kind in _FIXED:
        return np.array(_FIXED[kind], dtype=complex)
    th = gate.parameter
    if kind == "p":
        return np.array([[1, 0], [0, cmath.exp(1j * th)]], dtype=complex)
    if kind == "ry":
        c, sn = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -sn], [sn, c]], dtype=complex)
    if kind == "rz":
        return np.array([[cmath.exp(-0.5j * th), 0], [0, cmath.exp(0.5j * th)]],
                        dtype=complex)
    if kind == "u":
        m = gate.matrix
        return np.array([[m[0], m[1]], [m[2], m[3]]], dtype=complex)
    raise UnsupportedGateError(f"unknown gate kind {kind!r}")


def apply_gate(state: np.ndarray, gate, n: int) -> np.ndarray:
    """Apply one gate in place via axis slicing; returns the same array."""
    psi = state.reshape([2] * n)
    base = [slice(None)] * n
    for c in gate.controls:
        base[n - 1 - c] = 1
    if gate.kind == "swap":
        a, b = gate.targets
        ia, ib = n - 1 - a, n - 1 - b
        lo = base.copy()
        hi = base.copy()
        lo[ia], lo[ib] = 0, 1
        hi[ia], hi[ib] = 1, 0
        tmp = psi[tuple(lo)].copy()
        psi[tuple(lo)] = psi[tuple(hi)]
        psi[tuple(hi)] = tmp
        return state
    mat = _matrix_2x2(gate)
    ax = n - 1 - gate.targets[0]
    s0 = base.copy()
    s1 = base.copy()
    s0[ax], s1[ax] = 0, 1
    a = psi[tuple(s0)].copy()
    b = psi[tuple(s1)]
    psi[tuple(s0)] = mat[0, 0] * a + mat[0, 1] * b
    psi[tuple(s1)] = mat[1, 0] * a + mat[1, 1] * b
    return state


def simulate(circuit, initial: str | int | None = None) -> np.ndarray:
    """Gate-by-gate dense simulation from a computational basis state."""
    n = circuit.num_qubits
    if n > MAX_SIM_QUBITS:
        raise CapacityError(f"dense simulation capped at {MAX_SIM_QUBITS} qubits")
    state = np.zeros(1 << n, dtype=complex)
    if initial is None:
        index = 0
    elif isinstance(initial, str):
        if len(initial) != n or any(c not in "01" for c in initial):
            raise InvalidArgumentError(f"bad basis string {initial!r} for {n} qubits")
        index = int(initial, 2)
    else:
        index = int(initial)
        if not 0 <= index < (1 << n):
            raise InvalidArgumentError(f"basis index {index} out of range")
    state[index] = 1.0
    for g in circuit.gates:
        apply_gate(state, g, n)
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > 1e-10:
            raise InternalError(f"norm drifted to {norm} after {g.kind}")
    return state


def gate_matrix(gate, n: int) -> np.ndarray:
    """Gate extended to the full 2^n x 2^n operator."""
    if n > MAX_MATRIX_QUBITS:
        raise CapacityError(f"explicit matrices capped at {MAX_MATRIX_QUBITS} qubits")
    for q in gate.qubits:
        if not 0 <= q < n:
            raise InvalidArgumentError(f"qubit {q} out of range for {n} qubits")
    dim = 1 << n
    full = np.eye(dim, dtype=complex)
    for k in range(dim):
        apply_gate(full[:, k], gate, n)
    return full


def circuit_unitary(circuit) -> np.ndarray:
    """Full unitary of a circuit, by simulating every basis column."""
    n = circuit.num_qubits
    if n > MAX_MATRIX_QUBITS:
        raise CapacityError(f"explicit matrices capped at {MAX_MATRIX_QUBITS} qubits")
    dim = 1 << n
    full = np.empty((dim, dim), dtype=complex)
    for k in range(dim):
        full[:, k] = simulate(circuit, k)
    return full


def compare_states(a: np.ndarray, b: np.ndarray, up_to_global_phase: bool = False) -> float:
    """Max per-amplitude deviation, optionally after phase-aligning ``b`` to ``a``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"size mismatch: {a.shape} vs {b.shape}")
    if up_to_global_phase:
        i = int(np.argmax(np.abs(b)))
        prod = a[i] * np.conj(b[i])
        mag = abs(prod)
        if mag > 0:
            b = b * (prod / mag)
    return float(np.max(np.abs(a - b)))
