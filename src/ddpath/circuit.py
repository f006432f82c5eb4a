"""Circuit intermediate representation, benchmark generators, and transpiler.

Conventions used throughout the package: qubit 0 is the least significant bit
of a basis index, basis strings are written most significant bit first, and
``gates[0]`` is applied first.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from . import gates as _gates
from .errors import InvalidArgumentError, UnsupportedGateError

NATIVE_GATES = frozenset({"h", "p", "cx"})


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    parameter: float | None = None
    matrix: _gates.Mat2 | None = None

    def __post_init__(self):
        if self.kind not in _gates.ALL_KINDS:
            raise InvalidArgumentError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind == "swap" else 1
        if len(self.targets) != want:
            raise InvalidArgumentError(
                f"gate {self.kind} expects {want} target(s), got {self.targets}")
        if self.kind in _gates.CONTROLLED_BASE and len(self.controls) < 1:
            raise InvalidArgumentError(f"gate {self.kind} needs a control qubit")
        if set(self.targets) & set(self.controls):
            raise InvalidArgumentError(
                f"controls and targets overlap in {self.kind}: "
                f"{self.controls} / {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise InvalidArgumentError(f"duplicate target in {self.kind}")
        if len(set(self.controls)) != len(self.controls):
            raise InvalidArgumentError(f"duplicate control in {self.kind}")
        needs_param = self.kind in _gates.PARAMETERIZED
        if needs_param and self.parameter is None:
            raise InvalidArgumentError(f"gate {self.kind} needs an angle")
        if not needs_param and self.parameter is not None:
            raise InvalidArgumentError(f"gate {self.kind} takes no angle")
        if self.kind == "u" and self.matrix is None:
            raise InvalidArgumentError("gate 'u' needs an explicit 2x2 matrix")
        if self.parameter is not None and not math.isfinite(self.parameter):
            raise InvalidArgumentError(
                f"gate {self.kind} has a non-finite angle {self.parameter!r}")
        if self.matrix is not None and not all(cmath.isfinite(x) for x in self.matrix):
            raise InvalidArgumentError(f"gate {self.kind} has a non-finite matrix entry")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def inverse(self) -> "Gate":
        kind = self.kind
        if kind in _gates.SELF_INVERSE:
            return self
        if kind in _gates.INVERSE_PAIRS:
            return Gate(_gates.INVERSE_PAIRS[kind], self.targets, self.controls)
        if kind in _gates.PARAMETERIZED:
            return Gate(kind, self.targets, self.controls, -self.parameter)
        if kind == "u":
            return Gate("u", self.targets, self.controls, matrix=_gates.dagger(self.matrix))
        raise UnsupportedGateError(f"no inverse rule for {kind!r}")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InvalidArgumentError(
                f"qubit count must be >= 1, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise InvalidArgumentError(
                        f"qubit {q} out of range for {self.num_qubits}-qubit circuit")


# ----------------------------------------------------------------------
# gate construction helpers

def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def phase(theta: float, q: int) -> Gate:
    return Gate("p", (q,), parameter=theta)


def ry(theta: float, q: int) -> Gate:
    return Gate("ry", (q,), parameter=theta)


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (target,), (control,))


def cz(control: int, target: int) -> Gate:
    return Gate("cz", (target,), (control,))


def cp(theta: float, control: int, target: int) -> Gate:
    return Gate("cp", (target,), (control,), parameter=theta)


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b))


# ----------------------------------------------------------------------
# composition

def invert(c: Circuit) -> Circuit:
    """Reverse the gate order and replace each gate by its inverse."""
    return Circuit(c.num_qubits, tuple(g.inverse() for g in reversed(c.gates)))


def concat_inverse(g: Circuit, g_prime: Circuit) -> Circuit:
    """``g`` followed by the inverse of ``g_prime`` (the miter circuit)."""
    if g.num_qubits != g_prime.num_qubits:
        raise InvalidArgumentError(
            f"qubit count mismatch: {g.num_qubits} vs {g_prime.num_qubits}")
    return Circuit(g.num_qubits, g.gates + invert(g_prime).gates)


# ----------------------------------------------------------------------
# benchmark generators

def ghz(n: int) -> Circuit:
    if n < 1:
        raise InvalidArgumentError(f"ghz needs n >= 1, got {n}")
    gates = [h(0)] + [cx(k - 1, k) for k in range(1, n)]
    return Circuit(n, tuple(gates))


def qft(n: int) -> Circuit:
    if n < 1:
        raise InvalidArgumentError(f"qft needs n >= 1, got {n}")
    gates = []
    for k in range(n):
        gates.append(h(k))
        for j in range(k + 1, n):
            gates.append(cp(math.pi / (1 << (j - k)), j, k))
    for i in range(n // 2):
        gates.append(swap(i, n - 1 - i))
    return Circuit(n, tuple(gates))


def entangled_qft(n: int) -> Circuit:
    if n < 2:
        raise InvalidArgumentError(f"entangled qft needs n >= 2, got {n}")
    return Circuit(n, ghz(n).gates + qft(n).gates)


def w_state(n: int) -> Circuit:
    """W-state preparation via an RY/CZ cascade followed by a CX chain."""
    if n < 2:
        raise InvalidArgumentError(f"w_state needs n >= 2, got {n}")
    gates = [x(n - 1)]
    for l in range(1, n):
        theta = math.acos(math.sqrt(1.0 / (n - l + 1)))
        i, j = n - l, n - l - 1
        gates += [ry(-theta, j), cz(i, j), ry(theta, j)]
    for k in range(n - 1, 0, -1):
        gates.append(cx(k - 1, k))
    return Circuit(n, tuple(gates))


def graph_state(n: int, edges: list[tuple[int, int]] | None = None) -> Circuit:
    """Graph state: H on every qubit, CZ per edge.  Default graph is a ring."""
    if n < 2:
        raise InvalidArgumentError(f"graph_state needs n >= 2, got {n}")
    if edges is None:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    seen = set()
    for a, b in edges:
        if a == b:
            raise InvalidArgumentError(f"self-loop edge ({a}, {b})")
        if frozenset((a, b)) in seen:
            raise InvalidArgumentError(f"duplicate edge ({a}, {b})")
        seen.add(frozenset((a, b)))
    gates = [h(q) for q in range(n)]
    gates += [cz(a, b) for a, b in edges]
    return Circuit(n, tuple(gates))


def deutsch_jozsa(n: int) -> Circuit:
    """Deutsch-Jozsa on n-1 inputs plus one ancilla, with the balanced
    oracle wired as a CX from every input to the ancilla."""
    if n < 2:
        raise InvalidArgumentError(f"deutsch_jozsa needs n >= 2, got {n}")
    anc = n - 1
    gates = [x(anc)]
    gates += [h(q) for q in range(n)]
    gates += [cx(q, anc) for q in range(n - 1)]
    gates += [h(q) for q in range(n - 1)]
    return Circuit(n, tuple(gates))


GENERATORS = {
    "ghz": ghz,
    "wstate": w_state,
    "graph": graph_state,
    "dj": deutsch_jozsa,
    "qft": qft,
    "qftentangled": entangled_qft,
}


# ----------------------------------------------------------------------
# transpilation into a native gate set

def _expansion(g: Gate) -> list[Gate]:
    """Rewrite of one gate that is not native in terms of {h, p, cx}.

    Expansions are exact except where noted; y / ry / rz trade a global phase.
    """
    k = g.kind
    # every rule takes the controls of its kind: one for cx, cz and cp, none
    # otherwise; a native gate reaches here only with some other count
    if len(g.controls) != (1 if k in _gates.CONTROLLED_BASE else 0):
        raise UnsupportedGateError(
            f"no decomposition rule for {k!r} with {len(g.controls)} controls")
    if k == "swap":
        a, b = g.targets
        return [cx(a, b), cx(b, a), cx(a, b)]
    if k == "cp":
        c, t_ = g.controls[0], g.targets[0]
        th = g.parameter
        return [phase(th / 2, c), cx(c, t_), phase(-th / 2, t_), cx(c, t_), phase(th / 2, t_)]
    if k == "cz":
        return _expansion(cp(math.pi, g.controls[0], g.targets[0]))
    q = g.targets[0]
    if k == "x":
        return [h(q), phase(math.pi, q), h(q)]
    if k == "y":
        return [phase(math.pi, q), h(q), phase(math.pi, q), h(q)]
    if k == "z":
        return [phase(math.pi, q)]
    if k == "s":
        return [phase(math.pi / 2, q)]
    if k == "sdg":
        return [phase(-math.pi / 2, q)]
    if k == "t":
        return [phase(math.pi / 4, q)]
    if k == "tdg":
        return [phase(-math.pi / 4, q)]
    if k == "sx":
        return [h(q), phase(math.pi / 2, q), h(q)]
    if k == "sxdg":
        return [h(q), phase(-math.pi / 2, q), h(q)]
    if k == "rz":
        return [phase(g.parameter, q)]
    if k == "ry":
        return [phase(-math.pi / 2, q), h(q), phase(g.parameter, q), h(q), phase(math.pi / 2, q)]
    raise UnsupportedGateError(f"no decomposition rule for {k!r}")


def _transpile_gate(g: Gate, out: list[Gate]) -> None:
    intrinsic = 1 if g.kind in _gates.CONTROLLED_BASE else 0
    if g.kind in NATIVE_GATES and len(g.controls) == intrinsic:
        out.append(g)
        return
    for sub in _expansion(g):
        _transpile_gate(sub, out)


def transpile(c: Circuit) -> Circuit:
    """Rule-based rewrite of ``c`` over ``NATIVE_GATES``; equal up to global phase.

    No optimization pass runs afterwards, so the output length is exactly the
    sum of the per-gate decomposition costs.
    """
    out: list[Gate] = []
    for g in c.gates:
        _transpile_gate(g, out)
    return Circuit(c.num_qubits, tuple(out))


def decomposition_cost(kind: str) -> int:
    """Number of native gates the transpile rule emits for one gate of ``kind``."""
    if kind not in _gates.ALL_KINDS:
        raise UnsupportedGateError(f"unknown gate kind {kind!r}")
    if kind == "u":
        raise UnsupportedGateError("no decomposition rule for 'u'")
    probe_angle = 1.0 if kind in _gates.PARAMETERIZED else None
    if kind in _gates.CONTROLLED_BASE:
        probe = Gate(kind, (0,), (1,), probe_angle)
    elif kind == "swap":
        probe = Gate(kind, (0, 1))
    else:
        probe = Gate(kind, (0,), parameter=probe_angle)
    out: list[Gate] = []
    _transpile_gate(probe, out)
    return len(out)
