"""Shared test utilities: random circuits, equivalence-preserving rewrites,
the reference path validators, the reference greedy planner, the reference
value table, the explicit-form node count, the memo-free, recording,
re-interning and unfused kernels and the reference OpenQASM parser."""
from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass, field

from ddpath.circuit import Circuit, Gate
from ddpath.errors import (
    InvalidArgumentError,
    PathValidationError,
    PlanningError,
    QasmError,
)
from ddpath.kernel import EPS, Kernel, _INV_EPS
from ddpath.qasm import _ExprParser
from ddpath.simpath import SimulationPath
from ddpath.tnbridge import export_tensor_network

SINGLE_KINDS = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "p", "ry", "rz"]
TWO_KINDS = ["cx", "cz", "cp", "swap"]
PARAM_KINDS = {"p", "ry", "rz", "cp"}


def random_unitary_2x2(rng: random.Random) -> tuple[complex, complex, complex, complex]:
    a, b, g, d = (rng.uniform(0, 2 * math.pi) for _ in range(4))
    ca, sa = math.cos(a / 2), math.sin(a / 2)
    u00 = cmath.exp(1j * (d - b / 2 - g / 2)) * ca
    u01 = -cmath.exp(1j * (d - b / 2 + g / 2)) * sa
    u10 = cmath.exp(1j * (d + b / 2 - g / 2)) * sa
    u11 = cmath.exp(1j * (d + b / 2 + g / 2)) * ca
    return (u00, u01, u10, u11)


def random_gate(rng: random.Random, n: int, allow_u: bool = True,
                allow_controls: bool = True) -> Gate:
    roll = rng.random()
    if allow_u and roll < 0.08:
        q = rng.randrange(n)
        spare = [i for i in range(n) if i != q]
        n_ctl = rng.randint(0, min(2, len(spare))) if allow_controls else 0
        controls = tuple(rng.sample(spare, n_ctl))
        return Gate("u", (q,), controls, matrix=random_unitary_2x2(rng))
    if n >= 2 and roll < 0.45:
        kind = rng.choice(TWO_KINDS)
        a, b = rng.sample(range(n), 2)
        if kind == "swap":
            return Gate("swap", (a, b))
        par = rng.uniform(-math.pi, math.pi) if kind in PARAM_KINDS else None
        return Gate(kind, (b,), (a,), par)
    kind = rng.choice(SINGLE_KINDS)
    q = rng.randrange(n)
    par = rng.uniform(-math.pi, math.pi) if kind in PARAM_KINDS else None
    return Gate(kind, (q,), parameter=par)


def random_circuit(rng: random.Random, n: int, depth: int, allow_u: bool = True,
                   allow_controls: bool = True) -> Circuit:
    gates = tuple(random_gate(rng, n, allow_u, allow_controls) for _ in range(depth))
    return Circuit(n, gates)


def dense_circuit(rng: random.Random, n: int, layers: int) -> Circuit:
    """H on every qubit, then ``layers`` layers: a random one-qubit gate on
    every qubit, cz on alternating nearest-neighbour pairs and one swap.
    After about ``n`` layers its states are full, 2^n - 1 nodes, or close
    to it."""
    gates = [Gate("h", (q,)) for q in range(n)]
    for layer in range(layers):
        for q in range(n):
            kind = rng.choice(["sx", "ry", "t", "u"])
            if kind == "u":
                gates.append(Gate("u", (q,), matrix=random_unitary_2x2(rng)))
            elif kind == "ry":
                gates.append(Gate("ry", (q,), parameter=rng.uniform(-math.pi, math.pi)))
            else:
                gates.append(Gate(kind, (q,)))
        gates.extend(Gate("cz", (q + 1,), (q,)) for q in range(layer % 2, n - 1, 2))
        a, b = rng.sample(range(n), 2)
        gates.append(Gate("swap", (a, b)))
    return Circuit(n, tuple(gates))


def equivalent_rewrite(rng: random.Random, c: Circuit) -> Circuit:
    """A gate list that computes exactly the same state (no phase change)."""
    gates = list(c.gates)
    choice = rng.randrange(4)
    if choice == 0:
        # splice in a canceling pair
        g = random_gate(rng, c.num_qubits, allow_u=True)
        at = rng.randint(0, len(gates))
        gates[at:at] = [g, g.inverse()]
    elif choice == 1 and len(gates) >= 2:
        # swap two adjacent gates acting on disjoint qubits, if any
        order = list(range(len(gates) - 1))
        rng.shuffle(order)
        for i in order:
            if not set(gates[i].qubits) & set(gates[i + 1].qubits):
                gates[i], gates[i + 1] = gates[i + 1], gates[i]
                break
    elif choice == 2:
        # exact single-gate identities: swap -> 3 cx, cz -> cp(pi), s -> t t
        for i, g in enumerate(gates):
            if g.kind == "swap":
                a, b = g.targets
                gates[i:i + 1] = [Gate("cx", (b,), (a,)), Gate("cx", (a,), (b,)),
                                 Gate("cx", (b,), (a,))]
                break
            if g.kind == "cz":
                gates[i] = Gate("cp", g.targets, g.controls, math.pi)
                break
            if g.kind == "s" and not g.controls:
                gates[i:i + 1] = [Gate("t", g.targets), Gate("t", g.targets)]
                break
    else:
        # append u . u^-1 on a random qubit
        g = Gate("u", (rng.randrange(c.num_qubits),), matrix=random_unitary_2x2(rng))
        gates += [g, g.inverse()]
    return Circuit(c.num_qubits, tuple(gates))


class _RefOperand:
    __slots__ = ("positions", "has_state")

    def __init__(self, positions: frozenset, has_state: bool):
        self.positions = positions
        self.has_state = has_state


def _ref_order_conflict(left: _RefOperand, right: _RefOperand, supports):
    lmin = min(left.positions)
    rmax = max(right.positions)
    if rmax < lmin:
        return None
    for r in right.positions:
        if r <= lmin or r == 0:
            continue
        sr = supports[r - 1]
        for l in left.positions:
            if l < r and sr & supports[l - 1]:
                return (l, r, sorted(sr & supports[l - 1]))
    return None


def reference_validate(path, circuit):
    """Frozenset-per-operand form of ``simpath.validate``, kept as the
    reference the per-qubit span validator is compared against: it scans
    every pair of positions across the two operands."""
    count = len(circuit.gates)
    if len(path.tasks) != count:
        raise PathValidationError(
            f"expected exactly {count} tasks, got {len(path.tasks)}")
    supports = [frozenset(g.qubits) for g in circuit.gates]
    operands = {0: _RefOperand(frozenset([0]), True)}
    for k in range(1, count + 1):
        operands[k] = _RefOperand(frozenset([k]), False)
    live = set(operands)
    consumed = set()
    out = []
    for ti, (a, b) in enumerate(path.tasks, start=1):
        if a == b:
            raise PathValidationError(f"pair ({a}, {b}) repeats one index", ti)
        for idx in (a, b):
            if idx in consumed:
                raise PathValidationError(f"index {idx} already consumed", ti)
            if idx not in live:
                raise PathValidationError(f"index {idx} is not available", ti)
        oa, ob = operands[a], operands[b]
        has_state = oa.has_state or ob.has_state
        if has_state:
            left, right = (b, a) if oa.has_state else (a, b)
            orientations = [(left, right)]
        elif max(oa.positions) > max(ob.positions):
            orientations = [(a, b), (b, a)]
        else:
            orientations = [(b, a), (a, b)]
        chosen = None
        conflict = None
        for left, right in orientations:
            conflict = _ref_order_conflict(operands[left], operands[right], supports)
            if conflict is None:
                chosen = (left, right)
                break
        if chosen is None:
            l, r, shared = conflict
            raise PathValidationError(
                f"pair ({a}, {b}) would reorder gate {r} above gate {l} "
                f"although they share qubit(s) {shared}", ti)
        pos = oa.positions | ob.positions
        result = count + ti
        operands[result] = _RefOperand(pos, has_state)
        live.discard(a)
        live.discard(b)
        consumed.update((a, b))
        live.add(result)
        out.append(chosen)
    final = 2 * count
    if live != {final}:
        raise PathValidationError(f"path does not reduce to one result: {sorted(live)}")
    if operands[final].positions != frozenset(range(count + 1)):
        raise PathValidationError("final result does not cover the whole sequence")
    return tuple(out)


def _reach(start, step) -> set:
    """Every node reachable from ``start`` through ``step``, a search."""
    seen = set(start)
    stack = list(start)
    while stack:
        for x in step(stack.pop()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


class _LiveOrder:
    """The order of the live tensors of a network under contraction: a live
    tensor comes before another when one of its members shares a label with
    a higher-id member of the other."""

    def __init__(self, labels: dict[int, frozenset[str]]):
        self.after = {t: [u for u in labels if u > t and labels[u] & labels[t]]
                      for t in labels}
        self.before = {t: [u for u in labels if u < t and labels[u] & labels[t]]
                       for t in labels}
        self.members = {tid: [tid] for tid in labels}
        self.owner = {tid: tid for tid in labels}

    def later(self, x) -> set:
        return {self.owner[u] for m in self.members[x] for u in self.after[m]}

    def earlier(self, x) -> set:
        return {self.owner[u] for m in self.members[x] for u in self.before[m]}

    def convex(self, a, b) -> bool:
        """No live tensor lies both after and before the pair."""
        return not (_reach((a, b), self.later) & _reach((a, b), self.earlier)) - {a, b}

    def merge(self, a, b, result) -> None:
        self.members[result] = self.members.pop(a) + self.members.pop(b)
        for m in self.members[result]:
            self.owner[m] = result


def reference_greedy_plan(tn, convex: bool = True):
    """All-pairs form of ``tnbridge.greedy_plan``: rescans every pair of
    live tensors at each step and, with ``convex``, tests a pair's legality
    by searching the order of the live tensors for a tensor after the pair
    and before it.  Kept as the reference the heap-driven, bitset-keeping
    planner is compared against; ``convex=False`` is the plain
    tensor-network greedy, which ignores the order of the gates."""
    active: dict[int, frozenset[str]] = {t.id: frozenset(t.indices) for t in tn.tensors}
    if len(active) != len(tn.tensors):
        raise PlanningError("duplicate tensor ids")
    order = _LiveOrder(active)
    next_id = max(active) + 1 if active else 0
    pairs: list[tuple[int, int]] = []
    while len(active) > 1:
        best = None
        ids = sorted(active)
        for i, a in enumerate(ids):
            ia = active[a]
            for b in ids[i + 1:]:
                ib = active[b]
                if not ia & ib:
                    continue
                result = ia ^ ib
                rank_cost = 1 << len(result)
                input_cost = (1 << len(ia)) + (1 << len(ib))
                cand = (rank_cost, input_cost, a, b)
                if (best is None or cand < best) and (not convex or order.convex(a, b)):
                    best = cand
        if best is None:
            raise PlanningError(
                f"network is disconnected or leaves no legal merge; "
                f"{len(active)} tensors remain")
        _, _, a, b = best
        pairs.append((a, b))
        active[next_id] = active.pop(a) ^ active.pop(b)
        order.merge(a, b, next_id)
        next_id += 1
    return SimulationPath(tuple(pairs))


def reference_convex_validate(path, circuit):
    """Replay ``path`` over ``export_tensor_network(circuit)`` and accept it
    when every pair is convex in the order of the live tensors, the rule
    ``reference_greedy_plan`` plans by.  Returns the pairs oriented as
    ``simpath.validate`` orients them: the state, or else the earlier
    operand, on the right, and two unrelated operands by their highest
    gate.  Raises ``PathValidationError`` at the first pair that is not
    convex or does not name two live tensors.  Kept as the reference that
    the per-qubit span rule of ``validate`` accepts the same paths."""
    count = len(circuit.gates)
    if len(path.tasks) != count:
        raise PathValidationError(
            f"expected exactly {count} tasks, got {len(path.tasks)}")
    tn = export_tensor_network(circuit)
    order = _LiveOrder({t.id: frozenset(t.indices) for t in tn.tensors})
    members = order.members
    out = []
    for ti, (a, b) in enumerate(path.tasks, start=1):
        if a == b or a not in members or b not in members:
            raise PathValidationError(f"pair ({a}, {b}) does not name two live tensors", ti)
        if not order.convex(a, b):
            raise PathValidationError(f"pair ({a}, {b}) is not convex", ti)
        if 0 in members[a] or b in order.later(a):
            out.append((b, a))
        elif 0 in members[b] or a in order.later(b):
            out.append((a, b))
        else:
            out.append((a, b) if max(members[a]) > max(members[b]) else (b, a))
        order.merge(a, b, count + ti)
    return tuple(out)


class ReferenceKernel(Kernel):
    """``Kernel`` whose value table is keyed by ``(kr, ki)`` tuples, rounds
    every part with ``round()`` and probes all eight neighbour buckets on
    every miss.  Kept as the reference ``Kernel._probe`` is compared
    against: complex keys, rounding by float addition, and a probe skipped
    when the occupancy byte maps show no neighbour.  Its probe, which only
    reads the table, serves ``intern``, ``lookup`` and the sums' ratios
    alike; ``intern`` alone stores.  ``gc`` sweeps it by the same rule, with
    no byte maps to rebuild."""

    def __init__(self):
        super().__init__()
        self._values = {(0, 0): self.ZERO, (round(_INV_EPS), 0): self.ONE}

    def _probe(self, w: complex) -> tuple:
        re = w.real
        im = w.imag
        if not (math.isfinite(re * _INV_EPS) and math.isfinite(im * _INV_EPS)):
            raise InvalidArgumentError(f"edge weight {w!r} is not finite in units of EPS")
        kr = round(re * _INV_EPS)
        ki = round(im * _INV_EPS)
        table = self._values
        v = table.get((kr, ki))
        if v is not None:
            return None, v
        for dr in (-1, 0, 1):
            for di in (-1, 0, 1):
                if dr == 0 and di == 0:
                    continue
                v = table.get((kr + dr, ki + di))
                if v is not None and abs(v.real - re) <= EPS and abs(v.imag - im) <= EPS:
                    return (kr, ki), v
        return (kr, ki), None

    def intern(self, w: complex) -> complex:
        key, v = self._probe(w)
        if key is None:
            return v
        if v is None:
            v = complex(w.real, w.imag)
        self._values[key] = v
        return v

    def _sweep_values(self, live: set) -> None:
        self._values = {k: v for k, v in self._values.items() if v in live}


def explicit_node_count(e, n: int) -> int:
    """Nodes of ``e`` with every skipped level rebuilt: the identity node
    at level ``l`` above target ``t`` is the pair ``(l, t)``, and each
    stored node ``t`` is ``(t.level, t)``.  Kept as the reference
    ``Kernel.node_count(e, n)`` is compared against: it collects every
    level of every edge in one set instead of taking the longest skip into
    each target."""
    explicit = set()
    seen = set()
    stack = [(n, e)]
    while stack:
        above, edge = stack.pop()
        t = edge.node
        if t is None and edge.w == 0:
            continue
        low = -1 if t is None else t.level
        explicit.update((level, t) for level in range(low + 1, above))
        if t is not None and t not in seen:
            seen.add(t)
            explicit.add((t.level, t))
            stack.extend((t.level, s) for s in t.edges)
    return len(explicit)


class _Forgetful(dict):
    """A dict that drops every store, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


class MemoFreeKernel(Kernel):
    """``Kernel`` whose compute table never keeps an entry, so every
    sub-result is recomputed.  That changes the cost of a product (it grows
    exponentially with the qubit count) but never its result: kept as the
    reference the memoising ``Kernel`` is compared against."""

    def __init__(self):
        super().__init__()
        self._ct = _Forgetful()


@dataclass
class ProductRecord:
    """What one ``multiply_mv`` of a ``RecordingKernel`` did."""

    free: bool | None = None    # ran without the compute table; None: no recursion
    calls: int = 0              # _mul_mv, _mac and _add calls
    fallbacks: int = 0          # _sum_of_products calls
    keys: list = field(default_factory=list)  # looked up outside _sum_of_products


class _RecordingTable(dict):
    """A compute table that hands every key it is asked for to its kernel."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def get(self, key, default=None):
        self.kernel.looked_up(key)
        return super().get(key, default)


class RecordingKernel(Kernel):
    """``Kernel`` that records each ``multiply_mv`` as a ``ProductRecord``:
    whether it ran without the compute table, its ``_mul_mv``, ``_mac`` and
    ``_add`` calls, and the keys it looked up outside ``_sum_of_products``,
    the fallback that keeps the table.  With ``memo=True`` it reports no
    diagram as a tree, so every product keeps the table: the same products
    with the table forced on."""

    def __init__(self, memo: bool = False):
        super().__init__()
        self._ct = _RecordingTable(self)
        self._table_forced = memo
        self.products: list[ProductRecord] = []
        self._product = None
        self._fallback = 0

    def looked_up(self, key) -> None:
        if self._product is not None and not self._fallback:
            self._product.keys.append(key)

    def _count(self) -> None:
        record = self._product
        if record is not None:
            if record.free is None:
                record.free = not self._memo
            record.calls += 1

    def _shape(self, root):
        count, tree = super()._shape(root)
        return count, tree and not self._table_forced

    def multiply_mv(self, m, v):
        self._product = ProductRecord()
        self.products.append(self._product)
        try:
            return super().multiply_mv(m, v)
        finally:
            self._product = None

    def _mul_mv(self, m, v):
        self._count()
        return super()._mul_mv(m, v)

    def _mac(self, a, x, b, y):
        self._count()
        return super()._mac(a, x, b, y)

    def _add(self, a, b):
        self._count()
        return super()._add(a, b)

    def _sum_of_products(self, a, x, b, y):
        if self._product is not None:
            self._product.fallbacks += 1
        self._fallback += 1
        try:
            return super()._sum_of_products(a, x, b, y)
        finally:
            self._fallback -= 1


class ReinterningKernel(Kernel):
    """``Kernel`` that interns a gate's four matrix entries on every
    ``make_gate``, as a memo of whole gate diagrams did on each miss: kept
    as the reference the matrix cache is compared against."""

    def _controlled_single(self, mat, target, controls):
        self._matrices.clear()
        return super()._controlled_single(mat, target, controls)


class UnfusedKernel(Kernel):
    """``Kernel`` that forms a two-term sum ``a·x + b·y`` as the sum of the
    two full products, building every node of both, with the table on as
    in the fused recursion's fallback.  Kept as the reference the fused
    ``Kernel._mac`` recursion is compared against."""

    def _mac(self, a, x, b, y):
        return self._sum_of_products(a, x, b, y)


# gate name -> (kind, parameter count, qubit count)
_GATE_TABLE = {
    "x": ("x", 0, 1), "y": ("y", 0, 1), "z": ("z", 0, 1), "h": ("h", 0, 1),
    "s": ("s", 0, 1), "sdg": ("sdg", 0, 1), "t": ("t", 0, 1), "tdg": ("tdg", 0, 1),
    "sx": ("sx", 0, 1), "sxdg": ("sxdg", 0, 1),
    "p": ("p", 1, 1), "u1": ("p", 1, 1),
    "ry": ("ry", 1, 1), "rz": ("rz", 1, 1),
    "cx": ("cx", 0, 2), "cz": ("cz", 0, 2),
    "cp": ("cp", 1, 2), "cu1": ("cp", 1, 2),
    "swap": ("swap", 0, 2),
}

_QUBIT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")


def _statements(text: str):
    """Yield (statement, starting line) with comments stripped."""
    clean_lines = []
    for raw in text.split("\n"):
        cut = raw.find("//")
        clean_lines.append(raw if cut < 0 else raw[:cut])
    buf: list[str] = []
    start = None
    for lineno, line in enumerate(clean_lines, start=1):
        for ch in line:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start if start is not None else lineno
                buf = []
                start = None
            else:
                if ch.strip() and start is None:
                    start = lineno
                buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        yield tail, start if start is not None else len(clean_lines)


def reference_parse_qasm(text: str) -> Circuit:
    """The per-character form of ``qasm.parse``: it strips comments line by
    line and joins a statement's lines without a separator, so a line break
    that alone separates two tokens glues them together.  Kept as the
    reference the one-pass parser is compared against."""
    qreg_name: str | None = None
    qreg_size = 0
    cregs: dict[str, int] = {}
    gates: list[Gate] = []
    saw_header = False
    for stmt, line in _statements(text):
        if not saw_header:
            if re.fullmatch(r"OPENQASM\s+2(\.0)?", stmt):
                saw_header = True
                continue
            raise QasmError(f"expected OPENQASM 2.0 header, got {stmt!r}", line)
        head = stmt.split(None, 1)[0] if stmt.split() else ""
        if head == "include":
            if re.fullmatch(r'include\s+"[^"]+"', stmt) is None:
                raise QasmError(f"malformed include {stmt!r}", line)
            continue
        if head == "qreg":
            m = re.fullmatch(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]", stmt)
            if m is None:
                raise QasmError(f"malformed qreg declaration {stmt!r}", line)
            if qreg_name is not None:
                raise QasmError("only one qreg is supported", line)
            if m.group(1) in cregs:
                raise QasmError(f"register {m.group(1)!r} is already declared", line)
            qreg_name = m.group(1)
            qreg_size = int(m.group(2))
            if qreg_size < 1:
                raise QasmError("qreg size must be >= 1", line)
            continue
        if head in ("creg", "measure", "barrier"):
            _check_classical(head, stmt[len(head):], line, qreg_name, qreg_size, cregs)
            continue
        gates.append(_parse_gate(stmt, line, qreg_name, qreg_size))
    if not saw_header:
        raise QasmError("expected OPENQASM 2.0 header", 1)
    if qreg_name is None:
        raise QasmError("no qreg declared", 1)
    return Circuit(qreg_size, tuple(gates))


_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | frozenset("0123456789")


def _split_register_arg(arg: str, line: int) -> tuple[str, int | None]:
    """``(name, index)`` of ``name`` or ``name[index]``, read character by
    character."""
    text = arg.strip()
    i = 0
    while i < len(text) and text[i] in (_NAME_CHARS if i else _NAME_START):
        i += 1
    if i == 0:
        raise QasmError(f"expected a register, got {text!r}", line)
    if i == len(text):
        return text, None
    digits = text[i + 1:-1]
    if text[i] != "[" or text[-1] != "]" or not digits.isdecimal():
        raise QasmError(f"expected a register or a bit, got {text!r}", line)
    return text[:i], int(digits)


def _check_register_arg(arg: str, registers: dict, line: int) -> tuple[str, int | None]:
    name, index = _split_register_arg(arg, line)
    if name not in registers:
        raise QasmError(f"unknown register {name!r}", line)
    if index is not None and index >= registers[name]:
        raise QasmError(f"index {index} out of range for {name!r}", line)
    return name, index


def _check_classical(head: str, rest: str, line: int, qreg_name, qreg_size, cregs) -> None:
    """Check a ``creg``, ``measure`` or ``barrier`` statement; a ``creg``
    is recorded in ``cregs``."""
    qregs = {} if qreg_name is None else {qreg_name: qreg_size}
    if head == "creg":
        name, size = _split_register_arg(rest, line)
        if size is None:
            raise QasmError("creg needs a size", line)
        if name in qregs or name in cregs:
            raise QasmError(f"register {name!r} is already declared", line)
        if size < 1:
            raise QasmError("creg size must be >= 1", line)
        cregs[name] = size
    elif head == "measure":
        arrow = rest.find("->")
        if arrow < 0 or "->" in rest[arrow + 2:]:
            raise QasmError("measure needs one '->'", line)
        qname, qi = _check_register_arg(rest[:arrow], qregs, line)
        cname, ci = _check_register_arg(rest[arrow + 2:], cregs, line)
        if (qi is None) != (ci is None):
            raise QasmError("measure mixes a bit and a register", line)
        if qi is None and qregs[qname] != cregs[cname]:
            raise QasmError("measure between registers of different sizes", line)
    else:
        buf = ""
        for ch in rest + ",":
            if ch == ",":
                _check_register_arg(buf, qregs, line)
                buf = ""
            else:
                buf += ch


def _split_params(stmt: str, line: int) -> tuple[str, str | None, str]:
    """Split a gate statement into (name, parameter text, qubit argument text)."""
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*", stmt)
    if m is None:
        raise QasmError(f"malformed statement {stmt!r}", line)
    name = m.group(1)
    rest = stmt[m.end():]
    if not rest.startswith("("):
        return name, None, rest
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return name, rest[1:i], rest[i + 1:]
    raise QasmError(f"unbalanced parentheses in {stmt!r}", line)


def _parse_gate(stmt: str, line: int, qreg_name: str | None, qreg_size: int) -> Gate:
    if qreg_name is None:
        raise QasmError("gate before qreg declaration", line)
    name, param_text, arg_text = _split_params(stmt, line)
    entry = _GATE_TABLE.get(name)
    if entry is None:
        raise QasmError(f"unknown gate {name!r}", line)
    kind, n_params, n_qubits = entry
    params: list[float] = []
    if param_text is not None:
        body = param_text.strip()
        parts = [p for p in body.split(",")] if body else []
        params = [_ExprParser(p, line).parse() for p in parts]
    if len(params) != n_params:
        raise QasmError(
            f"gate {name!r} expects {n_params} parameter(s), got {len(params)}", line)
    arg_text = arg_text.strip()
    args = [a.strip() for a in arg_text.split(",")] if arg_text else []
    qubits: list[int] = []
    for a in args:
        qm = _QUBIT_RE.fullmatch(a)
        if qm is None:
            raise QasmError(f"expected a qubit like {qreg_name}[0], got {a!r}", line)
        if qm.group(1) != qreg_name:
            raise QasmError(f"unknown register {qm.group(1)!r}", line)
        idx = int(qm.group(2))
        if idx >= qreg_size:
            raise QasmError(
                f"qubit index {idx} out of range for qreg of size {qreg_size}", line)
        qubits.append(idx)
    if len(qubits) != n_qubits:
        raise QasmError(
            f"gate {name!r} expects {n_qubits} qubit(s), got {len(qubits)}", line)
    if len(set(qubits)) != len(qubits):
        raise QasmError(f"duplicate qubit in {name!r}", line)
    parameter = params[0] if params else None
    try:
        if kind == "swap":
            return Gate("swap", (qubits[0], qubits[1]))
        if n_qubits == 2:
            return Gate(kind, (qubits[1],), (qubits[0],), parameter)
        return Gate(kind, (qubits[0],), parameter=parameter)
    except Exception as exc:
        raise QasmError(str(exc), line)
