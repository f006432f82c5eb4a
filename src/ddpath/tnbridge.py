"""Tensor-network bridge: export circuits, plan greedily, import plans.

Tensor ids follow the path indexing (0 is the state, gate k is id k, a
contraction appends the next id), so externally produced contraction plans
drop straight into ``SimulationPath`` without remapping.  The initial state
is exported as one full rank-n tensor because the diagram kernel multiplies
whole operators and state vectors only; per-qubit state tensors would ask
for contractions it cannot perform.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import simpath
from .circuit import Circuit
from .errors import InvalidArgumentError, PlanningError


@dataclass(frozen=True)
class Tensor:
    id: int
    indices: tuple[str, ...]
    shape: tuple[int, ...]
    tag: str | int        # "state" or the gate position (1-based)

    def to_json(self) -> dict:
        return {"id": self.id, "indices": list(self.indices),
                "shape": list(self.shape), "tag": self.tag}


@dataclass(frozen=True)
class TensorNetworkDescription:
    qubits: int
    tensors: tuple[Tensor, ...]
    output_indices: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "qubits": self.qubits,
            "tensors": [t.to_json() for t in self.tensors],
            "output_indices": list(self.output_indices),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TensorNetworkDescription":
        tensors = tuple(
            Tensor(int(t["id"]), tuple(t["indices"]), tuple(int(s) for s in t["shape"]),
                   t["tag"])
            for t in data["tensors"])
        return cls(int(data["qubits"]), tensors, tuple(data["output_indices"]))


@dataclass(frozen=True)
class ContractionPlan:
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))

    def to_json(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "ContractionPlan":
        return cls(tuple(tuple(p) for p in data["pairs"]))


def load_plan(path: str) -> ContractionPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ContractionPlan.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(
            f"bad plan file {path!r}: {type(exc).__name__}: {exc}") from exc


# ----------------------------------------------------------------------

def export_tensor_network(c: Circuit) -> TensorNetworkDescription:
    """One rank-n state tensor plus one rank-2*arity tensor per gate,
    wired along the qubit lines."""
    n = c.num_qubits
    segment = [0] * n

    def label(q: int) -> str:
        return f"q{q}_{segment[q]}"

    tensors = [Tensor(0, tuple(label(q) for q in range(n)), (2,) * n, "state")]
    for k, g in enumerate(c.gates, start=1):
        qs = sorted(g.qubits)
        ins = tuple(label(q) for q in qs)
        for q in qs:
            segment[q] += 1
        outs = tuple(label(q) for q in qs)
        tensors.append(Tensor(k, ins + outs, (2,) * (2 * len(qs)), k))
    outputs = tuple(label(q) for q in range(n))
    return TensorNetworkDescription(n, tuple(tensors), outputs)


def greedy_plan(tn: TensorNetworkDescription) -> ContractionPlan:
    """Repeatedly contract the connected pair with the smallest result,
    breaking ties by combined input size, then by lowest id pair."""
    active: dict[int, frozenset[str]] = {t.id: frozenset(t.indices) for t in tn.tensors}
    if len(active) != len(tn.tensors):
        raise PlanningError("duplicate tensor ids")
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
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise PlanningError(
                f"network is disconnected; {len(active)} tensors remain")
        _, _, a, b = best
        pairs.append((a, b))
        active[next_id] = active.pop(a) ^ active.pop(b)
        next_id += 1
    return ContractionPlan(tuple(pairs))


def import_path(plan: ContractionPlan, circuit: Circuit) -> simpath.SimulationPath:
    """Re-index a contraction plan as a simulation path and validate it."""
    path = simpath.SimulationPath(len(circuit.gates), plan.pairs)
    simpath.validate(path, circuit)
    return path


@dataclass(frozen=True)
class PlanCost:
    flops: int
    max_size: int


def plan_cost(tn: TensorNetworkDescription, plan: ContractionPlan) -> PlanCost:
    """Shape-only cost model: each step costs 2^(distinct indices involved),
    the size of a step's result is 2^(result rank)."""
    active: dict[int, frozenset[str]] = {t.id: frozenset(t.indices) for t in tn.tensors}
    if len(plan.pairs) != max(len(active) - 1, 0):
        raise PlanningError(
            f"plan has {len(plan.pairs)} steps for {len(active)} tensors")
    next_id = max(active) + 1 if active else 0
    flops = 0
    max_size = 0
    for step, (a, b) in enumerate(plan.pairs, start=1):
        if a == b or a not in active or b not in active:
            raise PlanningError(f"step {step}: bad pair ({a}, {b})")
        ia = active.pop(a)
        ib = active.pop(b)
        flops += 1 << len(ia | ib)
        result = ia ^ ib
        max_size = max(max_size, 1 << len(result))
        active[next_id] = result
        next_id += 1
    return PlanCost(flops, max_size)
