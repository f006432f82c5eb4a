"""Tensor-network bridge: export circuits and plan contractions greedily.

Tensor ids follow the path indexing (0 is the state, gate k is id k, a
contraction appends the next id), so a contraction plan is a
``SimulationPath``: ``greedy_plan`` returns one, ``simpath.load_path`` reads
plan files, and ``import_path`` only validates.  The initial state
is exported as one full rank-n tensor because the diagram kernel multiplies
whole operators and state vectors only; per-qubit state tensors would ask
for contractions it cannot perform.

A pair of live tensors is legal when its union is convex in the order the
circuit applies the tensors: a shared index runs from the lower id to the
higher, and no other live tensor comes both after and before the pair.
Convex merges keep that order acyclic, which is what makes a plan a valid
simulation path; ``LiveOrder`` holds this rule.  ``greedy_plan`` contracts,
at each step, the legal pair of live tensors sharing an index with the
smallest result rank, breaking ties by the smaller combined input size and
then by the lowest id pair.  It keeps its candidates in a heap, so planning
costs O(E log E) in the number E of shared indices.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import simpath
from .circuit import Circuit
from .errors import PlanningError


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


class LiveOrder:
    """The order of the live tensors of a network under contraction, kept
    as int bitsets with one bit per original tensor.

    Each live tensor holds ``[members, rep, up, down]``: its ``members``,
    the ``rep`` bit of one of them that stands for it, and ``up`` and
    ``down``, which hold the ``rep`` bit of every live tensor before and
    after it, its own included, plus only bits of members of those
    tensors.  So a pair is legal when the ORs of its ``up`` and of its
    ``down`` sets share no bit outside its members.  A merge ORs the pair's
    sets and keeps the ``rep`` of one of the pair, chosen so that every
    other set stays exact; only when neither choice does, the tensors
    before the pair gain all that comes after it, and the reverse.

    A merge can put a tensor between two others but never take one away,
    so legality, once lost, never returns while both are live.
    """

    def __init__(self, ids, edges):
        """``ids`` are the tensors; ``edges`` the pairs ``(a, b)``, ``a < b``,
        that share a label, each an edge a -> b of the order."""
        self._sets = {tid: [1 << i] * 4 for i, tid in enumerate(sorted(ids))}
        sets = self._sets
        # in sorted order every edge into a comes before the edges out of a
        edges = sorted(edges)
        for a, b in edges:
            sets[b][2] |= sets[a][2]
        for a, b in reversed(edges):
            sets[a][3] |= sets[b][3]

    def legal(self, a: int, b: int) -> bool:
        """No other live tensor comes both after and before the pair."""
        ma, _, ua, da = self._sets[a]
        mb, _, ub, db = self._sets[b]
        return not (ua | ub) & (da | db) & ~(ma | mb)

    def merge(self, a: int, b: int, c: int) -> None:
        """Replace the live tensors ``a`` and ``b``, which must share a
        label, by their merged tensor ``c``."""
        sets = self._sets
        # s comes before t: they share a label, so one reaches the other.
        # The merged tensor keeps t's rep if s reaches nothing except
        # through t, or s's rep if nothing reaches t except through s; then
        # no other set changes.  Otherwise a tensor before t gains all that
        # s reaches and one after s all that reaches t.
        s, t = (a, b) if sets[a][3] & sets[b][1] else (b, a)
        ms, rs, us, ds = sets.pop(s)
        mt, rt, ut, dt = sets.pop(t)
        if not ds & ~dt & ~ms:
            rc = rt
        elif not ut & ~us & ~mt:
            rc = rs
        else:
            rc = rt
            for x in sets.values():
                if x[3] & rt:
                    x[3] |= ds
                elif x[2] & rs:
                    x[2] |= ut
        sets[c] = [ms | mt, rc, us | ut, ds | dt]


def greedy_plan(tn: TensorNetworkDescription) -> simpath.SimulationPath:
    """Repeatedly contract the cheapest pair of live tensors that share an
    index and that ``LiveOrder`` holds legal: the minimum of
    ``(2^|a△b|, 2^|a|+2^|b|, a, b)`` with ``a < b``, so the smallest result
    wins, ties go to the smaller combined input and then to the lowest id
    pair.

    A pair's cost depends only on its two tensors, and by ``LiveOrder``'s
    rule an illegal pair stays illegal.  So candidates sit in one heap, an
    illegal pair is dropped for good, and an entry goes stale only when one
    of its tensors is consumed; stale entries are dropped as they are
    popped.  Each contraction pushes only the pairs of the new tensor with
    the live holders of its indices.
    """
    live: dict[int, frozenset[str]] = {t.id: frozenset(t.indices) for t in tn.tensors}
    if len(live) != len(tn.tensors):
        raise PlanningError("duplicate tensor ids")
    holders: dict[str, set[int]] = {}
    for tid, ix in live.items():
        for label in ix:
            holders.setdefault(label, set()).add(tid)
    edges = {(a, b) for ids in holders.values() for a in ids for b in ids if a < b}
    order = LiveOrder(live, edges)

    def entry(a: int, b: int) -> tuple[int, int, int, int]:
        ia, ib = live[a], live[b]
        return (1 << len(ia ^ ib), (1 << len(ia)) + (1 << len(ib)), a, b)

    heap = [entry(a, b) for a, b in edges]
    heapq.heapify(heap)
    next_id = max(live) + 1 if live else 0
    pairs: list[tuple[int, int]] = []
    while len(live) > 1:
        while heap:
            _, _, a, b = heapq.heappop(heap)
            if a in live and b in live and order.legal(a, b):
                break
        else:
            raise PlanningError(
                f"network is disconnected or leaves no legal merge; "
                f"{len(live)} tensors remain")
        pairs.append((a, b))
        ia = live.pop(a)
        ib = live.pop(b)
        for label in ia | ib:
            holders[label].difference_update((a, b))
        order.merge(a, b, next_id)
        merged = ia ^ ib
        live[next_id] = merged
        partners: set[int] = set()
        for label in merged:
            partners |= holders[label]
            holders[label].add(next_id)
        for p in partners:
            heapq.heappush(heap, entry(p, next_id))
        next_id += 1
    return simpath.SimulationPath(tuple(pairs))


def import_path(plan: simpath.SimulationPath, circuit: Circuit) -> simpath.SimulationPath:
    """``plan`` once ``simpath.validate`` accepts it for ``circuit``."""
    simpath.validate(plan, circuit)
    return plan
