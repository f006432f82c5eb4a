"""Simulation paths: representation, validation, strategies, and execution.

A path over a circuit with ``G`` gates is exactly ``G`` unordered index
pairs and nothing else; every strategy, the greedy tensor-network planner
and both file schemas give this one type, and the empty circuit runs the
empty path, whose result is the initial state.  Index 0 is the initial
state, 1..G are the gates in application order, and task ``k`` produces
index ``G + k``.  A product ``left · right`` applies every gate of
``right`` before every gate of ``left``; it may be formed when, on every
qubit both operands act on, the left operand's first gate comes after the
right operand's last one in the original sequence.  The operands need not
be adjacent: a skipped gate may share a qubit with either of them, since
the later product that joins it to them is held to the same rule.  Every
two gates that share a qubit so keep their order, and every accepted path
gives the sequential result.
"""
from __future__ import annotations

import gc
import json
import sys
import time
from dataclasses import dataclass

from . import tnbridge
from .circuit import Circuit, concat_inverse, decomposition_cost
from .errors import (
    CapacityError,
    InvalidArgumentError,
    PathValidationError,
    UnsupportedGateError,
)
from .kernel import Edge, Kernel

FIDELITY_TOLERANCE = 1e-9
STRATEGIES = ("sequential", "alternating", "heuristic", "greedy")


def as_index(value, what: str) -> int:
    """``value`` as an int; a non-integral value is an error, never truncated,
    and so is a bool, which JSON reads as ``true`` / ``false``."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value or isinstance(value, bool):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    return i


@dataclass(frozen=True)
class SimulationPath:
    tasks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "tasks",
            tuple((as_index(a, "path index"), as_index(b, "path index"))
                  for a, b in self.tasks))

    def to_json(self) -> dict:
        return {"gate_count": len(self.tasks), "path": [list(t) for t in self.tasks]}

    @classmethod
    def from_json(cls, data: dict) -> "SimulationPath":
        """Either schema: a path file ``{"gate_count": G, "path": [...]}``,
        whose ``G`` must equal its number of pairs, or a contraction plan
        ``{"pairs": [...]}``."""
        if "path" not in data:
            return cls(tuple(tuple(p) for p in data["pairs"]))
        path = cls(tuple(tuple(p) for p in data["path"]))
        count = as_index(data["gate_count"], "gate_count")
        if count != len(path.tasks):
            raise InvalidArgumentError(
                f"gate_count is {count} but the path has {len(path.tasks)} pairs")
        return path


def load_path(path: str) -> SimulationPath:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return SimulationPath.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(
            f"bad path file {path!r}: {type(exc).__name__}: {exc}") from exc


def save_path(p: SimulationPath, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh)


# ----------------------------------------------------------------------
# strategies

def sequential_path(gate_count: int) -> SimulationPath:
    """Pure matrix-vector chain: the state absorbs one gate per task."""
    if gate_count < 0:
        raise InvalidArgumentError(f"gate count must not be negative, got {gate_count}")
    tasks = [(0, 1)] if gate_count else []
    for k in range(2, gate_count + 1):
        tasks.append((k, gate_count + k - 1))
    return SimulationPath(tuple(tasks))


def _woven_path(count_g: int, count_gp: int, budgets: list[int]) -> SimulationPath:
    """Grow a matrix product outward from between the two circuit halves.

    ``budgets[i]`` is how many primed-side gates to attach after taking the
    i-th gate from the end of the first half; both sides clamp on exhaustion,
    and the last task multiplies the assembled matrix with the state.
    """
    total = count_g + count_gp
    next_result = total + 1
    tasks: list[tuple[int, int]] = [(count_g, count_g + 1)]
    result = next_result
    next_result += 1
    gpos = count_g - 1
    ppos = count_g + 2
    owed = budgets[0] - 1
    bi = 1
    while gpos >= 1 or ppos <= total:
        if owed > 0 and ppos <= total:
            tasks.append((result, ppos))
            ppos += 1
            owed -= 1
        elif gpos >= 1:
            tasks.append((gpos, result))
            gpos -= 1
            owed = budgets[bi] if bi < len(budgets) else 0
            bi += 1
        else:
            tasks.append((result, ppos))
            ppos += 1
            owed = 0
        result = next_result
        next_result += 1
    tasks.append((0, result))
    return SimulationPath(tuple(tasks))


def alternating_path(gate_count_g: int, gate_count_g_prime: int) -> SimulationPath:
    """Start between the halves and alternate sides one gate at a time."""
    if gate_count_g < 1 or gate_count_g_prime < 1:
        raise InvalidArgumentError("both halves need at least one gate")
    return _woven_path(gate_count_g, gate_count_g_prime, [1] * gate_count_g)


def heuristic_path(circuit: Circuit, split: int) -> SimulationPath:
    """Weave the miter ``circuit`` = ``concat_inverse(G, G')``, whose first
    ``split`` gates are G: follow each gate of G with its decomposition-cost
    worth of second-half gates, so compiled counterparts cancel as they are
    consumed.

    The costs fit only when they sum to the second half's gate count, as
    they do for G' = ``transpile(G)``; any other second half, and any G
    holding a gate with no decomposition rule, is woven one for one, like
    ``alternating_path``."""
    rest = len(circuit.gates) - split
    if split < 1 or rest < 1:
        raise InvalidArgumentError("both halves need at least one gate")
    g = circuit.gates[:split]
    try:
        costs = {kind: decomposition_cost(kind) for kind in {x.kind for x in g}}
        budgets = [costs[gate.kind] for gate in reversed(g)]
    except UnsupportedGateError:
        budgets = None
    if budgets is None or sum(budgets) != rest:
        budgets = [1] * split
    return _woven_path(split, rest, budgets)


def _check_strategy(strategy: str, miter: bool) -> None:
    """Reject a name ``make_path`` does not take, and ``alternating`` or
    ``heuristic`` unless the circuit is a miter; a file name is read only
    when the path is made."""
    if strategy not in STRATEGIES and not strategy.startswith(("file:", "plan:")):
        raise InvalidArgumentError(
            f"unknown strategy {strategy!r}; use one of {', '.join(STRATEGIES)}, "
            f"file:<path.json> or plan:<plan.json>")
    if not miter and strategy in ("alternating", "heuristic"):
        raise InvalidArgumentError(f"strategy {strategy!r} needs a second circuit")


def make_path(strategy: str, circuit: Circuit, split: int | None = None) -> SimulationPath:
    """Turn a strategy name into a path over ``circuit``, the circuit that
    ``execute`` runs: one of ``STRATEGIES``, ``file:<path.json>`` or
    ``plan:<plan.json>``.

    ``split`` marks ``circuit`` as a miter ``concat_inverse(G, G')`` and is
    the gate count of G.  ``alternating`` and ``heuristic`` weave the two
    halves of a miter, so they need it; when one half is empty they fall
    back to the chain.  ``greedy`` plans on ``circuit`` as given.  Both file
    prefixes read either schema (``load_path``).  No path is checked here:
    ``execute`` validates every path once, before its first product,
    whatever built it.
    """
    _check_strategy(strategy, split is not None)
    count = len(circuit.gates)
    if strategy == "sequential":
        return sequential_path(count)
    if strategy in ("alternating", "heuristic"):
        if split in (0, count):
            return sequential_path(count)
        if strategy == "alternating":
            return alternating_path(split, count - split)
        return heuristic_path(circuit, split)
    if strategy == "greedy":
        return tnbridge.greedy_plan(tnbridge.export_tensor_network(circuit))
    return load_path(strategy.partition(":")[2])


# ----------------------------------------------------------------------
# validation

class _Operand:
    __slots__ = ("span", "has_state", "hi")

    def __init__(self, span: dict, has_state: bool, hi: int):
        self.span = span            # qubit -> (first, last) position acting on it
        self.has_state = has_state
        self.hi = hi


def _order_conflict(left: _Operand, right: _Operand) -> tuple | None:
    """A pair of positions ``(l, r, q)`` that the orientation would reorder
    although both act on qubit ``q``; None when the product is order-safe.

    The computed product puts every left position above every right one.
    That is harmless exactly when, on every qubit both act on, the left
    factor's first position lies above the right factor's last one.
    """
    lspan, rspan = left.span, right.span
    for q in lspan.keys() & rspan.keys():
        l, r = lspan[q][0], rspan[q][1]
        if l < r:
            return (l, r, q)
    return None


def validate(path: SimulationPath, circuit: Circuit) -> tuple[tuple[int, int], ...]:
    """Check usage and ordering rules; return each task's operands as an
    oriented ``(left, right)`` pair, the left factor applied later.

    A product ``left · right`` is order-safe when, on every qubit both
    operands act on, the left factor's first gate comes after the right
    factor's last one in the original sequence; gates a pair skips over are
    checked by the later product that joins them.  Each live operand keeps
    one ``(first, last)`` span per qubit it acts on, so a pair costs one
    lookup per qubit of the smaller operand, which is then folded into the
    larger.
    """
    count = len(circuit.gates)
    if len(path.tasks) != count:
        raise PathValidationError(
            f"expected exactly {count} tasks, got {len(path.tasks)}")
    # the live operands; consumed ones are dropped
    operands = {0: _Operand({}, True, 0)}
    for k, gate in enumerate(circuit.gates, start=1):
        operands[k] = _Operand(dict.fromkeys(gate.qubits, (k, k)), False, k)
    out: list[tuple[int, int]] = []
    for ti, (a, b) in enumerate(path.tasks, start=1):
        result = count + ti
        if a == b:
            raise PathValidationError(f"pair ({a}, {b}) repeats one index", ti)
        for idx in (a, b):
            if idx not in operands:
                # every index below ``result`` was live once
                state = "already consumed" if 0 <= idx < result else "is not available"
                raise PathValidationError(f"index {idx} {state}", ti)
        pair = {a: operands.pop(a), b: operands.pop(b)}
        oa, ob = pair[a], pair[b]
        has_state = oa.has_state or ob.has_state
        if has_state:
            # the state side must stay the right factor
            orientations = [(b, a)] if oa.has_state else [(a, b)]
        elif oa.hi > ob.hi:
            orientations = [(a, b), (b, a)]
        else:
            orientations = [(b, a), (a, b)]
        for left, right in orientations:
            conflict = _order_conflict(pair[left], pair[right])
            if conflict is None:
                break
        else:
            l, r, q = conflict
            raise PathValidationError(
                f"pair ({a}, {b}) would reorder gate {r} above gate {l} "
                f"although they share qubit {q}", ti)
        big, small = (oa.span, ob.span) if len(oa.span) >= len(ob.span) \
            else (ob.span, oa.span)
        for q, (first, last) in small.items():
            old = big.get(q)
            big[q] = (first, last) if old is None \
                else (min(first, old[0]), max(last, old[1]))
        operands[result] = _Operand(big, has_state, max(oa.hi, ob.hi))
        out.append((left, right))
    return tuple(out)


# ----------------------------------------------------------------------
# execution

@dataclass
class RunStats:
    task_count: int
    result_nodes: list[int]
    peak_nodes: int
    final_nodes: int
    elapsed_ns: int

    def to_json(self) -> dict:
        return {
            "task_count": self.task_count,
            "tasks": [
                {"task_index": i + 1, "result_nodes": c}
                for i, c in enumerate(self.result_nodes)
            ],
            "peak_nodes": self.peak_nodes,
            "final_nodes": self.final_nodes,
            "elapsed_ns": self.elapsed_ns,
        }


_GC_FLOOR = 1 << 16


def _too_deep(n: int) -> str:
    return (f"a {n}-qubit diagram needs {n} nested calls, which on top of the "
            f"frames already in use exceed Python's recursion limit "
            f"({sys.getrecursionlimit()})")


def execute(circuit: Circuit, path: SimulationPath | None = None,
            kernel: Kernel | None = None, initial: Edge | None = None,
            observer=None) -> tuple[Edge, RunStats]:
    """Run every task of ``path`` on the kernel and collect node-count stats.

    The run's live operands (the initial state and the results not yet
    consumed) are the roots of every ``Kernel.gc`` it triggers; it raises
    no reference count while it runs.  Nodes with ``ref > 0`` are the ones
    callers hold across runs, and the returned final edge holds one
    reference owned by the caller.
    ``observer(task_index, result_edge)`` is called after every task.
    An operator operand may be a terminal edge, a scaled identity; node
    counts are taken over all ``n`` levels (``Kernel.node_count(e, n)``).

    ``peak_nodes`` is the largest node count, in the explicit form, of the
    initial state, of each gate diagram the run fetches, and of each task
    result, whether the kernel built the gate before or not.
    Every count comes from the kernel's shape cache, so each diagram is
    walked once; the cache is also where ``multiply_mv`` reads whether it
    may skip its compute table.

    Python's cyclic garbage collector is paused while this runs if it was
    on; a run that finds it off, perhaps paused by an overlapping run,
    leaves it alone.  Nodes, edges and compute-table entries form a DAG and
    are freed by reference counting, so the collector's walks over them
    free nothing.  This is unrelated to ``Kernel.gc``, the unique-table
    sweep, which still runs here.
    """
    collector_was_on = gc.isenabled()
    if collector_was_on:
        gc.disable()
    try:
        if path is None:
            path = sequential_path(len(circuit.gates))
        tasks = validate(path, circuit)
        if kernel is None:
            kernel = Kernel()
        n = circuit.num_qubits
        t0 = time.perf_counter_ns()
        if initial is None:
            initial = kernel.make_zero_state(n)
        if initial.node is None or len(initial.node.succ) != 4:
            raise InvalidArgumentError("initial state must be a vector diagram")
        if initial.num_qubits != n:
            raise InvalidArgumentError(
                f"initial state has {initial.num_qubits} qubits, circuit has {n}")
        env: dict[int, Edge] = {0: initial}
        initial_nodes = peak = kernel.node_count(initial)
        gc_threshold = _GC_FLOOR

        def fetch(idx: int) -> Edge:
            nonlocal peak
            e = env.pop(idx, None)
            if e is None:
                e = kernel.make_gate(circuit.gates[idx - 1], n)
                peak = max(peak, kernel.node_count(e, n))
            return e

        count = len(circuit.gates)
        counts: list[int] = []
        # the index that holds the state; validate keeps it the right factor
        state = 0
        try:
            for ti, (left, right) in enumerate(tasks, start=1):
                if right == state:
                    result = kernel.multiply_mv(fetch(left), fetch(right))
                    state = count + ti
                else:
                    result = kernel.multiply_mm(fetch(left), fetch(right))
                env[count + ti] = result
                counts.append(kernel.node_count(result, n))
                if observer is not None:
                    observer(ti, result)
                if kernel.unique_size > gc_threshold:
                    kernel.gc(env.values())
                    gc_threshold = max(4 * kernel.unique_size, _GC_FLOOR)
        except RecursionError as exc:
            raise CapacityError(_too_deep(n), ti) from exc
        final = env[2 * count]
        kernel.inc_ref(final)
        elapsed = time.perf_counter_ns() - t0
        stats = RunStats(
            task_count=len(tasks),
            result_nodes=counts,
            peak_nodes=max([peak, *counts]),
            final_nodes=counts[-1] if counts else initial_nodes,
            elapsed_ns=elapsed,
        )
        return final, stats
    finally:
        if collector_was_on:
            gc.enable()


# ----------------------------------------------------------------------
# equivalence checking

@dataclass
class VerificationResult:
    verdict: str
    fidelity: float
    stats: RunStats
    combined: Circuit
    path: SimulationPath
    final: Edge


def verify_equivalence(g: Circuit, g_prime: Circuit, strategy: str = "alternating",
                       kernel: Kernel | None = None,
                       initial: Edge | None = None) -> VerificationResult:
    """Simulate g followed by the inverse of g_prime and test that the
    initial state maps to itself up to global phase.  ``strategy`` is any
    name ``make_path`` takes."""
    combined = concat_inverse(g, g_prime)
    path = make_path(strategy, combined, len(g.gates))
    if kernel is None:
        kernel = Kernel()
    if initial is None:
        initial = kernel.make_zero_state(combined.num_qubits)
    kernel.inc_ref(initial)
    try:
        final, stats = execute(combined, path, kernel, initial)
        try:
            fidelity = abs(kernel.inner_product(initial, final))
        except RecursionError as exc:
            kernel.dec_ref(final)
            raise CapacityError(
                f"fidelity inner product: {_too_deep(combined.num_qubits)}") from exc
    finally:
        kernel.dec_ref(initial)
    verdict = "consistent" if fidelity >= 1.0 - FIDELITY_TOLERANCE else "inconsistent"
    return VerificationResult(verdict, fidelity, stats, combined, path, final)
