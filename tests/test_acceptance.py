"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s``).
"""
import functools
import random
import time

import numpy as np
import pytest

from ddpath import (
    Kernel,
    alternating_path,
    concat_inverse,
    deutsch_jozsa,
    emit_qasm,
    entangled_qft,
    execute,
    export_tensor_network,
    ghz,
    graph_state,
    greedy_plan,
    import_path,
    parse_qasm,
    qft,
    root_equal,
    sequential_path,
    transpile,
    verify_equivalence,
    w_state,
)
from ddpath import oracle
from ddpath.circuit import Circuit, Gate
from ddpath.errors import PathValidationError, QasmError
from ddpath.simpath import STRATEGIES, SimulationPath

from helpers import MemoFreeKernel, equivalent_rewrite, random_circuit


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{num:>2}] {label}: FAIL")
                raise
            print(f"[{num:>2}] {label}: PASS ({time.perf_counter() - start:.2f}s)")
        return wrapper
    return deco


def ghz_initial(kernel, n):
    state, _ = execute(ghz(n), kernel=kernel)
    kernel.inc_ref(state)
    return state


@criterion(1, "ghz final diagrams stay linear")
def test_ghz_compactness():
    for n in (3, 8, 16, 64, 128):
        kernel = Kernel()
        start = time.perf_counter()
        _, stats = execute(ghz(n), sequential_path(n), kernel)
        elapsed = time.perf_counter() - start
        assert stats.final_nodes == 2 * n - 1, n
        assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"


@criterion(2, "fourier of ghz reaches the maximal diagram")
def test_worst_case_witness():
    for n in range(3, 15):
        kernel = Kernel()
        _, stats = execute(entangled_qft(n), kernel=kernel)
        assert stats.final_nodes == 2 ** n - 1, n


@criterion(3, "diagram runs match the dense oracle")
def test_oracle_equivalence():
    cases = [ghz(10), w_state(9), graph_state(8), deutsch_jozsa(9), qft(6),
             entangled_qft(6)]
    rng = random.Random(20240809)
    cases += [random_circuit(rng, rng.randint(3, 10), rng.randint(10, 30))
              for _ in range(10)]
    for c in cases:
        kernel = Kernel()
        final, _ = execute(c, kernel=kernel)
        dev = oracle.compare_states(kernel.to_vector(final), oracle.simulate(c))
        assert dev < 1e-10, f"{c.num_qubits} qubits, {len(c.gates)} gates: {dev}"


@criterion(4, "all paths for the 3-qubit fourier agree on one root")
def test_path_independence():
    c = qft(3)
    kernel = Kernel()
    f_seq, _ = execute(c, sequential_path(7), kernel)
    worked_plan = SimulationPath(((0, 1), (2, 8), (3, 9), (4, 10), (5, 11),
                                  (6, 12), (7, 13)))
    f_plan, _ = execute(c, import_path(worked_plan, c), kernel)
    f_greedy, _ = execute(c, import_path(greedy_plan(export_tensor_network(c)), c),
                          kernel)
    tree = SimulationPath(((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
                           (12, 13)))
    f_tree, _ = execute(c, tree, kernel)
    assert root_equal(f_seq, f_plan)
    assert root_equal(f_seq, f_greedy)
    assert root_equal(f_seq, f_tree)


@criterion(5, "sequential explodes where alternating stays linear")
def test_exponential_vs_linear_separation():
    for n in range(4, 15):
        g = qft(n)
        combined = concat_inverse(g, g)
        kernel = Kernel()
        initial = ghz_initial(kernel, n)
        ident = kernel.one_terminal
        kernel.inc_ref(ident)
        _, seq = execute(combined, sequential_path(len(combined.gates)), kernel,
                         initial)
        assert seq.peak_nodes >= 2 ** n - 1, n
        balanced = []
        alt_path = alternating_path(len(g.gates), len(g.gates))

        def watch(index, edge, _n=n, _ident=ident, _bal=balanced, _k=kernel):
            if index < len(alt_path.tasks) and index % 2 == 1:
                _bal.append(root_equal(edge, _ident) and _k.node_count(edge, _n) == _n)

        _, alt = execute(combined, alt_path, kernel, initial, observer=watch)
        assert alt.peak_nodes <= 8 * n, n
        assert balanced and all(balanced), n
        assert all(c <= 8 * n for c in alt.result_nodes), n


@criterion(6, "cost-guided path keeps compiled-circuit checks linear")
def test_heuristic_effectiveness():
    for n in range(4, 15):
        g = qft(n)
        gp = transpile(g)
        combined = concat_inverse(g, gp)
        kernel = Kernel()
        initial = ghz_initial(kernel, n)
        _, seq = execute(combined, sequential_path(len(combined.gates)), kernel,
                         initial)
        assert seq.peak_nodes >= 2 ** n - 1, n
        res = verify_equivalence(g, gp, "heuristic", kernel, initial)
        assert res.stats.peak_nodes <= 8 * n, n
        assert res.verdict == "consistent" and res.fidelity >= 1 - 1e-9, n


def _perturbed_transpile(n, delta=1e-3):
    gates = list(transpile(qft(n)).gates)
    at = max(i for i, gt in enumerate(gates) if gt.kind == "p")
    gt = gates[at]
    gates[at] = Gate("p", gt.targets, gt.controls, gt.parameter + delta)
    return Circuit(n, tuple(gates))


@criterion(7, "a 1e-3 angle error flips every strategy to inconsistent")
def test_negative_verification():
    n = 8
    g = qft(n)
    gp = _perturbed_transpile(n)
    # independent fidelity estimate on the dense side
    ref = oracle.simulate(ghz(n))
    combined = concat_inverse(g, gp)
    after = oracle.simulate(Circuit(n, ghz(n).gates + combined.gates))
    oracle_fidelity = abs(np.vdot(ref, after))
    assert oracle_fidelity < 1 - 1e-9
    for strategy in STRATEGIES:
        kernel = Kernel()
        initial = ghz_initial(kernel, n)
        res = verify_equivalence(g, gp, strategy, kernel, initial)
        assert res.verdict == "inconsistent", strategy
        assert abs(res.fidelity - oracle_fidelity) < 1e-9


@criterion(8, "equal constructions collapse to identical roots")
def test_canonicity_suite():
    rng = random.Random(97)
    kernel = Kernel()
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 6)
        base = random_circuit(rng, n, rng.randint(3, 12))
        variant = equivalent_rewrite(rng, base)
        dev = oracle.compare_states(oracle.simulate(base), oracle.simulate(variant))
        assert dev < 1e-10
        f_base, _ = execute(base, kernel=kernel)
        f_variant, _ = execute(variant, kernel=kernel)
        assert root_equal(f_base, f_variant), (base, variant)
        checked += 1
    # memoization must not influence the canonical result
    for _ in range(25):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(3, 12))
        k_on = Kernel()
        k_off = MemoFreeKernel()
        f_on, _ = execute(c, kernel=k_on)
        f_off, _ = execute(c, kernel=k_off)
        assert k_on.signature(f_on) == k_off.signature(f_off)


@criterion(9, "qasm round trip and line-numbered rejections")
def test_parser_round_trip():
    c = qft(3)
    again = parse_qasm(emit_qasm(c))
    assert again.gates == c.gates
    kinds = [g.kind for g in again.gates]
    assert kinds.count("h") == 3 and kinds.count("cp") == 3 and kinds.count("swap") == 1
    for text, line in [
        ("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n", 3),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[9];\n", 4),
        ("OPENQASM 2.0;\nqreg q[1];\np(pi/) q[0];\n", 3),
    ]:
        with pytest.raises(QasmError) as exc:
            parse_qasm(text)
        assert exc.value.line == line


@criterion(10, "plan import rejects reordering, allows commuting skips")
def test_plan_import_guard():
    c = qft(3)
    bad = SimulationPath(((1, 3), (0, 8), (2, 9), (4, 10), (5, 11), (6, 12),
                          (7, 13)))
    with pytest.raises(PathValidationError) as exc:
        import_path(bad, c)
    assert exc.value.task_index is not None

    ring = graph_state(4)
    skipping = SimulationPath(((1, 3), (2, 9), (4, 10), (0, 11), (5, 12),
                               (6, 13), (7, 14), (8, 15)))
    kernel = Kernel()
    f_plan, _ = execute(ring, import_path(skipping, ring), kernel)
    f_seq, _ = execute(ring, sequential_path(len(ring.gates)), kernel)
    assert root_equal(f_plan, f_seq)
