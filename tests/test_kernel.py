import gc
import itertools
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddpath import (Kernel, SimulationPath, concat_inverse, execute, root_equal,
                    sequential_path, transpile, verify_equivalence)
from ddpath import oracle
from ddpath.circuit import (GENERATORS, Circuit, Gate, cp, cx, deutsch_jozsa, ghz,
                            entangled_qft, h, qft, swap)
from ddpath.errors import InvalidArgumentError, PathValidationError
from ddpath.gates import ALL_KINDS, CONTROLLED_BASE, PARAMETERIZED, base_matrix
from ddpath.kernel import _INV_EPS, EPS, Edge
from ddpath.simpath import make_path

from helpers import (MemoFreeKernel, RecordingKernel, ReferenceKernel, UnfusedKernel,
                     dense_circuit, explicit_node_count, random_circuit, random_gate,
                     random_unitary_2x2)

S2 = 1.0 / math.sqrt(2.0)

# ids say whether the kernel's compute tables memoise
MEMOISING_AND_MEMO_FREE = pytest.mark.parametrize(
    "kernel_cls", [Kernel, MemoFreeKernel], ids=["True", "False"])


def run_gates(kernel, circuit, initial=None):
    state = initial if initial is not None else kernel.make_zero_state(circuit.num_qubits)
    for g in circuit.gates:
        state = kernel.multiply_mv(kernel.make_gate(g, circuit.num_qubits), state)
    return state


class TestZeroState:
    def test_single_qubit_amplitudes(self):
        k = Kernel()
        e = k.make_zero_state(1)
        assert np.allclose(k.to_vector(e), [1, 0])

    def test_node_count_matches_qubit_count(self):
        k = Kernel()
        for n in (1, 3, 7, 40):
            assert k.node_count(k.make_zero_state(n)) == n

    def test_unreached_amplitude_is_zero(self):
        k = Kernel()
        assert k.amplitude(k.make_zero_state(3), "101") == 0

    def test_zero_qubits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Kernel().make_zero_state(0)


class TestBasisState:
    def test_matches_index(self):
        k = Kernel()
        e = k.make_basis_state("101")
        v = k.to_vector(e)
        assert v[0b101] == 1 and np.count_nonzero(v) == 1

    def test_bad_string(self):
        with pytest.raises(InvalidArgumentError):
            Kernel().make_basis_state("10x")


class TestGateDiagrams:
    def test_identity_gate(self):
        k = Kernel()
        e = k.make_gate(Gate("u", (1,), matrix=(1, 0, 0, 1)), 3)
        assert k.node_count(e, 3) == 3
        assert np.allclose(k.to_matrix(e, 3), np.eye(8))
        assert root_equal(e, k.one_terminal)

    def test_hadamard_on_top_qubit_matches_kron(self):
        k = Kernel()
        e = k.make_gate(h(2), 3)
        H = np.array([[S2, S2], [S2, -S2]])
        want = np.kron(H, np.kron(np.eye(2), np.eye(2)))
        assert np.max(np.abs(k.to_matrix(e, 3) - want)) < 1e-10

    def test_controlled_s_structure(self):
        k = Kernel()
        e = k.make_gate(cp(math.pi / 2, 1, 0), 3)
        want = np.kron(np.eye(2), np.diag([1, 1, 1, 1j]))
        assert np.max(np.abs(k.to_matrix(e, 3) - want)) < 1e-10

    @pytest.mark.parametrize("kind,controls,param", [
        ("x", (), None), ("y", (), None), ("z", (), None), ("h", (), None),
        ("s", (), None), ("sdg", (), None), ("t", (), None), ("tdg", (), None),
        ("sx", (), None), ("sxdg", (), None), ("p", (), 0.7), ("ry", (), -1.2),
        ("rz", (), 2.1), ("x", (0, 3), None), ("p", (2,), 0.3),
    ])
    def test_unitarity(self, kind, controls, param):
        k = Kernel()
        target = 1
        g = Gate(kind, (target,), controls, param)
        u = k.to_matrix(k.make_gate(g, 4), 4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10

    def test_unitarity_eight_qubits(self):
        k = Kernel()
        for g in (cp(0.9, 7, 0), swap(2, 6), Gate("x", (4,), (0, 7))):
            u = k.to_matrix(k.make_gate(g, 8), 8)
            assert np.max(np.abs(u.conj().T @ u - np.eye(256))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_controlled_gates_match_oracle(self, n):
        # every control set: below, above and on both sides of the target
        rng = random.Random(n)
        k = Kernel()
        for target in range(n):
            others = [q for q in range(n) if q != target]
            for size in range(len(others) + 1):
                for controls in itertools.combinations(others, size):
                    for g in (Gate("u", (target,), controls, matrix=random_unitary_2x2(rng)),
                              Gate("x", (target,), controls),
                              Gate("p", (target,), controls, rng.uniform(-3, 3))):
                        got = k.to_matrix(k.make_gate(g, n), n)
                        assert np.max(np.abs(got - oracle.gate_matrix(g, n))) < 1e-10, g

    def test_gate_matches_oracle_matrix(self):
        rng = random.Random(11)
        k = Kernel()
        for _ in range(25):
            c = random_circuit(rng, 3, 1)
            g = c.gates[0]
            assert np.max(np.abs(k.to_matrix(k.make_gate(g, 3), 3)
                                 - oracle.gate_matrix(g, 3))) < 1e-10

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Kernel().make_gate(Gate("x", (1,), (1,)), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Kernel().make_gate(h(3), 3)


class TestAdd:
    def test_additive_identity(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        assert root_equal(k._add(state, k.zero_edge), state)

    def test_zero_plus_one_basis(self):
        k = Kernel()
        e = k._add(k.make_basis_state("0"), k.make_basis_state("1"))
        assert np.allclose(k.to_vector(e), [1, 1])

    def test_commutes_on_random_diagrams(self):
        rng = random.Random(3)
        k = Kernel()
        for _ in range(20):
            a = run_gates(k, random_circuit(rng, 3, 8))
            b = run_gates(k, random_circuit(rng, 3, 8))
            assert root_equal(k._add(a, b), k._add(b, a))

    def test_operators_at_different_levels(self):
        # an operator skips the identity levels above its node, so two
        # gates on different qubits add with their nodes on different levels
        k = Kernel()
        pairs = [(h(2), Gate("x", (0,))), (Gate("x", (0,)), cp(0.3, 1, 0)),
                 (swap(0, 2), Gate("z", (1,))), (Gate("z", (1,)), Gate("z", (1,)))]
        for ga, gb in pairs:
            got = k._add(k.make_gate(ga, 3), k.make_gate(gb, 3))
            want = oracle.gate_matrix(ga, 3) + oracle.gate_matrix(gb, 3)
            assert np.max(np.abs(k.to_matrix(got, 3) - want)) < 1e-10, (ga, gb)

    @staticmethod
    def _small_pair(k):
        """[1, 1e-6] and r·[1, 1e-6] with r = -1 + 1e-7, one node under two
        root weights.  Their sum is 1e-7·[1, 1e-6], whose second entry 1e-13
        lies below EPS.  (The vector [-1, -1e-6 + 1e-13] would not do: its
        successor weight 1e-6 - 1e-13 interns to 1e-6, so it is -1 times the
        first and the sum cancels exactly.)"""
        a = Edge(*k._vnode(0, Edge(k.intern(1), None), Edge(k.intern(1e-6), None)))
        return a, Edge(-1 + 1e-7, a.node)

    def test_scalar_sum_is_relative_to_the_summands(self):
        # the scalars sum as a.w · intern(1 + b.w / a.w): the relative part
        # 1e-7 is far above EPS, so the 1e-13 entry survives; an absolute
        # rule, intern(a.w + b.w), would snap it to the zero edge
        k = Kernel()
        a, b = self._small_pair(k)
        got = k.to_vector(k._add(a, b))
        assert got[1] != 0
        assert np.allclose(got, [1e-7, 1e-13], rtol=1e-6, atol=0)
        assert k.amplitude(k._add(b, a), "1") == pytest.approx(1e-13, rel=1e-6)

    def test_exact_cancellation_gives_the_zero_edge(self):
        k = Kernel()
        a, _ = self._small_pair(k)
        w, node = k._add(a, Edge(-a.w, a.node))
        assert node is None and w == 0
        state = run_gates(k, qft(3))
        w, node = k._add(state, Edge(-state.w, state.node))
        assert node is None and w == 0
        z = k.make_gate(Gate("z", (1,)), 3)
        w, node = k._add(z, Edge(-z.w, z.node))
        assert node is None and w == 0


class TestMultiply:
    def test_identity_returns_same_root(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        assert root_equal(k.multiply_mv(k.one_terminal, state), state)

    def test_hadamard_on_zero(self):
        k = Kernel()
        e = k.multiply_mv(k.make_gate(h(0), 1), k.make_zero_state(1))
        assert np.allclose(k.to_vector(e), [S2, S2])

    def test_random_sequences_match_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            c = random_circuit(rng, 3, 15)
            k = Kernel()
            got = k.to_vector(run_gates(k, c))
            assert oracle.compare_states(got, oracle.simulate(c)) < 1e-10

    def test_inverse_times_gate_is_identity(self):
        k = Kernel()
        n = 4
        for g in qft(n).gates:
            u = k.make_gate(g, n)
            ui = k.make_gate(g.inverse(), n)
            prod = k.multiply_mm(ui, u)
            assert root_equal(prod, k.one_terminal)
            assert k.node_count(prod, n) == n

    def test_identity_times_gate(self):
        k = Kernel()
        u = k.make_gate(cp(0.4, 2, 0), 3)
        assert root_equal(k.multiply_mm(k.one_terminal, u), u)
        assert root_equal(k.multiply_mm(u, k.one_terminal), u)

    def test_associativity(self):
        rng = random.Random(9)
        k = Kernel()
        for _ in range(10):
            mats = [k.make_gate(random_circuit(rng, 3, 1).gates[0], 3) for _ in range(3)]
            a, b, c = mats
            assert root_equal(k.multiply_mm(k.multiply_mm(a, b), c),
                              k.multiply_mm(a, k.multiply_mm(b, c)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gate_pair_products_match_oracle(self, n):
        # controls above and below the target, and swaps, leave identity
        # levels that one factor or both skip
        rng = random.Random(n)
        gates = [swap(0, n - 1), swap(n - 2, n - 1)]
        for t in range(n):
            gates.append(Gate("u", (t,), (t + 1,) if t + 1 < n else (),
                              matrix=random_unitary_2x2(rng)))
            gates.append(Gate("p", (t,), (t - 1,) if t > 0 else (), rng.uniform(-3, 3)))
        pairs = list(itertools.product(gates, repeat=2))
        k_on = Kernel()
        k_off = MemoFreeKernel()
        for ga, gb in rng.sample(pairs, min(len(pairs), 80)):
            on = k_on.multiply_mm(k_on.make_gate(ga, n), k_on.make_gate(gb, n))
            off = k_off.multiply_mm(k_off.make_gate(ga, n), k_off.make_gate(gb, n))
            want = oracle.gate_matrix(ga, n) @ oracle.gate_matrix(gb, n)
            assert np.max(np.abs(k_on.to_matrix(on, n) - want)) < 1e-10, (ga, gb)
            assert k_on.signature(on) == k_off.signature(off), (ga, gb)

    def test_self_inverse_lands_on_identity_chain(self):
        # x_k @ x_k is the identity on every level, which must reduce to the
        # identity's terminal edge
        for n in range(1, 9):
            k = Kernel()
            for q in range(n):
                xq = k.make_gate(Gate("x", (q,)), n)
                assert root_equal(k.multiply_mm(xq, xq), k.one_terminal), (n, q)

    def test_level_mismatch_rejected(self):
        # an operator whose top node sits above the state's top level
        k = Kernel()
        with pytest.raises(InvalidArgumentError):
            k.multiply_mv(k.make_gate(h(2), 3), k.make_zero_state(2))


class TestAmplitude:
    def test_ghz_amplitudes(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        assert abs(k.amplitude(state, "000") - S2) < 1e-12
        assert k.amplitude(state, "010") == 0
        assert abs(k.amplitude(state, "111") - S2) < 1e-12

    def test_wrong_length_rejected(self):
        k = Kernel()
        with pytest.raises(InvalidArgumentError):
            k.amplitude(run_gates(k, ghz(3)), "00")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 12))
    def test_probabilities_sum_to_one(self, seed, n, depth):
        rng = random.Random(seed)
        c = random_circuit(rng, n, depth)
        k = Kernel()
        state = run_gates(k, c)
        total = sum(abs(k.amplitude(state, format(i, f"0{n}b"))) ** 2
                    for i in range(1 << n))
        assert abs(total - 1.0) < 1e-9


class TestNodeCounts:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_ghz_is_linear(self, n):
        k = Kernel()
        assert k.node_count(run_gates(k, ghz(n))) == 2 * n - 1

    def test_fourier_of_ghz_is_maximal(self):
        k = Kernel()
        assert k.node_count(run_gates(k, entangled_qft(3))) == 7


class TestInnerProduct:
    def test_norm_is_one(self):
        k = Kernel()
        state = run_gates(k, ghz(4))
        assert abs(k.inner_product(state, state) - 1) < 1e-12

    def test_overlap_with_basis(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        assert abs(k.inner_product(k.make_zero_state(3), state) - S2) < 1e-12

    def test_matches_oracle_on_eight_qubits(self):
        rng = random.Random(17)
        k = Kernel()
        for _ in range(5):
            ca = random_circuit(rng, 8, 12)
            cb = random_circuit(rng, 8, 12)
            a = run_gates(k, ca)
            b = run_gates(k, cb)
            want = np.vdot(oracle.simulate(ca), oracle.simulate(cb))
            assert abs(k.inner_product(a, b) - want) < 1e-10

    def test_deep_basis_state(self):
        # the inner product spends one Python frame per level and signature
        # none, so 990 levels fit under the default recursion limit of 1000;
        # a fresh thread starts with an empty stack, without the test
        # runner's frames
        bits = "01" * 495
        out = {}

        def run():
            k = Kernel()
            e = k.make_basis_state(bits)
            out["norm"] = k.inner_product(e, e)
            out["sig"] = k.signature(e)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert out["norm"] == 1
        sig, depth = out["sig"], 0
        while sig[2] is not None:
            level, edges = sig[2]
            assert level == len(bits) - 1 - depth
            sig = edges[int(bits[depth])]
            depth += 1
        assert depth == len(bits) and sig == (1.0, 0.0, None)


class TestGarbageCollection:
    def test_live_nodes_equal_root_reachability(self):
        k = Kernel()
        final = run_gates(k, entangled_qft(4))
        assert k.unique_size > k.node_count(final)
        k.gc([final])
        assert k.unique_size == k.node_count(final)

    def test_empty_roots_empty_table(self):
        k = Kernel()
        run_gates(k, ghz(5))
        k.gc([])
        assert k.unique_size == 0

    def test_gate_rebuilt_after_gc_is_unchanged(self):
        k = Kernel()
        u = random_unitary_2x2(random.Random(2))
        for g in (Gate("u", (2,), (0, 4), matrix=u), swap(3, 1), cp(0.7, 1, 3)):
            before = k.signature(k.make_gate(g, 5))
            k.gc([])
            assert k.unique_size == 0
            e = k.make_gate(g, 5)
            # rebuilt into the emptied table, not handed out from before gc
            assert k.unique_size == len(set(_walk_nodes(e)))
            assert k.signature(e) == before
            assert root_equal(k.multiply_mm(e, k.make_gate(g.inverse(), 5)), k.one_terminal)

    def test_rerun_after_gc_is_identical(self):
        k = Kernel()
        first = run_gates(k, entangled_qft(3))
        k.inc_ref(first)
        k.gc([first])
        second = run_gates(k, entangled_qft(3))
        assert root_equal(first, second)

    def test_gc_empties_compute_tables(self):
        # the operands hold references and survive gc while their products
        # are swept; a compute table kept across gc would hand those out again
        k = Kernel()
        a = k.make_gate(h(1), 4)
        # ry(1)·h(0): a @ b then sums nodes on level 0, and fills the
        # matrix addition table
        b = k.multiply_mm(k.make_gate(Gate("ry", (1,), parameter=0.3), 4),
                          k.make_gate(h(0), 4))
        v = run_gates(k, qft(4))
        for e in (a, b, v):
            k.inc_ref(e)
        before = (k.signature(k.multiply_mm(a, b)), k.signature(k.multiply_mv(a, v)))
        assert [name for name in vars(k) if name.startswith("_ct")] == ["_ct"]
        # the compute table, products and two-term sums included, and the
        # ratio table live for one public product
        assert not k._ct and not k._ratios
        assert k._gates
        # called directly, _add and _mul_mm leave their entries and the
        # ratios keying them for gc to empty
        k._add(a, b)
        assert k._ct and k._ratios
        k._mul_mm(a, b)
        assert any(len(key) == 2 for key in k._ct)
        k.gc([])
        assert not any((k._ct, k._ratios, k._gates))
        again = (k.multiply_mm(a, b), k.multiply_mv(a, v))
        assert not k._ct
        assert (k.signature(again[0]), k.signature(again[1])) == before
        # rebuilt into the unique table, not the swept nodes from before gc
        live = set(k._unique.values())
        for e in again:
            assert all(node in live for node in _walk_nodes(e))

    def test_gc_empties_two_term_sums_of_a_direct_mac(self):
        # called outside multiply_mv, _mac leaves its entries in the sum
        # table; a sweep that drops every node must drop them too
        n = 3
        k = Kernel()
        a = k.make_gate(h(2), n)
        b = k.make_gate(cx(0, 2), n)
        x = run_gates(k, Circuit(n, tuple(h(q) for q in range(n))))
        y = run_gates(k, ghz(n))
        k._mac(a, x, b, y)
        assert any(len(key) == 5 for key in k._ct) and k._ratios
        assert k.gc([]) > 0 and k.unique_size == 0
        assert not any((k._ct, k._ratios, k._gates))

    @pytest.mark.parametrize("strategy", ["sequential", "heuristic", "greedy"])
    def test_sum_tables_emptied_after_every_product(self, strategy):
        n = 6
        k = Kernel()
        initial, _ = execute(ghz(n), kernel=k)
        filled = []
        real_add = k._add

        def add(a, b):
            r = real_add(a, b)
            filled.append(len(k._ct))
            return r

        def observer(ti, result):
            assert not k._ct and not k._ratios
            # sums only read the value table
            assert set(k._values.values()) <= _value_owners(k)

        k._add = add
        g = qft(n)
        g_prime = transpile(g)
        combined = concat_inverse(g, g_prime)
        final, _ = execute(combined, make_path(strategy, combined, len(g.gates)),
                           kernel=k, initial=initial, observer=observer)
        assert max(filled) > 0
        assert abs(k.inner_product(initial, final)) > 1 - 1e-9

    def test_value_table_holds_only_node_and_gate_weights(self):
        # the sequential miter never sweeps; its sums leave no value behind
        n = 14
        k = Kernel()
        initial, _ = execute(ghz(n), kernel=k)
        r = verify_equivalence(qft(n), qft(n), "sequential", k, initial)
        assert r.stats.peak_nodes == 2 ** n - 1
        assert set(k._values.values()) <= _value_owners(k)

    @pytest.mark.parametrize("product", ["mv", "mm"])
    def test_sum_tables_emptied_when_a_product_raises(self, product):
        # dense operators on three qubits: their products form sums
        n = 5
        rng = random.Random(3)
        k = Kernel()
        op = k.one_terminal
        for _ in range(2):
            for q in range(3):
                op = k.multiply_mm(k.make_gate(Gate("u", (q,), matrix=random_unitary_2x2(rng)), n), op)
            op = k.multiply_mm(k.make_gate(cx(0, 2), n), op)
        state = run_gates(k, Circuit(n, tuple(h(q) for q in range(n))))
        state = run_gates(k, random_circuit(rng, n, 20), state)
        name = "_vnode" if product == "mv" else "_mnode"
        real = getattr(k, name)
        ratios = []

        def failing(*args):
            # raise once a sum has been memoised; products have two-item keys
            if any(len(key) > 2 for key in k._ct):
                ratios.append(len(k._ratios))
                raise RecursionError
            return real(*args)

        setattr(k, name, failing)
        with pytest.raises(RecursionError):
            if product == "mv":
                k.multiply_mv(op, state)
            else:
                k.multiply_mm(op, op)
        assert ratios[0] > 0
        assert not k._ct and not k._ratios

    def test_external_refs_survive_gc(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        k.inc_ref(state)
        k.gc([])
        assert k.unique_size == k.node_count(state)

    @pytest.mark.parametrize("kernel_cls", [Kernel, ReferenceKernel])
    def test_value_table_swept_to_live_weights(self, kernel_cls):
        n = 8
        k = kernel_cls()
        initial, _ = execute(ghz(n), kernel=k)
        first = verify_equivalence(qft(n), qft(n), "sequential", k, initial)
        k.gc([initial, first.final])
        live = {k.ZERO, k.ONE}
        for root in (initial, first.final):
            for node in _walk_nodes(root):
                live.update(s.w for s in node.edges)
        assert set(k._values.values()) <= live
        for w in live:
            assert k.intern(w) is w
        if kernel_cls is Kernel:
            _assert_maps_cover(k)
        again = verify_equivalence(qft(n), qft(n), "sequential", k, initial)
        assert again.stats.peak_nodes == first.stats.peak_nodes == 2 ** n - 1
        assert again.stats.result_nodes == first.stats.result_nodes

    def test_swept_value_table_matches_reference(self):
        rng = random.Random(5)
        c1 = random_circuit(rng, 5, 40)
        c2 = random_circuit(rng, 5, 40)
        runs = []
        for k in (Kernel(), ReferenceKernel()):
            first = run_gates(k, c1)
            k.gc([first])
            second = run_gates(k, c2, first)
            runs.append((len(k._values), k.signature(first), k.signature(second)))
        assert runs[0] == runs[1]


def _ct_sizes(k):
    """The sizes of ``k``'s compute table, read as each vector node is built."""
    sizes = []
    real = k._vnode

    def vnode(level, e0, e1):
        sizes.append(len(k._ct))
        return real(level, e0, e1)

    k._vnode = vnode
    return sizes


class TestCanonicity:
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(5) for b in range(5) if a != b])
    def test_swap_equals_three_cx(self, a, b):
        k = Kernel()
        direct = k.make_gate(swap(a, b), 5)
        via_cx = k.multiply_mm(
            k.make_gate(cx(a, b), 5),
            k.multiply_mm(k.make_gate(cx(b, a), 5), k.make_gate(cx(a, b), 5)))
        assert root_equal(direct, via_cx)

    def test_cz_equals_cp_pi(self):
        k = Kernel()
        assert root_equal(k.make_gate(Gate("cz", (0,), (2,)), 3),
                          k.make_gate(cp(math.pi, 2, 0), 3))

    def test_memo_disabled_matches_enabled(self):
        rng = random.Random(23)
        for _ in range(5):
            c = random_circuit(rng, 4, 10)
            k_on = Kernel()
            k_off = MemoFreeKernel()
            # the compute table lives for one product, so it is read
            # while one runs
            held_on, held_off = _ct_sizes(k_on), _ct_sizes(k_off)
            sig_on = k_on.signature(run_gates(k_on, c))
            sig_off = k_off.signature(run_gates(k_off, c))
            assert sig_on == sig_off
            assert max(held_on) > 0 and max(held_off) == 0

    def test_interning_collapses_close_values(self):
        k = Kernel()
        a = k.intern(0.5)
        b = k.intern(0.5 + 4e-13)
        assert a is b

    def test_non_finite_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Kernel().intern(complex(float("nan"), 0))

    def test_unit_factor_skips_are_exact(self):
        # multiplication and normalisation skip intern when a factor or
        # divisor is exactly 1, which is exact only if every interned value
        # is its own representative, also after * 1 and / 1
        k = Kernel()
        state = run_gates(k, random_circuit(random.Random(41), 5, 60))
        values = list(k._values.values())
        assert len(values) > 20
        for v in values:
            assert k.intern(v) is v
            assert k.intern(v * k.ONE) is v
            assert k.intern(v / k.ONE) is v
        assert k._scale(state, k.ONE) is state
        assert k._scale(k.zero_edge, k.ONE) is k.zero_edge


def _value_stream(rng: random.Random, count: int) -> list[complex]:
    """Weights that stress the value table: parts within ±1 EPS of a bucket
    edge, near-aliases of earlier values, signed zeros, and parts of
    magnitude 1e4 and 1e7, where ``complex(kr ± 1, ki)`` rounds."""
    out: list[complex] = []

    def near_edge(scale: float) -> float:
        k = round(rng.uniform(-scale, scale) / EPS)
        return (k + 0.5 + rng.uniform(-1.0, 1.0)) * EPS

    def large() -> float:
        x = rng.choice((1e4, 1e7)) * rng.uniform(1.0, 1.5) * rng.choice((1, -1))
        for _ in range(rng.randrange(4)):
            x = math.nextafter(x, rng.choice((math.inf, -math.inf)))
        return x

    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
             complex(4e-13, -4e-13), complex(-6e-13, 0.0))
    while len(out) < count:
        roll = rng.random()
        if roll < 0.3:
            scale = rng.choice((1.0, 1e-3, 1e-9, 1e-11))
            out.append(complex(near_edge(scale), near_edge(scale)))
        elif roll < 0.6 and out:
            v = rng.choice(out)
            out.append(complex(v.real + rng.uniform(-1.5, 1.5) * EPS,
                               v.imag + rng.uniform(-1.5, 1.5) * EPS))
        elif roll < 0.7:
            out.append(rng.choice(zeros))
        elif roll < 0.85:
            out.append(complex(large(), rng.choice((0.0, near_edge(1.0), large()))))
        elif out:
            v = rng.choice(out)
            out.append(complex(math.nextafter(v.real, math.inf),
                               math.nextafter(v.imag, -math.inf)))
    return out


def _rounding_edge_cases() -> list[complex]:
    """Weights whose parts in units of EPS are exact ties (k + 1/2) of both
    signs, neighbours of ±2^51 (where the bucket rounding changes method),
    signed zeros, subnormals, and 1e300 (a weight of 1e300 itself is beyond
    the buckets and rejected)."""
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300 * EPS]
    for k in (0, 1, 2, 7, 1000, 123456789, 2 ** 40 + 3):
        for sign in (1, -1):
            tie = sign * (k + 0.5)
            w = tie * EPS
            parts.append(w)
            # the float nearest to (k + 1/2)·EPS rarely scales back to the
            # tie itself: walk to a neighbour that does
            for _ in range(4):
                if w * _INV_EPS == tie:
                    parts.append(w)
                    break
                w = math.nextafter(w, math.inf if w * _INV_EPS < tie else -math.inf)
    for edge in (2.0 ** 51, -(2.0 ** 51)):
        w = edge * EPS
        for direction in (math.inf, -math.inf):
            x = w
            for _ in range(3):
                x = math.nextafter(x, direction)
                parts.append(x)
        parts += [w, (edge - 0.5) * EPS, (edge + 0.5) * EPS, (edge - 1.5) * EPS]
    return [complex(re, im) for re in parts for im in (0.0, -0.0, 0.5, parts[len(parts) // 2])]


def _assert_maps_cover(k):
    """No false negatives: every bucket key marks its row and column byte.
    The maps are a power of two of at least 8 bytes per key, and at most 32
    above the minimum."""
    rows = k._occupied_re
    cols = k._occupied_im
    size = len(rows)
    assert len(cols) == size and size & (size - 1) == 0
    assert 8 * len(k._values) <= size <= max(4096, 32 * len(k._values))
    mask = size - 1
    for key in k._values:
        assert rows[int(key.real) & mask] and cols[int(key.imag) & mask], key


class TestValueTable:
    def test_bucket_rounding_equals_round(self):
        # every weight interned into an empty table stores exactly one key,
        # its parts in units of EPS rounded by round(), ties to even
        rng = random.Random(17)
        stream = _value_stream(rng, 3000) + _rounding_edge_cases()
        stream += [complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-14, 3),
                           rng.uniform(-1, 1) * 10.0 ** rng.randint(-14, 3))
                   for _ in range(3000)]
        ties = 0
        k = Kernel()
        for w in stream:
            k._values.clear()
            k.intern(w)
            kr = round(w.real * _INV_EPS)
            ki = round(w.imag * _INV_EPS)
            assert [repr(key) for key in k._values] == [repr(complex(kr, ki))], w
            ties += (w.real * _INV_EPS) % 1 == 0.5
        assert ties >= 20

    @pytest.mark.parametrize("w", [complex(0, math.nan), complex(math.inf, 0),
                                   complex(0, -math.inf), complex(1e300, 0),
                                   complex(0.5, -1e300)])
    def test_weight_beyond_the_buckets_rejected(self, w):
        for k in (Kernel(), ReferenceKernel()):
            with pytest.raises(InvalidArgumentError):
                k.intern(w)

    def test_intern_matches_reference(self):
        rng = random.Random(8)
        k = Kernel()
        ref = ReferenceKernel()
        snapped = 0
        grown = 0
        for w in _value_stream(rng, 20000) + _rounding_edge_cases():
            size = len(k._occupied_re)
            got = k.intern(w)
            want = ref.intern(w)
            # repr tells apart -0.0 and 0.0
            assert repr(got) == repr(want), w
            snapped += got != w
            if len(k._occupied_re) != size:
                grown += 1
                _assert_maps_cover(k)
        assert snapped > 1000
        assert len(k._values) == len(ref._values)
        assert grown >= 2
        _assert_maps_cover(k)

    @pytest.mark.parametrize("kernel_cls", [Kernel, ReferenceKernel])
    def test_lookup_reads_without_storing(self, kernel_cls):
        k = kernel_cls()
        v = k.intern(complex(0.3, -0.6))
        kr = round(v.real * _INV_EPS)
        own = complex(v.real + 0.3 * EPS, v.imag)
        near = complex(v.real + 0.9 * EPS, v.imag - 0.2 * EPS)
        far = complex(v.real + 3 * EPS, v.imag)
        assert round(own.real * _INV_EPS) == kr and round(near.real * _INV_EPS) == kr + 1
        before = (dict(k._values), bytes(k._occupied_re), bytes(k._occupied_im))
        assert k.lookup(own) is v
        assert k.lookup(near) is v
        assert k.lookup(far) is far
        assert (dict(k._values), bytes(k._occupied_re), bytes(k._occupied_im)) == before
        # a ratio keying a sum takes the first value of its bucket that
        # missed the table, which gc forgets
        first = k._ratio(far)
        assert first is far
        assert k._ratio(complex(far.real + 0.2 * EPS, far.imag)) is first
        assert k._ratio(near) is v
        assert dict(k._values) == before[0]
        k.gc([])
        assert not k._ratios

    def test_signature_matches_reference_on_random_circuits(self):
        rng = random.Random(12)
        for _ in range(8):
            c = random_circuit(rng, 5, 30)
            k = Kernel()
            ref = ReferenceKernel()
            assert k.signature(run_gates(k, c)) == ref.signature(run_gates(ref, c))

    def test_signature_matches_reference_on_qft_miter(self):
        n = 8
        runs = []
        for k in (Kernel(), ReferenceKernel()):
            initial, _ = execute(ghz(n), kernel=k)
            r = verify_equivalence(qft(n), qft(n), "sequential", k, initial)
            runs.append((k.signature(r.final), r.stats.peak_nodes, r.stats.result_nodes,
                         r.verdict, r.fidelity))
        assert runs[0] == runs[1]
        assert runs[0][1] == 2 ** n - 1


class TestSmallRootWeights:
    # the norm a node passes up its incoming edge shrinks like 2^(-n/2); an
    # absolute interning tolerance would snap it to an unrelated value
    @pytest.mark.parametrize("strategy", ["sequential", "greedy"])
    @pytest.mark.parametrize("n", [78, 96, 128])
    def test_deutsch_jozsa_amplitudes(self, n, strategy):
        c = deutsch_jozsa(n)
        k = Kernel()
        final, stats = execute(c, make_path(strategy, c), k)
        assert stats.final_nodes == n
        assert abs(k.amplitude(final, "0" + "1" * (n - 1)) - S2) < 1e-10
        assert abs(k.amplitude(final, "1" * n) + S2) < 1e-10


def _kind_gates(n: int) -> list[Gate]:
    """Every gate kind on a middle target: bare, and with a control above,
    below and on both sides; swap on near and far qubit pairs."""
    rng = random.Random(n)
    t = n // 2
    out = [swap(0, 1), swap(1, n - 1), swap(0, n - 1)]
    for kind in sorted(ALL_KINDS - {"swap"}):
        par = rng.uniform(-3, 3) if kind in PARAMETERIZED else None
        mat = random_unitary_2x2(rng) if kind == "u" else None
        control_sets = [(t + 1,), (t - 1,), (t - 1, t + 1)]
        if kind not in CONTROLLED_BASE:
            control_sets.append(())
        for controls in control_sets:
            out.append(Gate(kind, (t,), controls, par, matrix=mat))
    return out


def _check_unique_tables(k: Kernel) -> int:
    checked = 0
    for key, node in k._unique.items():
        succ = node.succ
        assert not any(isinstance(item, tuple) for item in succ)
        pairs = list(zip(succ[::2], succ[1::2]))
        assert node.edges == tuple(Edge(w, x) for w, x in pairs)
        assert all(type(s) is Edge for s in node.edges)
        if len(succ) == 4:
            # the successors fix a vector node's level, so they are its key
            assert key is succ
            for w, x in pairs:
                if node.level == 0:
                    assert x is None
                else:
                    assert (x is None and w == 0) or x.level == node.level - 1
        else:
            # operator successors may skip identity levels, so the level is
            # part of the key; no stored node is itself an identity level
            assert len(succ) == 8
            assert key == (node.level, succ)
            for _, x in pairs:
                assert x is None or x.level < node.level
            e0, e1, e2, e3 = pairs
            assert not (e1[0] == 0 and e2[0] == 0 and e0 == e3 and e0[0] == k.ONE)
        checked += 1
    return checked


class TestUniqueTables:
    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @MEMOISING_AND_MEMO_FREE
    def test_keys_are_successor_tuples_of_generator_runs(self, family, kernel_cls):
        c = GENERATORS[family](5)
        k = kernel_cls()
        execute(c, sequential_path(len(c.gates)), k)
        # a product of all gates first, then applied: matrix-matrix tasks
        count = len(c.gates)
        tasks = [(1, 2)] + [(count + i, i + 2) for i in range(1, count - 1)]
        execute(c, SimulationPath(tuple(tasks) + ((0, 2 * count - 1),)), k)
        assert _check_unique_tables(k) > 0

    def test_keys_are_successor_tuples_for_every_gate_kind(self):
        n = 5
        k = Kernel()
        gates = [k.make_gate(g, n) for g in _kind_gates(n)]
        state = run_gates(k, random_circuit(random.Random(3), n, 12))
        for a in gates:
            k.multiply_mv(a, state)
            for b in gates[::5]:
                k.multiply_mm(a, b)
        assert _check_unique_tables(k) > 0
        k.gc([state])
        assert _check_unique_tables(k) > 0


# block-diagonal gates: phase-type gates, and cx with its control above the
# target, are diag(·, ·) at the top level and at every level they leave alone
BLOCK_DIAGONAL = [
    cp(0.7, 3, 1), cp(-1.1, 0, 2), Gate("p", (2,), parameter=0.4), Gate("z", (1,)),
    Gate("cz", (0,), (3,)), Gate("cz", (3,), (1,)), cx(3, 0), cx(2, 1),
]


class TestBlockDiagonalProducts:
    @MEMOISING_AND_MEMO_FREE
    def test_matrix_vector(self, kernel_cls):
        n = 4
        rng = random.Random(5)
        k = kernel_cls()
        for g in BLOCK_DIAGONAL:
            c = random_circuit(rng, n, 10)
            got = k.multiply_mv(k.make_gate(g, n), run_gates(k, c))
            want = oracle.gate_matrix(g, n) @ oracle.simulate(c)
            assert np.max(np.abs(k.to_vector(got) - want)) < 1e-10, g

    @MEMOISING_AND_MEMO_FREE
    def test_matrix_matrix_on_both_sides(self, kernel_cls):
        n = 4
        rng = random.Random(6)
        k = kernel_cls()
        for g in BLOCK_DIAGONAL:
            c = random_circuit(rng, n, 4)
            other = k.one_terminal
            for gate in c.gates:
                other = k.multiply_mm(k.make_gate(gate, n), other)
            dense = oracle.circuit_unitary(c)
            diag = k.make_gate(g, n)
            mat = oracle.gate_matrix(g, n)
            for got, want in ((k.multiply_mm(diag, other), mat @ dense),
                              (k.multiply_mm(other, diag), dense @ mat),
                              (k.multiply_mm(diag, diag), mat @ mat)):
                assert np.max(np.abs(k.to_matrix(got, n) - want)) < 1e-10, g

    def test_compute_table_on_and_off_agree(self):
        n = 4
        sigs = []
        for k in (Kernel(), MemoFreeKernel()):
            r = random.Random(7)
            out = []
            state = run_gates(k, random_circuit(r, n, 10))
            for g in BLOCK_DIAGONAL:
                other = k.make_gate(random_circuit(r, n, 1).gates[0], n)
                diag = k.make_gate(g, n)
                out.append(k.signature(k.multiply_mv(diag, state)))
                out.append(k.signature(k.multiply_mm(diag, other)))
                out.append(k.signature(k.multiply_mm(other, diag)))
            sigs.append(out)
        assert sigs[0] == sigs[1]


class TestFusedSums:
    """``Kernel`` forms ``a·x + b·y`` in one recursion; ``UnfusedKernel``
    sums the two full products.  Both must give the same diagrams, and the
    fused kernel may build no node the unfused one does not."""

    @staticmethod
    def _same_run(make_run, amplitudes):
        """``make_run(kernel)`` -> (final edge, stats or None, verdict or
        None) on a fresh kernel of each kind; ``amplitudes(kernel, edge)``
        -> array compared within 1e-12."""
        runs = []
        for kernel_cls in (Kernel, UnfusedKernel):
            k = kernel_cls()
            final, stats, verdict = make_run(k)
            runs.append((k, final, stats, verdict))
        (kf, ff, sf, vf), (ku, fu, su, vu) = runs
        assert vf == vu
        if sf is not None:
            assert sf.result_nodes == su.result_nodes
            assert (sf.peak_nodes, sf.final_nodes) == (su.peak_nodes, su.final_nodes)
        assert kf.node_count(ff) == ku.node_count(fu)
        assert np.max(np.abs(amplitudes(kf, ff) - amplitudes(ku, fu))) <= 1e-12
        assert kf._uid <= ku._uid
        return kf._uid, ku._uid

    def test_random_circuits_sequential(self):
        rng = random.Random(31)
        for _ in range(12):
            c = random_circuit(rng, rng.randint(3, 7), 40)
            emptied = []

            def run(k):
                def observer(ti, result):
                    emptied.append(not k._ct)
                final, stats = execute(c, kernel=k, observer=observer)
                return final, stats, None

            self._same_run(run, lambda k, e: k.to_vector(e))
            assert all(emptied)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_qft_self_miter_from_ghz(self, n):
        def run(k):
            initial, _ = execute(ghz(n), kernel=k)
            res = verify_equivalence(qft(n), qft(n), "sequential", k, initial)
            return res.final, res.stats, res.verdict

        self._same_run(run, lambda k, e: k.to_vector(e))

    @pytest.mark.parametrize("n", [4, 8])
    def test_entangled_qft(self, n):
        def run(k):
            final, stats = execute(entangled_qft(n), kernel=k)
            return final, stats, None

        def miter(k):
            initial, _ = execute(ghz(n), kernel=k)
            res = verify_equivalence(entangled_qft(n), entangled_qft(n), "sequential",
                                     k, initial)
            return res.final, res.stats, res.verdict

        self._same_run(run, lambda k, e: k.to_vector(e))
        self._same_run(miter, lambda k, e: k.to_vector(e))

    @pytest.mark.parametrize("prep", ["ghz", "plus"])
    @pytest.mark.parametrize("gate", ["swap", "cx-down", "cx-up"])
    def test_long_range_gates_on_64_qubits(self, prep, gate):
        n = 64
        circuit = ghz(n) if prep == "ghz" else Circuit(n, tuple(h(q) for q in range(n)))
        g = {"swap": swap(0, n - 1), "cx-down": cx(0, n - 1), "cx-up": cx(n - 1, 0)}[gate]
        rng = random.Random(2)
        bits = ["0" * n, "1" * n, "0" + "1" * (n - 1), "1" + "0" * (n - 1)]
        bits += ["".join(rng.choice("01") for _ in range(n)) for _ in range(16)]

        def run(k):
            state, _ = execute(circuit, kernel=k)
            return k.multiply_mv(k.make_gate(g, n), state), None, None

        def amplitudes(k, e):
            return np.array([k.amplitude(e, b) for b in bits])

        fused, unfused = self._same_run(run, amplitudes)
        if prep == "plus" and gate != "cx-up":
            # the two half-state products the unfused sum builds and drops
            assert fused < unfused

    @pytest.mark.parametrize("low", [0, 1, 2])
    def test_dense_operator(self, low):
        # random single-qubit unitaries and a cx chain on three adjacent
        # qubits make a dense product: the halves of its sums have three or
        # four terms
        n = 5
        rng = random.Random(8 + low)
        gates = []
        for _ in range(3):
            gates += [Gate("u", (q,), matrix=random_unitary_2x2(rng))
                      for q in range(low, low + 3)]
            gates += [cx(low, low + 1), cx(low + 1, low + 2)]
        state_circuit = random_circuit(rng, n, 20)

        def run(k):
            op = k.one_terminal
            for g in gates:
                op = k.multiply_mm(k.make_gate(g, n), op)
            return k.multiply_mv(op, run_gates(k, state_circuit)), None, None

        self._same_run(run, lambda k, e: k.to_vector(e))
        want = oracle.simulate(Circuit(n, tuple(state_circuit.gates) + tuple(gates)))
        k = Kernel()
        assert np.max(np.abs(k.to_vector(run(k)[0]) - want)) < 1e-10

    def test_two_term_table_emptied_when_multiply_raises(self):
        n = 8
        k = Kernel()
        state, _ = execute(Circuit(n, tuple(h(q) for q in range(n))), kernel=k)
        op = k.make_gate(swap(0, n - 1), n)
        real = k._vnode
        seen = []

        def failing(level, e0, e1):
            if len(seen) == 6:
                raise RecursionError
            seen.append(sum(len(key) == 5 for key in k._ct))
            return real(level, e0, e1)

        k._vnode = failing
        with pytest.raises(RecursionError):
            k.multiply_mv(op, state)
        assert max(seen) > 0
        assert not k._ct


def _value_owners(k):
    """ZERO, ONE, the representatives of the entries of every gate in the
    gate memo, and the successor weights of every stored node: the values
    ``intern`` is asked to keep."""
    owners = {k.ZERO, k.ONE}
    for kind, parameter, matrix, _, _, _ in k._gates:
        if kind != "swap":
            owners.update(k.lookup(x) for x in base_matrix(kind, parameter, matrix))
    for node in k._unique.values():
        owners.update(s.w for s in node.edges)
    return owners


def _walk_nodes(edge):
    seen = set()
    stack = [edge.node] if edge.node is not None else []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        for s in node.edges:
            if s.node is not None:
                stack.append(s.node)


class TestNormalizationInvariants:
    def test_all_nodes_normalized(self):
        rng = random.Random(31)
        k = Kernel()
        roots = [run_gates(k, random_circuit(rng, 4, 12)) for _ in range(10)]
        roots += [k.make_gate(random_circuit(rng, 4, 1).gates[0], 4) for _ in range(10)]
        for root in roots:
            for node in _walk_nodes(root):
                mags = [abs(e.w) for e in node.edges]
                top = max(mags)
                assert abs(top - 1.0) < 1e-9
                assert node.edges[mags.index(top)].w == 1
                assert any(m > 0 for m in mags)
                for e in node.edges:
                    # a terminal successor of an operator node is a scaled
                    # identity, so only vector nodes above level 0 have none
                    assert (e.w == 0) == (e.node is None) or node.level == 0 \
                        or (len(node.edges) == 4 and e.node is None)

    def test_zero_weight_edges_have_no_target(self):
        k = Kernel()
        for node in _walk_nodes(run_gates(k, ghz(5))):
            for e in node.edges:
                if e.w == 0:
                    assert e.node is None


class TestExplicitNodeCount:
    """Operator diagrams skip identity levels; ``node_count(e, n)`` counts
    them back in, as ``helpers.explicit_node_count`` rebuilds them, and
    ``_check_unique_tables`` finds no stored identity level."""

    def test_random_gates(self):
        rng = random.Random(4)
        k = Kernel()
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_gate(rng, n)
            e = k.make_gate(g, n)
            assert k.node_count(e, n) == explicit_node_count(e, n), g
        _check_unique_tables(k)

    def test_random_gate_products(self):
        rng = random.Random(6)
        k = Kernel()
        for _ in range(150):
            n = rng.randint(1, 8)
            e = k.one_terminal
            for _ in range(rng.randint(2, 5)):
                e = k.multiply_mm(k.make_gate(random_gate(rng, n), n), e)
                assert k.node_count(e, n) == explicit_node_count(e, n)
        _check_unique_tables(k)

    @pytest.mark.parametrize("strategy", ["sequential", "greedy"])
    def test_every_task_result(self, strategy):
        rng = random.Random(8)
        runs = 0
        for _ in range(30):
            n = rng.randint(2, 7)
            c = random_circuit(rng, n, rng.randint(4, 30))
            try:
                path = make_path(strategy, c)
            except PathValidationError:
                # a known greedy defect: its plan may reorder gates
                continue
            k = Kernel()
            explicit = []
            _, stats = execute(c, path, k, observer=lambda i, e: explicit.append(
                (k.node_count(e, n), explicit_node_count(e, n))))
            assert [a for a, _ in explicit] == stats.result_nodes
            assert all(a == b for a, b in explicit)
            _check_unique_tables(k)
            runs += 1
        assert runs >= 15

    def test_wide_single_gate_stores_one_node(self):
        k = Kernel()
        before = k.unique_size
        e = k.make_gate(h(0), 200)
        assert k.unique_size - before == 1
        assert k.node_count(e, 200) == 200

    def test_identity_counts_every_level(self):
        k = Kernel()
        assert k.node_count(k.one_terminal, 7) == explicit_node_count(k.one_terminal, 7) == 7
        assert k.node_count(k.zero_edge, 7) == 0

    def test_operator_wider_than_n_rejected(self):
        k = Kernel()
        for query in (k.node_count, k.to_matrix):
            with pytest.raises(InvalidArgumentError, match="does not fit"):
                query(k.make_gate(h(3), 4), 3)


class TestDotExport:
    def test_contains_nodes_and_stubs(self):
        k = Kernel()
        text = k.to_dot(run_gates(k, ghz(3)))
        assert text.startswith("digraph")
        assert "->" in text
        assert "style=filled" in text

    def test_literal_text_names_nodes_in_preorder(self):
        # both diagrams reach a node twice; names follow the first visit,
        # successors in edge order
        k = Kernel()
        state = run_gates(k, Circuit(3, (h(0), h(2), cx(0, 1))))
        assert k.to_dot(state) == "\n".join([
            "digraph dd {", "  rankdir=TB;", '  root [shape=point, label=""];',
            '  t [shape=box, label="1"];', '  root -> n0 [label="0.5"];',
            '  n0 [shape=circle, label="2"];',
            '  n0 -> n1 [label="0: 1"];', '  n0 -> n1 [label="1: 1"];',
            '  n1 [shape=circle, label="1"];',
            '  n1 -> n2 [label="0: 1"];', '  n1 -> n3 [label="1: 1"];',
            '  n2 [shape=circle, label="0"];', '  n2 -> t [label="0: 1"];',
            "  z0 [shape=point, style=filled];", '  n2 -> z0 [label="1"];',
            '  n3 [shape=circle, label="0"];',
            "  z1 [shape=point, style=filled];", '  n3 -> z1 [label="0"];',
            '  n3 -> t [label="1: 1"];', "}"])
        assert k.to_dot(k.make_gate(cx(0, 2), 3)) == "\n".join([
            "digraph dd {", "  rankdir=TB;", '  root [shape=point, label=""];',
            '  t [shape=box, label="1"];', '  root -> n0 [label="1"];',
            '  n0 [shape=circle, label="2"];',
            '  n0 -> n1 [label="0: 1"];', '  n0 -> n2 [label="1: 1"];',
            '  n0 -> n2 [label="2: 1"];', '  n0 -> n1 [label="3: 1"];',
            '  n1 [shape=circle, label="0"];', '  n1 -> t [label="0: 1"];',
            "  z0 [shape=point, style=filled];", '  n1 -> z0 [label="1"];',
            "  z1 [shape=point, style=filled];", '  n1 -> z1 [label="2"];',
            "  z2 [shape=point, style=filled];", '  n1 -> z2 [label="3"];',
            '  n2 [shape=circle, label="0"];',
            "  z3 [shape=point, style=filled];", '  n2 -> z3 [label="0"];',
            "  z4 [shape=point, style=filled];", '  n2 -> z4 [label="1"];',
            "  z5 [shape=point, style=filled];", '  n2 -> z5 [label="2"];',
            '  n2 -> t [label="3: 1"];', "}"])


class TestReaders:
    @pytest.mark.parametrize("reader", ["to_vector", "to_matrix", "to_dot"])
    def test_leave_no_reference_cycle(self, reader):
        # a reader whose walk is a self-recursive closure leaves a cycle
        # holding its memo for Python's cyclic collector
        n = 10
        k = Kernel()
        state = run_gates(k, qft(n))
        gate = k.make_gate(cx(0, n - 1), n)
        calls = {"to_vector": lambda: k.to_vector(state),
                 "to_matrix": lambda: k.to_matrix(gate, n),
                 "to_dot": lambda: (k.to_dot(state), k.to_dot(gate))}
        was_on = gc.isenabled()
        gc.disable()
        try:
            # a first call may set up numpy's lazily built state
            calls[reader]()
            gc.collect()
            calls[reader]()
            assert gc.collect() == 0
        finally:
            if was_on:
                gc.enable()

    def test_wrong_diagram_kind_is_invalid_argument(self):
        k = Kernel()
        with pytest.raises(InvalidArgumentError, match="vector diagram"):
            k.to_vector(k.make_gate(h(0), 3))
        with pytest.raises(InvalidArgumentError, match="operator diagram"):
            k.to_matrix(run_gates(k, ghz(3)), 3)

    @pytest.mark.parametrize("reader,n", [
        ("to_vector", 5), ("to_vector", 2), ("node_count", 7), ("node_count", 1)])
    def test_wrong_vector_width_is_invalid_argument(self, reader, n):
        k = Kernel()
        state = run_gates(k, ghz(3))
        with pytest.raises(InvalidArgumentError, match=f"on 3 qubits read as {n} qubits"):
            getattr(k, reader)(state, n)

    def test_vector_width_rules(self):
        k = Kernel()
        state = run_gates(k, ghz(3))
        assert k.to_vector(state, 3).shape == (8,)
        assert k.node_count(state, 3) == 5
        # the terminal is a vector on no qubit; the zero edge has every width
        with pytest.raises(InvalidArgumentError, match="on 0 qubits read as 4 qubits"):
            k.to_vector(k.one_terminal, 4)
        assert k.to_vector(k.one_terminal, 0).shape == (1,)
        assert k.to_vector(k.zero_edge, 4).shape == (16,)


def _tree_state(k, rng, n, shared=False):
    """A vector diagram of random amplitudes, built level by level: a full
    state, or with ``shared`` one whose first two level-0 nodes are one
    node, which leaves it one node short of full."""
    def amplitude():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    leaves = [((amplitude(), None), (amplitude(), None)) for _ in range(1 << (n - 1))]
    if shared:
        leaves[1] = leaves[0]
    level = [k._vnode(0, a, b) for a, b in leaves]
    for lvl in range(1, n):
        level = [k._vnode(lvl, level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return Edge(*level[0])


def _dense_tree_operator(k, rng, n):
    """u(1)·cx(0, 1)·u(0)·u(1) on ``n`` qubits: a dense two-qubit block
    whose four level-0 nodes are distinct, so no node is reached twice."""
    def u(q):
        return k.make_gate(Gate("u", (q,), matrix=random_unitary_2x2(rng)), n)

    return k.multiply_mm(u(1), k.multiply_mm(k.make_gate(cx(0, 1), n),
                                             k.multiply_mm(u(0), u(1))))


class TestMemoFreeProducts:
    """A ``multiply_mv`` on a full state with a tree operator skips the
    compute table.  Each job runs on a ``RecordingKernel`` and again with
    the table forced on: no key of a memo-free product is looked up twice
    with the table on, and without it the product makes no more calls."""

    @staticmethod
    def _compare(job) -> list:
        """``job(kernel)`` -> final edge, run on both kernels; returns the
        records of the memo-free products."""
        runs = []
        for memo in (False, True):
            k = RecordingKernel(memo)
            runs.append((k, job(k)))
        (free, final_free), (forced, final_forced) = runs
        assert free.signature(final_free) == forced.signature(final_forced)
        assert len(free.products) == len(forced.products)
        out = []
        for a, b in zip(free.products, forced.products):
            assert not b.free
            if a.free:
                # without the table the product looks up no key outside
                # _sum_of_products
                assert not a.keys
                assert len(set(b.keys)) == len(b.keys)
                assert a.calls <= b.calls
                out.append(a)
        return out

    def test_qft_self_miter_from_ghz(self):
        n = 14

        def job(k):
            initial, _ = execute(ghz(n), kernel=k)
            return verify_equivalence(qft(n), qft(n), "sequential", k, initial).final

        # the 14 swaps on the full qft state and the h(13) that collapses it
        assert len(self._compare(job)) == 15

    @pytest.mark.parametrize("strategy", ["sequential", "greedy"])
    def test_dense_circuits(self, strategy):
        with_free = 0
        fallbacks = 0
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            c = dense_circuit(rng, n, rng.randint(n + 1, n + 3))
            path = make_path(strategy, c)
            free = self._compare(lambda k: execute(c, path, k)[0])
            with_free += bool(free)
            fallbacks += sum(p.fallbacks for p in free)
        if strategy == "sequential":
            assert with_free == 50
        else:
            # a greedy plan may apply its wide operators only to states
            # short of full; its operator products reach the fallback
            assert with_free >= 45 and fallbacks > 0


class TestWhereTheTableStays:
    """The compute table is written during a product unless the state is
    full and the operator a tree; the dense operator's fallback writes it
    in a product that otherwise skips it."""

    n = 5

    @staticmethod
    def _writes_table(k, op, state) -> bool:
        sizes = _ct_sizes(k)
        k.multiply_mv(op, state)
        return max(sizes) > 0

    def test_full_state_and_tree_operator_skip_it(self):
        k = Kernel()
        state = _tree_state(k, random.Random(1), self.n)
        op = k.make_gate(h(2), self.n)
        assert k.node_count(state) == 2 ** self.n - 1
        k.node_count(op, self.n)
        assert k._shapes[op.node] is True
        assert not self._writes_table(k, op, state)

    def test_state_one_node_short_of_full(self):
        k = Kernel()
        state = _tree_state(k, random.Random(2), self.n, shared=True)
        op = k.make_gate(h(2), self.n)
        assert k.node_count(state) == 2 ** self.n - 2
        k.node_count(op, self.n)
        assert self._writes_table(k, op, state)

    def test_cx_with_control_below_target(self):
        # the target level's four quadrants lead to two control-level nodes
        k = Kernel()
        state = _tree_state(k, random.Random(3), self.n)
        op = k.make_gate(cx(0, self.n - 1), self.n)
        k.node_count(state)
        k.node_count(op, self.n)
        assert k._shapes[op.node] is False
        assert self._writes_table(k, op, state)

    def test_dense_operator_fallback(self):
        k = RecordingKernel()
        rng = random.Random(4)
        state = _tree_state(k, rng, self.n)
        op = _dense_tree_operator(k, rng, self.n)
        assert k.node_count(state) == 2 ** self.n - 1
        k.node_count(op, self.n)
        assert k._shapes[op.node] is True
        assert self._writes_table(k, op, state)
        record = k.products[-1]
        assert record.free and record.fallbacks > 0 and not record.keys


class TestShapeCache:
    """``node_count`` caches each vector root's count and whether an
    operator root is a tree; ``gc`` empties the cache."""

    def test_gc_empties_it(self):
        n = 4
        k = Kernel()
        state = _tree_state(k, random.Random(5), n)
        k.node_count(state)
        k.node_count(k.make_gate(h(0), n), n)
        assert len(k._shapes) == 2
        k.inc_ref(state)
        k.gc([])
        assert not k._shapes
        assert k.node_count(state) == 2 ** n - 1

    def test_cached_count_checks_width(self):
        n = 4
        k = Kernel()
        state = _tree_state(k, random.Random(6), n)
        assert k.node_count(state, n) == 2 ** n - 1
        assert k._shapes[state.node] == 2 ** n - 1
        for wrong in (n - 1, n + 1):
            with pytest.raises(InvalidArgumentError, match="read as"):
                k.node_count(state, wrong)
        assert k.node_count(state) == 2 ** n - 1

    def test_level_walk_matches_reachable(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 8)
            k = Kernel()
            if rng.random() < 0.25:
                state = _tree_state(k, rng, n, shared=n > 1 and rng.random() < 0.5)
            else:
                state = run_gates(k, random_circuit(rng, n, rng.randint(0, 40)))
            if state.node is None:
                continue
            assert k.node_count(state) == len(k._reachable((state.node,)))

    def test_counting_first_keeps_the_signature(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(3, 6)
            c = dense_circuit(rng, n, n + 2)
            if rng.random() < 0.5:
                # an operator with a shared node on the full state
                c = Circuit(n, c.gates + (cx(0, n - 1),))
            runs = []
            for count_first in (False, True):
                k = RecordingKernel()
                state = k.make_zero_state(n)
                for g in c.gates:
                    op = k.make_gate(g, n)
                    if count_first:
                        k.node_count(op, n)
                        k.node_count(state)
                    state = k.multiply_mv(op, state)
                runs.append((k.signature(state), any(p.free for p in k.products)))
            (uncounted, free_uncounted), (counted, free_counted) = runs
            assert uncounted == counted
            assert not free_uncounted and free_counted
