import math
import random

import numpy as np
import pytest

from ddpath import (
    concat_inverse,
    decomposition_cost,
    deutsch_jozsa,
    entangled_qft,
    ghz,
    graph_state,
    invert,
    qft,
    transpile,
    w_state,
)
from ddpath import oracle
from ddpath.circuit import Circuit, Gate, h
from ddpath.errors import InvalidArgumentError, UnsupportedGateError

from helpers import random_circuit


class TestQftStructure:
    def test_three_qubit_gate_sequence(self):
        c = qft(3)
        want = [
            ("h", (0,), (), None),
            ("cp", (0,), (1,), math.pi / 2),
            ("cp", (0,), (2,), math.pi / 4),
            ("h", (1,), (), None),
            ("cp", (1,), (2,), math.pi / 2),
            ("h", (2,), (), None),
            ("swap", (0, 2), (), None),
        ]
        got = [(g.kind, g.targets, g.controls, g.parameter) for g in c.gates]
        assert got == want

    def test_gate_count_scaling(self):
        for n in (1, 2, 5, 8):
            assert len(qft(n).gates) == n + n * (n - 1) // 2 + n // 2

    def test_uniform_output_from_zero(self):
        st = oracle.simulate(qft(4))
        assert np.allclose(st, np.full(16, 1 / 4))


class TestGhz:
    def test_amplitudes(self):
        st = oracle.simulate(ghz(3))
        want = np.zeros(8, dtype=complex)
        want[0] = want[7] = 1 / math.sqrt(2)
        assert np.max(np.abs(st - want)) < 1e-12

    def test_composition(self):
        c = entangled_qft(4)
        assert c.gates == ghz(4).gates + qft(4).gates


class TestWState:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_one_hot_amplitudes(self, n):
        st = oracle.simulate(w_state(n))
        for k in range(n):
            assert abs(st[1 << k] - 1 / math.sqrt(n)) < 1e-12
        rest = [st[i] for i in range(1 << n) if i not in {1 << k for k in range(n)}]
        assert np.max(np.abs(rest)) < 1e-12


class TestGraphState:
    def test_ring_amplitude_signs(self):
        n = 4
        edges = [(i, (i + 1) % n) for i in range(n)]
        st = oracle.simulate(graph_state(n, edges))
        for i in range(1 << n):
            bits = [(i >> q) & 1 for q in range(n)]
            parity = sum(bits[a] * bits[b] for a, b in edges)
            want = (-1) ** parity / 4.0
            assert abs(st[i] - want) < 1e-12

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            graph_state(3, [(0, 1), (1, 0)])


class TestDeutschJozsa:
    def test_balanced_oracle_output(self):
        n = 5
        st = oracle.simulate(deutsch_jozsa(n))
        inputs_all_one = (1 << (n - 1)) - 1
        lo = inputs_all_one               # ancilla 0
        hi = inputs_all_one | (1 << (n - 1))  # ancilla 1
        assert abs(st[lo] - 1 / math.sqrt(2)) < 1e-12
        assert abs(st[hi] + 1 / math.sqrt(2)) < 1e-12


class TestInvert:
    def test_involution_gate_for_gate(self):
        rng = random.Random(2)
        for _ in range(10):
            c = random_circuit(rng, 4, 12)
            assert invert(invert(c)).gates == c.gates

    def test_self_inverse_hadamard(self):
        c = Circuit(1, (h(0),))
        assert invert(c).gates == c.gates

    def test_is_semantic_inverse(self):
        rng = random.Random(4)
        for _ in range(5):
            c = random_circuit(rng, 4, 10)
            u = oracle.circuit_unitary(c)
            ui = oracle.circuit_unitary(invert(c))
            assert np.max(np.abs(ui @ u - np.eye(16))) < 1e-10


class TestConcatInverse:
    def test_length(self):
        assert len(concat_inverse(qft(3), qft(3)).gates) == 14

    def test_empty(self):
        c = concat_inverse(Circuit(2), Circuit(2))
        assert c.gates == ()

    def test_maps_zero_state_to_itself(self):
        c = concat_inverse(qft(3), qft(3))
        st = oracle.simulate(c)
        want = np.zeros(8)
        want[0] = 1
        assert np.max(np.abs(st - want)) < 1e-10

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            concat_inverse(qft(3), qft(4))


class TestTranspile:
    def test_qft3_gate_count(self):
        assert len(transpile(qft(3)).gates) == 21

    def test_fixpoint(self):
        tc = transpile(qft(3))
        assert transpile(tc).gates == tc.gates

    def test_preserves_semantics_up_to_phase(self):
        rng = random.Random(6)
        for _ in range(8):
            c = random_circuit(rng, 4, 10, allow_u=False, allow_controls=False)
            u = oracle.circuit_unitary(c)
            v = oracle.circuit_unitary(transpile(c))
            ratio = v @ u.conj().T
            ph = ratio[0, 0]
            assert abs(abs(ph) - 1) < 1e-10
            assert np.max(np.abs(v - ph * u)) < 1e-10

    def test_unknown_rule_rejected(self):
        c = Circuit(2, (Gate("u", (0,), matrix=(1, 0, 0, 1)),))
        with pytest.raises(UnsupportedGateError):
            transpile(c)
        # a rule that took fewer controls than the gate has would drop some
        for gate in (Gate("h", (0,), (1, 2)), Gate("cz", (0,), (1, 2)),
                     Gate("cp", (0,), (1, 2), 0.7), Gate("swap", (0, 1), (2,))):
            with pytest.raises(UnsupportedGateError,
                               match=f"no decomposition rule for '{gate.kind}'"):
                transpile(Circuit(3, (gate,)))


class TestDecompositionCost:
    @pytest.mark.parametrize("kind,cost", [
        ("cx", 1), ("h", 1), ("p", 1), ("swap", 3), ("cp", 5), ("cz", 5),
        ("x", 3), ("z", 1), ("s", 1), ("t", 1), ("rz", 1), ("ry", 5),
    ])
    def test_table(self, kind, cost):
        assert decomposition_cost(kind) == cost

    def test_sum_matches_transpiled_length(self):
        rng = random.Random(8)
        for _ in range(10):
            c = random_circuit(rng, 4, 15, allow_u=False, allow_controls=False)
            total = sum(decomposition_cost(g.kind) for g in c.gates)
            assert total == len(transpile(c).gates)

    def test_missing_rule(self):
        with pytest.raises(UnsupportedGateError):
            decomposition_cost("u")


class TestGateValidation:
    def test_control_target_overlap(self):
        with pytest.raises(InvalidArgumentError):
            Gate("cx", (1,), (1,))

    def test_out_of_range_in_circuit(self):
        with pytest.raises(InvalidArgumentError):
            Circuit(2, (h(2),))

    def test_missing_angle(self):
        with pytest.raises(InvalidArgumentError):
            Gate("p", (0,))

    def test_swap_needs_two_targets(self):
        with pytest.raises(InvalidArgumentError):
            Gate("swap", (0,))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle(self, value):
        with pytest.raises(InvalidArgumentError):
            Gate("p", (0,), parameter=value)
        with pytest.raises(InvalidArgumentError):
            Gate("cp", (0,), (1,), value)

    @pytest.mark.parametrize("entry", [complex(math.inf, 0), complex(0, math.nan), math.nan])
    def test_non_finite_matrix_entry(self, entry):
        with pytest.raises(InvalidArgumentError):
            Gate("u", (0,), matrix=(1, 0, 0, entry))
