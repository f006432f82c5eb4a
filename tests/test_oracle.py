import math
import random

import numpy as np
import pytest

from ddpath import ghz, qft
from ddpath import oracle
from ddpath.circuit import Circuit, cp, h, x
from ddpath.errors import CapacityError, InvalidArgumentError

from helpers import random_circuit

S2 = 1.0 / math.sqrt(2.0)


class TestSimulate:
    def test_ghz_amplitudes(self):
        st = oracle.simulate(ghz(3), "000")
        assert abs(st[0] - S2) < 1e-12 and abs(st[7] - S2) < 1e-12
        assert np.max(np.abs(st[1:7])) == 0

    def test_empty_circuit_keeps_basis_state(self):
        st = oracle.simulate(Circuit(3), "101")
        assert st[0b101] == 1 and np.count_nonzero(st) == 1

    def test_qft_uniform(self):
        st = oracle.simulate(qft(3))
        assert np.allclose(st, np.full(8, 1 / math.sqrt(8)))

    def test_norm_preserved_on_random_circuits(self):
        rng = random.Random(1)
        for _ in range(10):
            st = oracle.simulate(random_circuit(rng, 4, 20))
            assert abs(np.linalg.norm(st) - 1) < 1e-10

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            oracle.simulate(Circuit(15))

    def test_bad_initial(self):
        with pytest.raises(InvalidArgumentError):
            oracle.simulate(Circuit(3), "01")


class TestGateMatrix:
    def test_x_single_qubit(self):
        assert np.array_equal(oracle.gate_matrix(x(0), 1), np.array([[0, 1], [1, 0]]))

    def test_controlled_s_two_qubits(self):
        got = oracle.gate_matrix(cp(math.pi / 2, 1, 0), 2)
        assert np.max(np.abs(got - np.diag([1, 1, 1, 1j]))) < 1e-12

    def test_hadamard_kron_placement(self):
        H = np.array([[S2, S2], [S2, -S2]])
        got = oracle.gate_matrix(h(2), 3)
        assert np.max(np.abs(got - np.kron(H, np.eye(4)))) < 1e-12

    def test_every_kind_is_unitary(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_circuit(rng, 3, 1).gates[0]
            u = oracle.gate_matrix(g, 3)
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            oracle.gate_matrix(h(0), 9)


class TestCompareStates:
    def test_identical(self):
        st = oracle.simulate(ghz(3))
        assert oracle.compare_states(st, st) == 0

    def test_global_phase_flag(self):
        st = oracle.simulate(ghz(3))
        flipped = -st
        assert oracle.compare_states(st, flipped, up_to_global_phase=True) < 1e-15
        assert oracle.compare_states(st, flipped) == pytest.approx(2 * np.max(np.abs(st)))

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            oracle.compare_states(np.zeros(4), np.zeros(8))


class TestHelpers:
    def test_circuit_unitary_matches_gate_product(self):
        c = qft(3)
        u = oracle.circuit_unitary(c)
        prod = np.eye(8, dtype=complex)
        for g in c.gates:
            prod = oracle.gate_matrix(g, 3) @ prod
        assert np.max(np.abs(u - prod)) < 1e-10
