import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddpath import emit_qasm, parse_qasm, qft
from ddpath.errors import QasmError

from helpers import random_circuit

QFT3 = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cp(pi/2) q[1],q[0];
cp(pi/4) q[2],q[0];
h q[1];
cp(pi/2) q[2],q[1];
h q[2];
swap q[0],q[2];
"""


class TestParse:
    def test_qft3_program(self):
        c = parse_qasm(QFT3)
        assert c.num_qubits == 3
        assert c.gates == qft(3).gates
        kinds = [g.kind for g in c.gates]
        assert kinds.count("h") == 3 and kinds.count("cp") == 3 and kinds.count("swap") == 1

    def test_header_and_qreg_only(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[4];\n")
        assert c.num_qubits == 4 and c.gates == ()

    def test_unknown_gate_names_offender(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
        assert "foo" in str(exc.value)
        assert exc.value.line == 3

    def test_missing_header(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nh q[0];\n")

    def test_two_qregs_rejected(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nqreg r[1];\n")
        assert exc.value.line == 3

    def test_index_overflow_names_line(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[5];\n")
        assert exc.value.line == 4

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n")

    def test_wrong_parameter_count(self):
        with pytest.raises(QasmError):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh(0.5) q[0];\n")

    def test_ignored_statements(self):
        text = ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
                "h q[0];\nbarrier q[0],q[1];\nmeasure q[0] -> c[0];\n")
        c = parse_qasm(text)
        assert [g.kind for g in c.gates] == ["h"]

    def test_u1_and_cu1_aliases(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nu1(pi/8) q[0];\ncu1(pi/8) q[0],q[1];\n")
        assert [g.kind for g in c.gates] == ["p", "cp"]
        assert c.gates[0].parameter == pytest.approx(math.pi / 8)

    def test_multiline_statement(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncp(pi/2)\n  q[0],\n  q[1];\n")
        assert c.gates[0].kind == "cp"

    @pytest.mark.parametrize("expr,value", [
        ("pi/2", math.pi / 2),
        ("3*pi/4", 3 * math.pi / 4),
        ("-pi", -math.pi),
        ("(pi+pi)/4", math.pi / 2),
        ("0.5", 0.5),
        ("2e-1", 0.2),
        ("1/2*pi", math.pi / 2),
        ("--1", 1.0),
    ])
    def test_angle_expressions(self, expr, value):
        c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\np({expr}) q[0];\n")
        assert c.gates[0].parameter == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("expr", [
        "pi pi", "1+", "(pi", "1/0", "foo",
        pytest.param("(" * 3000 + "1" + ")" * 3000, id="nested-parens"),
        pytest.param("-" * 5000 + "1", id="nested-signs"),
        pytest.param("1e400", id="overflow"),
        pytest.param("1e400-1e400", id="inf-minus-inf"),
    ])
    def test_bad_angle_expressions(self, expr):
        with pytest.raises(QasmError) as exc:
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\np({expr}) q[0];\n")
        assert exc.value.line == 3


class TestRoundTrip:
    def test_qft3_round_trip(self):
        c = qft(3)
        assert parse_qasm(emit_qasm(c)).gates == c.gates

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(1, 5), st.integers(0, 15))
    def test_random_circuits_round_trip(self, seed, n, depth):
        rng = random.Random(seed)
        c = random_circuit(rng, n, depth, allow_u=False, allow_controls=False)
        again = parse_qasm(emit_qasm(c))
        assert again.num_qubits == c.num_qubits
        assert again.gates == c.gates

    def test_unrepresentable_gate_rejected(self):
        from ddpath.circuit import Circuit, Gate
        c = Circuit(1, (Gate("u", (0,), matrix=(1, 0, 0, 1)),))
        with pytest.raises(QasmError):
            emit_qasm(c)
