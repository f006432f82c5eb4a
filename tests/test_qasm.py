import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddpath import emit_qasm, parse_qasm, qft, transpile
from ddpath.errors import QasmError

from helpers import random_circuit, reference_parse_qasm

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
                "h q[0];\nmeasure q[1] -> c[1];\nmeasure q -> c;\nbarrier q;\n"
                "barrier q[0],q[1];\nx q[1];\n")
        for parse in (parse_qasm, reference_parse_qasm):
            c = parse(text)
            assert c.num_qubits == 2 and [g.kind for g in c.gates] == ["h", "x"]

    @pytest.mark.parametrize("stmt", [
        "measure q[9] -> c[0];", "barrier r[0];", "creg c[1];", "measure q[0] -> d[0];",
        "measure q -> c[0];", "measure q[0] -> c;", "barrier;", "creg d[0];",
    ])
    def test_bad_checked_statement_names_its_line(self, stmt):
        with pytest.raises(QasmError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n" + stmt + "\nx q[1];\n")
        assert exc.value.line == 5

    @pytest.mark.parametrize("stmt", ["include 42 x y;", "include;", 'include "";',
                                      "include qelib1.inc;", 'include "a" "b";'])
    def test_malformed_include_names_its_line(self, stmt):
        for parse in (parse_qasm, reference_parse_qasm):
            with pytest.raises(QasmError) as exc:
                parse("OPENQASM 2.0;\nqreg q[1];\n" + stmt + "\nh q[0];\n")
            assert exc.value.line == 3

    def test_u1_and_cu1_aliases(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nu1(pi/8) q[0];\ncu1(pi/8) q[0],q[1];\n")
        assert [g.kind for g in c.gates] == ["p", "cp"]
        assert c.gates[0].parameter == pytest.approx(math.pi / 8)

    def test_multiline_statement(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncp(pi/2)\n  q[0],\n  q[1];\n")
        assert c.gates[0].kind == "cp"

    @pytest.mark.parametrize("text", [
        "OPENQASM 2.0;\nqreg q[2];\nh\nq[0];\n",
        "OPENQASM 2.0;\nqreg\nq[2];\nh q[0];\n",
        "OPENQASM\n2.0;\nqreg q[2];\nh q[0];\n",
    ])
    def test_line_break_separates_tokens(self, text):
        assert parse_qasm(text) == parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")

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


def _outcome(parse, text):
    """``(num_qubits, gates)`` of the parsed text, or the line of its error."""
    try:
        c = parse(text)
    except QasmError as exc:
        return ("error", exc.line)
    return (c.num_qubits, c.gates)


def _noisy(rng: random.Random, text: str) -> str:
    """``text`` with extra spaces, blank lines, ``//`` comments and
    statements broken after commas.  Tokens stay apart by more than a
    line break alone, which the reference parser would glue together."""
    out = []
    for stmt in text.splitlines():
        if rng.random() < 0.3:
            out.append("")
        if rng.random() < 0.2:
            out.append(rng.choice(["// note", "  // h q[0];", "//x;y,z"]))
        stmt = stmt.replace(" ", rng.choice([" ", "  ", "\t"]), 1)
        stmt = stmt.replace("(", rng.choice(["(", " ( ", "( "]))
        stmt = stmt.replace(",", rng.choice([",", ", ", ",\n", ", \n  ", ", // c\n"]))
        stmt = stmt.replace(";", rng.choice([";", " ;", "; // end"]))
        out.append(rng.choice(["", "  ", "\t"]) + stmt)
    return "\n".join(out) + rng.choice(["", "\n", "\n\n"])


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one to three characters deleted or inserted; no line
    break is inserted."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice("();,[]q0 /.-xp") + text[at:]
    return text


_HEAD = "OPENQASM 2.0;\nqreg q[2];\n"
BAD_INPUTS = [
    "", "OPENQASM 3.0;", "qreg q[1];\nh q[0];", "OPENQASM 2.0;", "OPENQASM 2.0;\nh q[0];",
    "OPENQASM 2.0;\nqreg q[0];", "OPENQASM 2.0;\nqreg q;", "OPENQASM 2.0;\nqreg(2) q[2];",
    _HEAD + "qreg r[1];", _HEAD + "foo q[0];", _HEAD + "u q[0];", _HEAD + "u(0.5) q[0];",
    _HEAD + "h(0.5) q[0];", _HEAD + "p q[0];", _HEAD + "p() q[0];", _HEAD + "cp(pi,pi) q[0],q[1];",
    _HEAD + "p(pi/0) q[0];", _HEAD + "p((pi) q[0];", _HEAD + "p(pi)) q[0];", _HEAD + "p(pi q[0];",
    _HEAD + "p(1e400) q[0];", _HEAD + "cx q[0];", _HEAD + "cx q[0],q[0];",
    _HEAD + "swap q[1],q[1];", _HEAD + "cu1(pi) q[0];", _HEAD + "h r[0];", _HEAD + "h q[5];",
    _HEAD + "h q0;", _HEAD + "h q[-1];", _HEAD + "h q[1.5];", _HEAD + "h q[0],q[1];",
    _HEAD + "cx q[0] q[1];", _HEAD + "3 q[0];", _HEAD + "[0];", _HEAD + "h q[0]\nx q[1];",
    _HEAD + "h q[0];;\n\n  x q[1]  // c\n;", _HEAD + "h() q[0];", _HEAD + "h q[0]",
    _HEAD + "measure q[0] -> c[0];\nbarrier q;", "// c\n\nOPENQASM 2;\nqreg q[1];\nx q[1];",
    _HEAD + "creg c[0];", _HEAD + "creg q[1];", _HEAD + "creg c[1];\ncreg c[2];",
    _HEAD + "creg c;", _HEAD + "creg c[3];\nmeasure q -> c;", _HEAD + "creg c[2];\nbarrier;",
    _HEAD + "creg c[2];\nmeasure q[0] -> c;", _HEAD + "creg c[2];\nmeasure q[0] c[0];",
    _HEAD + "creg c[2];\nmeasure q[0] -> c[0] -> c[1];", _HEAD + "barrier q[0],,q[1];",
    "OPENQASM 2.0;\ncreg q[2];\nqreg q[2];", "OPENQASM 2.0;\nbarrier q;\nqreg q[2];",
    _HEAD + "include 42 x y;", _HEAD + "include;", 'OPENQASM 2.0;\ninclude "x;\nqreg q[1];',
]


class TestAgainstReference:
    """The one-pass parser against the per-character reference parser:
    equal gates, or a QasmError on the same line."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_texts(self, seed):
        rng = random.Random(seed)
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 15),
                           allow_u=False, allow_controls=False)
        text = emit_qasm(c)
        noisy = _noisy(rng, text)
        for t in (text, noisy):
            assert _outcome(parse_qasm, t) == _outcome(reference_parse_qasm, t) \
                == (c.num_qubits, c.gates)
        for _ in range(25):
            bad = _mutated(rng, rng.choice((text, noisy)))
            assert _outcome(parse_qasm, bad) == _outcome(reference_parse_qasm, bad), bad

    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_bad_inputs(self, text):
        assert _outcome(parse_qasm, text) == _outcome(reference_parse_qasm, text)

    @pytest.mark.parametrize("circuit", [qft(32), transpile(qft(32))], ids=["qft", "transpiled"])
    def test_benchmark_texts(self, circuit):
        # the two texts the miter-heuristic workload parses
        text = emit_qasm(circuit)
        assert parse_qasm(text).gates == reference_parse_qasm(text).gates == circuit.gates
