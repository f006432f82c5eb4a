"""OpenQASM 2.0 subset: parser and emitter.

Supported statements: the OPENQASM header, ``include`` (ignored), one
``qreg``, ``creg`` / ``measure`` / ``barrier`` (ignored), and gate
applications from the package gate alphabet with angle expressions over
numbers and ``pi`` using + - * / and parentheses.  No custom gate
definitions, no conditionals.
"""
from __future__ import annotations

import math
import re

from .circuit import Circuit, Gate
from .errors import QasmError

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

_TOKEN_RE = re.compile(r"\s*(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?|pi|[()*/+-])")

_QUBIT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")


class _ExprParser:
    """Recursive-descent evaluator for angle expressions."""

    def __init__(self, text: str, line: int):
        self.tokens: list[str] = []
        self.line = line
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise QasmError(f"bad angle expression {text!r}", line)
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise QasmError("unexpected end of angle expression", self.line)
        self.pos += 1
        return tok

    def parse(self) -> float:
        try:
            value = self.expr()
        except RecursionError:
            raise QasmError("angle expression nested too deeply", self.line) from None
        if self.peek() is not None:
            raise QasmError(f"trailing tokens in angle expression: {self.peek()!r}",
                            self.line)
        return value

    def expr(self) -> float:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.next() == "+":
                value += self.term()
            else:
                value -= self.term()
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() in ("*", "/"):
            if self.next() == "*":
                value *= self.factor()
            else:
                d = self.factor()
                if d == 0:
                    raise QasmError("division by zero in angle expression", self.line)
                value /= d
        return value

    def factor(self) -> float:
        tok = self.next()
        if tok == "-":
            return -self.factor()
        if tok == "+":
            return self.factor()
        if tok == "(":
            value = self.expr()
            if self.next() != ")":
                raise QasmError("missing ')' in angle expression", self.line)
            return value
        if tok == "pi":
            return math.pi
        if tok in ("*", "/", ")"):
            raise QasmError(f"unexpected {tok!r} in angle expression", self.line)
        try:
            return float(tok)
        except ValueError:
            raise QasmError(f"bad number {tok!r} in angle expression", self.line)


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


def parse(text: str) -> Circuit:
    """Parse OpenQASM 2.0 subset source into a Circuit."""
    qreg_name: str | None = None
    qreg_size = 0
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
            continue
        if head == "qreg":
            m = re.fullmatch(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]", stmt)
            if m is None:
                raise QasmError(f"malformed qreg declaration {stmt!r}", line)
            if qreg_name is not None:
                raise QasmError("only one qreg is supported", line)
            qreg_name = m.group(1)
            qreg_size = int(m.group(2))
            if qreg_size < 1:
                raise QasmError("qreg size must be >= 1", line)
            continue
        if head in ("creg", "measure", "barrier"):
            continue
        gates.append(_parse_gate(stmt, line, qreg_name, qreg_size))
    if not saw_header:
        raise QasmError("expected OPENQASM 2.0 header", 1)
    if qreg_name is None:
        raise QasmError("no qreg declared", 1)
    return Circuit(qreg_size, tuple(gates))


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


def emit(c: Circuit) -> str:
    """Render a Circuit as OpenQASM 2.0 text that reparses gate-identically."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    for g in c.gates:
        lines.append(_emit_gate(g))
    return "\n".join(lines) + "\n"


def _emit_gate(g: Gate) -> str:
    if g.kind == "u":
        raise QasmError("gate kind 'u' has no QASM spelling")
    if g.kind in ("cx", "cz", "cp"):
        if len(g.controls) != 1:
            raise QasmError(f"cannot emit {g.kind} with {len(g.controls)} controls")
        qubits = f"q[{g.controls[0]}],q[{g.targets[0]}]"
    elif g.kind == "swap":
        qubits = f"q[{g.targets[0]}],q[{g.targets[1]}]"
    else:
        if g.controls:
            raise QasmError(f"cannot emit controlled {g.kind}")
        qubits = f"q[{g.targets[0]}]"
    if g.parameter is not None:
        return f"{g.kind}({g.parameter!r}) {qubits};"
    return f"{g.kind} {qubits};"
