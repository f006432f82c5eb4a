"""OpenQASM 2.0 subset: parser and emitter.

The gate names are the kinds of ``gates.ALL_KINDS`` except ``u``, whose
explicit matrix has no QASM spelling, plus the aliases ``u1`` (``p``) and
``cu1`` (``cp``); a two-qubit gate lists its control first.  A statement
ends at ``;``, any whitespace (line breaks included) separates tokens, and
``//`` starts a comment that runs to the end of the line.  Angles are
finite expressions over numbers and ``pi`` using + - * /, unary signs and
parentheses.  A program opens with the ``OPENQASM 2.0`` header and declares
one ``qreg``.  ``include``, ``creg``, ``measure`` and ``barrier`` are
checked and then skipped: ``include "file"`` names one file in double
quotes; ``creg c[n]`` declares a new name with ``n >= 1``; ``measure a ->
b`` reads the qreg or one of its qubits into a creg or one of its bits,
both indexed or both whole registers of equal size; ``barrier`` lists the
qreg or its qubits, separated by commas.  Custom gate definitions, register
broadcast (``h q;``) and ``if`` are not supported.  Malformed input raises
``QasmError`` with the line of the statement's first character.
"""
from __future__ import annotations

import math
import re

from . import gates as _gates
from .circuit import Circuit, Gate
from .errors import InvalidArgumentError, QasmError

# QASM gate name -> gate kind
_KINDS = {kind: kind for kind in _gates.ALL_KINDS - {"u"}} | {"u1": "p", "cu1": "cp"}

_COMMENT_RE = re.compile(r"//[^\n]*")
_HEADER_RE = re.compile(r"OPENQASM\s+2(\.0)?")
# a declaration or a skipped statement: its keyword, then whitespace or nothing
_KEYWORD_RE = re.compile(r"(qreg|include|creg|measure|barrier)(?:\s+(.*))?", re.DOTALL)
# name [ "(" params ")" ] args
_STATEMENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(.*)", re.DOTALL)
# the argument of include: a file name in double quotes
_INCLUDE_RE = re.compile(r'"[^"]+"')
# a whole register or one of its bits
_ARG_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?")

_TOKEN_RE = re.compile(r"\s*(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?|pi|[()*/+-])")


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


def parse(text: str) -> Circuit:
    """Parse OpenQASM 2.0 subset source into a Circuit."""
    qreg: dict[str, int] = {}      # the one qreg: name -> size
    cregs: dict[str, int] = {}
    gates: list[Gate] = []
    saw_header = False
    line = 1
    for chunk in _COMMENT_RE.sub("", text).split(";"):
        stmt = chunk.lstrip()
        # a statement's line is the one its first character stands on
        start = line + chunk.count("\n", 0, len(chunk) - len(stmt))
        line += chunk.count("\n")
        stmt = stmt.rstrip()
        if not stmt:
            continue
        if not saw_header:
            if _HEADER_RE.fullmatch(stmt) is None:
                raise QasmError(f"expected OPENQASM 2.0 header, got {stmt!r}", start)
            saw_header = True
            continue
        k = _KEYWORD_RE.fullmatch(stmt)
        if k is None:
            gates.append(_parse_gate(stmt, start, qreg))
            continue
        keyword, rest = k.group(1), k.group(2) or ""
        if keyword == "include":
            if _INCLUDE_RE.fullmatch(rest) is None:
                raise QasmError(f'expected include "file", got {stmt!r}', start)
        elif keyword in ("qreg", "creg"):
            qm = _ARG_RE.fullmatch(rest)
            if qm is None or qm.group(2) is None:
                raise QasmError(f"malformed {keyword} declaration {stmt!r}", start)
            name, size = qm.group(1), int(qm.group(2))
            if keyword == "qreg" and qreg:
                raise QasmError("only one qreg is supported", start)
            if name in qreg or name in cregs:
                raise QasmError(f"register {name!r} is already declared", start)
            if size < 1:
                raise QasmError(f"{keyword} size must be >= 1", start)
            (qreg if keyword == "qreg" else cregs)[name] = size
        elif keyword == "measure":
            sides = rest.split("->")
            if len(sides) != 2:
                raise QasmError(f"malformed measure {stmt!r}", start)
            qname, qi = _register_arg(sides[0], qreg, start)
            cname, ci = _register_arg(sides[1], cregs, start)
            if (qi is None) != (ci is None) or qi is None and qreg[qname] != cregs[cname]:
                raise QasmError(
                    "measure needs two bits or two registers of equal size", start)
        elif keyword == "barrier":
            for arg in rest.split(","):
                _register_arg(arg, qreg, start)
    if not saw_header:
        raise QasmError("expected OPENQASM 2.0 header", 1)
    if not qreg:
        raise QasmError("no qreg declared", 1)
    (size,) = qreg.values()
    return Circuit(size, tuple(gates))


def _register_arg(arg: str, registers: dict[str, int], line: int) -> tuple[str, int | None]:
    """``(name, index)`` of a whole register of ``registers`` (index None)
    or of one of its bits."""
    m = _ARG_RE.fullmatch(arg.strip())
    if m is None:
        raise QasmError(f"expected a register or a bit like q[0], got {arg.strip()!r}", line)
    name, index = m.group(1), m.group(2)
    if name not in registers:
        raise QasmError(f"unknown register {name!r}", line)
    if index is None:
        return name, None
    if int(index) >= registers[name]:
        raise QasmError(
            f"index {index} out of range for register {name!r} of size {registers[name]}",
            line)
    return name, int(index)


def _parse_gate(stmt: str, line: int, qreg: dict[str, int]) -> Gate:
    if not qreg:
        raise QasmError("gate before qreg declaration", line)
    m = _STATEMENT_RE.fullmatch(stmt)
    if m is None:
        raise QasmError(f"malformed statement {stmt!r}", line)
    name, params, args = m.groups()
    kind = _KINDS.get(name)
    if kind is None:
        raise QasmError(f"unknown gate {name!r}", line)
    body = (params or "").strip()
    angles = [_ExprParser(p, line).parse() for p in body.split(",")] if body else []
    n_angles = 1 if kind in _gates.PARAMETERIZED else 0
    if len(angles) != n_angles:
        raise QasmError(
            f"gate {name!r} expects {n_angles} parameter(s), got {len(angles)}", line)
    qubits: list[int] = []
    for a in args.split(",") if args else []:
        _, idx = _register_arg(a, qreg, line)
        if idx is None:
            raise QasmError(f"register broadcast {a.strip()!r} is not supported", line)
        qubits.append(idx)
    n_qubits = 2 if kind in _gates.TWO_QUBIT_KINDS else 1
    if len(qubits) != n_qubits:
        raise QasmError(
            f"gate {name!r} expects {n_qubits} qubit(s), got {len(qubits)}", line)
    parameter = angles[0] if angles else None
    try:
        if kind in _gates.CONTROLLED_BASE:
            return Gate(kind, (qubits[1],), (qubits[0],), parameter)
        return Gate(kind, tuple(qubits), parameter=parameter)
    except InvalidArgumentError as exc:
        raise QasmError(str(exc), line)


def emit(c: Circuit) -> str:
    """Render a Circuit as OpenQASM 2.0 text that reparses gate-identically."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    for g in c.gates:
        lines.append(_emit_gate(g))
    return "\n".join(lines) + "\n"


def _emit_gate(g: Gate) -> str:
    if g.kind not in _KINDS:
        raise QasmError(f"gate kind {g.kind!r} has no QASM spelling")
    n_controls = 1 if g.kind in _gates.CONTROLLED_BASE else 0
    if len(g.controls) != n_controls:
        raise QasmError(f"cannot emit {g.kind} with {len(g.controls)} control(s)")
    qubits = ",".join(f"q[{q}]" for q in g.controls + g.targets)
    if g.parameter is not None:
        return f"{g.kind}({g.parameter!r}) {qubits};"
    return f"{g.kind} {qubits};"
