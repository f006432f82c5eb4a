"""Edge-weighted decision diagram kernel for quantum states and operators.

A vector diagram splits a 2^n amplitude vector in two per level (two successor
edges per node); an operator diagram splits a 2^n x 2^n matrix into quadrants
(four successors ordered 00, 01, 10, 11 by row/column bit of that level's
qubit).  Common factors are pulled out into complex edge weights, the
weights a node is keyed by are interned in a bucketed value table, and nodes
are hash-consed in unique tables, so any two construction orders of the same
quantity end at the same root node, with root weights equal up to rounding
(``root_equal``).  Qubit k lives at level k; level n-1 is the root / most
significant bit of a basis string.

Only values relative to a sibling are interned: a successor weight divided
by its node's norm, the ratio of two summands, a terminal sum and a
gate-matrix entry, all of magnitude about 1 or less.  There weights within
an absolute EPS = 1e-12 share a representative.  A root weight, the norm a
node passes up its incoming edge, shrinks like 2^(-n/2) and stays a plain
product, never interned.  The value table maps the bucket
``complex(kr, ki)``, the real and imaginary parts in units of EPS rounded to
integers, to that representative; a miss probes the eight neighbouring
buckets, unless the sets of occupied ``kr`` and occupied ``ki`` show that no
neighbour exists.  A unique table is keyed by the node's successor tuple,
which is also its ``edges``: terminal successors occur only at level 0 and
every other successor sits one level down, so the successors fix the level.

Sums and products are memoised in compute tables: plain dicts, exact per
kernel, keyed by operand nodes (and the weight ratio, for sums).  Every
``Kernel.gc`` sweep empties them together with the gate memo, so no entry
outlives a node it names, and sweeps the value table down to ZERO, ONE and
the successor weights of the nodes it keeps.

A ``Kernel`` instance is single-writer: serialize all operations against one
instance externally.  Distinct instances are fully independent and edges are
not transferable between them.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

import numpy as np

from . import gates as _gates
from .errors import InvalidArgumentError

EPS = 1e-12          # weight identification tolerance inside the value table
_INV_EPS = 1.0 / EPS
# magnitudes this close, relative to the larger, count as tied during
# normalization, so the choice of norm successor is stable under
# interning-level noise
_MAG_TOL = 4 * EPS
# bucket offsets probed, in order, when a value misses its own bucket
_NEIGHBOURS = tuple((dr, di) for dr in (-1, 0, 1) for di in (-1, 0, 1) if dr or di)


class Node:
    __slots__ = ("level", "edges", "uid", "ref")

    def __init__(self, level: int, edges: tuple, uid: int):
        self.level = level
        self.edges = edges
        self.uid = uid
        self.ref = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "v" if len(self.edges) == 2 else "m"
        return f"<{kind}node L{self.level} #{self.uid}>"


class Edge(NamedTuple):
    """Weighted reference into the DAG; ``node is None`` marks the terminal.

    A weight of exactly 0 with a ``None`` node is the zero stub; a nonzero
    weight with a ``None`` node is a terminal value (below level 0).
    """

    w: complex
    node: Node | None

    @property
    def is_zero(self) -> bool:
        return self.node is None and self.w == 0

    @property
    def num_qubits(self) -> int:
        return 0 if self.node is None else self.node.level + 1


# ``_edge((w, node))`` builds an Edge without the NamedTuple's Python-level
# ``__new__``; the hot paths below use it
_edge = functools.partial(tuple.__new__, Edge)


class Kernel:
    """One unique table / compute table / value table instance.

    The compute tables are exact memos that never drop an entry between two
    ``gc`` sweeps; each sweep empties them and the gate memo.
    """

    def __init__(self):
        self.ZERO = 0j
        self.ONE = 1 + 0j
        kr_one = round(_INV_EPS)
        # bucket complex(kr, ki) -> representative; the two sets hold every
        # kr and every ki that occurs in a bucket key
        self._values: dict[complex, complex] = {0j: self.ZERO, complex(kr_one, 0): self.ONE}
        self._occupied_re: set[int] = {0, kr_one}
        self._occupied_im: set[int] = {0}
        self.zero_edge = Edge(self.ZERO, None)
        self.one_terminal = Edge(self.ONE, None)
        self._vec_unique: dict = {}
        self._mat_unique: dict = {}
        self._uid = 0
        self._ct_mv: dict = {}
        self._ct_mm: dict = {}
        self._ct_add_v: dict = {}
        self._ct_add_m: dict = {}
        # canonical identity chain, indexed by level (shortcut in multiplication)
        self._ident: list[Node] = []
        # (gate diagram, its node count) by (kind, parameter, matrix,
        # controls, targets, n); emptied by gc, never a root
        self._gates: dict = {}

    # ------------------------------------------------------------------
    # value interning

    def intern(self, w: complex) -> complex:
        """Canonical representative for ``w``; values within EPS collapse.

        ``w`` falls in bucket ``(kr, ki)``, its parts in units of EPS rounded
        to integers.  A miss there probes the eight neighbouring buckets, but
        only when some neighbour row and some neighbour column are occupied;
        otherwise no neighbour exists and the probe is skipped.
        """
        re = w.real
        im = w.imag
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvalidArgumentError(f"non-finite edge weight {w!r}")
        kr = round(re * _INV_EPS)
        ki = round(im * _INV_EPS)
        table = self._values
        # kr and ki are integral floats, so complex(kr, ki) is exact; a
        # neighbour key complex(kr ± 1, ki) may round where |kr| > 2^53, but
        # there the float spacing of ``re`` exceeds EPS, so a value found
        # through a rounded key never passes the EPS test below
        key = complex(kr, ki)
        v = table.get(key)
        if v is not None:
            return v
        rows = self._occupied_re
        cols = self._occupied_im
        if (kr in rows or kr - 1 in rows or kr + 1 in rows) \
                and (ki in cols or ki - 1 in cols or ki + 1 in cols):
            for dr, di in _NEIGHBOURS:
                u = table.get(complex(kr + dr, ki + di))
                if u is not None and abs(u.real - re) <= EPS and abs(u.imag - im) <= EPS:
                    v = u
                    break
        if v is None:
            v = complex(re, im)
        table[key] = v
        rows.add(kr)
        cols.add(ki)
        return v

    def _scale(self, e: Edge, w: complex) -> Edge:
        """``w`` times edge ``e``, a plain product: the weight on an incoming
        edge is not interned."""
        if w == 1:
            return e
        if w == 0 or e.node is None and e.w == 0:
            return self.zero_edge
        if e.w == 1:
            return _edge((w, e.node))
        return _edge((e.w * w, e.node))

    # ------------------------------------------------------------------
    # node construction (normalization + hash consing)

    def _vnode(self, level: int, e0: Edge, e1: Edge) -> Edge:
        a0 = abs(e0.w)
        a1 = abs(e1.w)
        if a1 - a0 > _MAG_TOL * a0:
            norm = e1.w
            n0 = self._scale_succ(e0, norm)
            n1 = _edge((self.ONE, e1.node))
        elif a0 > 0.0:
            norm = e0.w
            n0 = _edge((self.ONE, e0.node))
            n1 = self._scale_succ(e1, norm)
        else:
            return self.zero_edge
        edges = (n0, n1)
        node = self._vec_unique.get(edges)
        if node is None:
            self._uid += 1
            node = Node(level, edges, self._uid)
            self._vec_unique[edges] = node
        return _edge((norm, node))

    def _mnode(self, level: int, e0: Edge, e1: Edge, e2: Edge, e3: Edge) -> Edge:
        edges = (e0, e1, e2, e3)
        mags = (abs(e0.w), abs(e1.w), abs(e2.w), abs(e3.w))
        mx = max(mags)
        if mx == 0.0:
            return self.zero_edge
        best = 0
        for i in (0, 1, 2, 3):
            if mags[i] >= mx - _MAG_TOL * mx:
                best = i
                break
        norm = edges[best].w
        out = tuple(
            _edge((self.ONE, e.node)) if i == best else self._scale_succ(e, norm)
            for i, e in enumerate(edges)
        )
        node = self._mat_unique.get(out)
        if node is None:
            self._uid += 1
            node = Node(level, out, self._uid)
            self._mat_unique[out] = node
        return _edge((norm, node))

    def _scale_succ(self, e: Edge, norm: complex) -> Edge:
        if e.node is None and e.w == 0:
            return self.zero_edge
        if e.w == norm:
            return _edge((self.ONE, e.node))
        w = self.intern(e.w / norm)
        if w == 0:
            return self.zero_edge
        return _edge((w, e.node))

    # ------------------------------------------------------------------
    # constructors

    def make_zero_state(self, n: int) -> Edge:
        if n < 1:
            raise InvalidArgumentError(f"qubit count must be >= 1, got {n}")
        e = self.one_terminal
        for level in range(n):
            e = self._vnode(level, e, self.zero_edge)
        return e

    def make_basis_state(self, bits: str) -> Edge:
        """Computational basis state from a most-significant-first bit string."""
        if not bits or any(c not in "01" for c in bits):
            raise InvalidArgumentError(f"invalid basis string {bits!r}")
        e = self.one_terminal
        for level in range(len(bits)):
            bit = bits[len(bits) - 1 - level]
            if bit == "0":
                e = self._vnode(level, e, self.zero_edge)
            else:
                e = self._vnode(level, self.zero_edge, e)
        return e

    def identity(self, n: int) -> Edge:
        """Identity operator diagram over ``n`` qubits (n nodes)."""
        if n < 1:
            raise InvalidArgumentError(f"qubit count must be >= 1, got {n}")
        ident = self._ident
        while len(ident) < n:
            ident.append(self._lift_node(len(ident), ident[-1] if ident else None))
        return Edge(self.ONE, ident[n - 1])

    def _terminal(self, value: complex) -> Edge:
        w = self.intern(value)
        return self.zero_edge if w == 0 else Edge(w, None)

    def make_gate(self, gate, n: int) -> Edge:
        """Operator diagram of ``gate`` extended to ``n`` qubits.

        ``gate`` needs fields kind / parameter / controls / targets (and
        matrix for kind "u").  Positive controls only.  Gate diagrams are
        memoised per kernel until the next ``gc``, which empties the memo.
        """
        return self._gate(gate, n)[0]

    def gate_node_count(self, gate, n: int) -> int:
        """``node_count(make_gate(gate, n))``, counted once per memo entry."""
        return self._gate(gate, n)[1]

    def _gate(self, gate, n: int) -> tuple[Edge, int]:
        targets = tuple(gate.targets)
        controls = tuple(gate.controls)
        matrix = getattr(gate, "matrix", None)
        key = (gate.kind, gate.parameter, matrix, controls, targets, n)
        entry = self._gates.get(key)
        if entry is not None:
            return entry
        used = targets + controls
        if len(set(used)) != len(used):
            raise InvalidArgumentError(f"duplicate qubit in gate {gate.kind}: {used}")
        for q in used:
            if not 0 <= q < n:
                raise InvalidArgumentError(f"qubit {q} out of range for {n} qubits")
        if gate.kind == "swap":
            if controls:
                raise InvalidArgumentError("controls on swap are not supported")
            e = self._swap(min(targets), max(targets), n)
        else:
            if len(targets) != 1:
                raise InvalidArgumentError(
                    f"gate {gate.kind} expects one target, got {targets}")
            mat = _gates.base_matrix(gate.kind, gate.parameter, matrix)
            e = self._controlled_single(mat, targets[0], controls, n)
        entry = self._gates[key] = (e, self.node_count(e))
        return entry

    def _controlled_single(self, mat, target: int, controls: tuple, n: int) -> Edge:
        cset = frozenset(controls)
        zero = self.zero_edge
        # below the lowest control under the target, each quadrant is a scaled
        # identity, which normalisation would reduce to the identity chain
        low = min((c for c in controls if c < target), default=target)
        below = self.identity(low).node if low > 0 else None
        em = []
        for x in mat:
            w = self.intern(x)
            em.append(zero if w == 0 else Edge(w, below))
        for level in range(low, target):
            if level in cset:
                # inactive control branch acts as the identity on lower levels,
                # which only the diagonal entry blocks pick up
                ident = self.identity(level) if level > 0 else self.one_terminal
                em[0] = self._mnode(level, ident, zero, zero, em[0])
                em[1] = self._mnode(level, zero, zero, zero, em[1])
                em[2] = self._mnode(level, zero, zero, zero, em[2])
                em[3] = self._mnode(level, ident, zero, zero, em[3])
            else:
                em = [self._lift(x, level, level + 1) for x in em]
        e = self._mnode(target, em[0], em[1], em[2], em[3])
        return self._lift(e, target + 1, n, cset)

    def _lift_node(self, level: int, node: Node | None) -> Node:
        """The identity-level node (ONE·node, 0, 0, ONE·node) at ``level``.

        For any nonzero ``e`` over ``node``, ``_mnode(level, e, 0, 0, e)``
        normalises to weight ``e.w`` over this node, so callers look it up
        here and carry the weight unchanged.
        """
        half = _edge((self.ONE, node))
        zero = self.zero_edge
        edges = (half, zero, zero, half)
        up = self._mat_unique.get(edges)
        if up is None:
            self._uid += 1
            up = Node(level, edges, self._uid)
            self._mat_unique[edges] = up
        return up

    def _lift(self, e: Edge, start: int, stop: int, cset=frozenset()) -> Edge:
        """Extend ``e`` from level ``start`` up to ``stop`` qubits; levels in
        ``cset`` are positive controls, the others act as the identity."""
        w, node = e
        if node is None and w == 0:
            return e
        zero = self.zero_edge
        for level in range(start, stop):
            if level in cset:
                w, node = self._mnode(level, self.identity(level), zero, zero, Edge(w, node))
            else:
                node = self._lift_node(level, node)
        return Edge(w, node)

    def _swap(self, a: int, b: int, n: int) -> Edge:
        """swap(a, b), a < b: quadrant (r, c) at level b is |c><r| on qubit a."""
        unit = self.identity(a) if a > 0 else self.one_terminal
        zero = self.zero_edge
        blocks = []
        for r in (0, 1):
            for c in (0, 1):
                succ = [zero] * 4
                succ[2 * c + r] = unit
                blocks.append(self._lift(self._mnode(a, *succ), a + 1, b))
        return self._lift(self._mnode(b, *blocks), b + 1, n)

    # ------------------------------------------------------------------
    # arithmetic

    def add(self, a: Edge, b: Edge) -> Edge:
        """Element-wise sum of two diagrams of the same kind and level."""
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.node is None or b.node is None:
            raise InvalidArgumentError("add needs two non-terminal edges")
        na, nb = len(a.node.edges), len(b.node.edges)
        if na != nb:
            raise InvalidArgumentError("cannot add a vector and a matrix diagram")
        if a.node.level != b.node.level:
            raise InvalidArgumentError(
                f"level mismatch in add: {a.node.level} vs {b.node.level}")
        cache = self._ct_add_v if na == 2 else self._ct_add_m
        return self._add(a, b, a.node.level, cache, na)

    def _add(self, a: Edge, b: Edge, level: int, cache: dict, nsucc: int) -> Edge:
        if a.node is None and a.w == 0:
            return b
        if b.node is None and b.w == 0:
            return a
        if level < 0:
            return self._terminal(a.w + b.w)
        if a.node.uid > b.node.uid:
            a, b = b, a
        ratio = b.w if a.w == 1 else self.intern(b.w / a.w)
        if ratio == 0:
            return a
        key = (a.node, b.node, ratio)
        r = cache.get(key)
        if r is None:
            an = a.node
            bn = b.node
            lo = level - 1
            parts = []
            for i in range(nsucc):
                eb = bn.edges[i]
                parts.append(self._add(an.edges[i], self._scale(eb, ratio), lo, cache, nsucc))
            if nsucc == 2:
                r = self._vnode(level, parts[0], parts[1])
            else:
                r = self._mnode(level, parts[0], parts[1], parts[2], parts[3])
            cache[key] = r
        return self._scale(r, a.w)

    def multiply_mv(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector product; both over the same qubit count."""
        if m.is_zero or v.is_zero:
            return self.zero_edge
        if m.node is None or len(m.node.edges) != 4:
            raise InvalidArgumentError("left operand must be a matrix diagram")
        if v.node is None or len(v.node.edges) != 2:
            raise InvalidArgumentError("right operand must be a vector diagram")
        if m.node.level != v.node.level:
            raise InvalidArgumentError(
                f"level mismatch in multiply: {m.node.level} vs {v.node.level}")
        return self._mul_mv(m, v, m.node.level)

    def _mul_mv(self, m: Edge, v: Edge, level: int) -> Edge:
        mw, mn = m
        vw, vn = v
        if (mn is None and mw == 0) or (vn is None and vw == 0):
            return self.zero_edge
        w = vw if mw == 1 else mw if vw == 1 else mw * vw
        if level < 0:
            return _edge((w, None))
        ident = self._ident
        if level < len(ident) and mn is ident[level]:
            return _edge((w, vn))
        key = (mn, vn)
        r = self._ct_mv.get(key)
        if r is None:
            me = mn.edges
            ve = vn.edges
            lo = level - 1
            zero = self.zero_edge
            if me[1] == zero and me[2] == zero:
                # block-diagonal diag(M0, M3): the two off-diagonal products
                # are zero and _add(x, zero) is x, so this is the general
                # case below without the calls that return at once
                r = self._vnode(level, self._mul_mv(me[0], ve[0], lo),
                                self._mul_mv(me[3], ve[1], lo))
            else:
                addc = self._ct_add_v
                r0 = self._add(self._mul_mv(me[0], ve[0], lo),
                               self._mul_mv(me[1], ve[1], lo), lo, addc, 2)
                r1 = self._add(self._mul_mv(me[2], ve[0], lo),
                               self._mul_mv(me[3], ve[1], lo), lo, addc, 2)
                r = self._vnode(level, r0, r1)
            self._ct_mv[key] = r
        return self._scale(r, w)

    def multiply_mm(self, a: Edge, b: Edge) -> Edge:
        """Matrix-matrix product ``a @ b``; both over the same qubit count."""
        if a.is_zero or b.is_zero:
            return self.zero_edge
        for e in (a, b):
            if e.node is None or len(e.node.edges) != 4:
                raise InvalidArgumentError("multiply_mm needs two matrix diagrams")
        if a.node.level != b.node.level:
            raise InvalidArgumentError(
                f"level mismatch in multiply: {a.node.level} vs {b.node.level}")
        return self._mul_mm(a, b, a.node.level)

    def _mul_mm(self, a: Edge, b: Edge, level: int) -> Edge:
        aw, an = a
        bw, bn = b
        if (an is None and aw == 0) or (bn is None and bw == 0):
            return self.zero_edge
        w = bw if aw == 1 else aw if bw == 1 else aw * bw
        if level < 0:
            return _edge((w, None))
        ident = self._ident[level] if level < len(self._ident) else None
        if an is ident:
            return _edge((w, bn))
        if bn is ident:
            return _edge((w, an))
        key = (an, bn)
        r = self._ct_mm.get(key)
        if r is None:
            ae = an.edges
            be = bn.edges
            lo = level - 1
            zero = self.zero_edge
            if ae[1] == zero and ae[2] == zero and ae[0] == ae[3] \
                    and be[1] == zero and be[2] == zero and be[0] == be[3]:
                # both are identity lifts diag(A, A) and diag(B, B): the
                # product is diag(x, x) with x = A·B, one sub-product instead
                # of eight.  _mnode(level, x, 0, 0, x) would pick x as the
                # norm (the first successor of largest magnitude), scale the
                # last successor to ONE, since its weight equals the norm, and
                # so return weight x.w over the lift node of x.node
                x = self._mul_mm(ae[0], be[0], lo)
                if x.node is None and x.w == 0:
                    r = zero
                else:
                    r = _edge((x.w, self._lift_node(level, x.node)))
            elif ae[1] == zero and ae[2] == zero:
                # a = diag(A0, A3): each quadrant keeps one of its two
                # products, in the order the general case computes them
                r = self._mnode(level, self._mul_mm(ae[0], be[0], lo),
                                self._mul_mm(ae[0], be[1], lo),
                                self._mul_mm(ae[3], be[2], lo),
                                self._mul_mm(ae[3], be[3], lo))
            elif be[1] == zero and be[2] == zero:
                # b = diag(B0, B3), likewise
                r = self._mnode(level, self._mul_mm(ae[0], be[0], lo),
                                self._mul_mm(ae[1], be[3], lo),
                                self._mul_mm(ae[2], be[0], lo),
                                self._mul_mm(ae[3], be[3], lo))
            else:
                addc = self._ct_add_m
                parts = []
                for row in (0, 2):
                    for col in (0, 1):
                        parts.append(self._add(
                            self._mul_mm(ae[row], be[col], lo),
                            self._mul_mm(ae[row + 1], be[col + 2], lo),
                            lo, addc, 4))
                r = self._mnode(level, parts[0], parts[1], parts[2], parts[3])
            self._ct_mm[key] = r
        return self._scale(r, w)

    # ------------------------------------------------------------------
    # queries

    def amplitude(self, v: Edge, bits: str) -> complex:
        """Amplitude of the basis state ``bits`` (most significant bit first)."""
        if v.node is None:
            if v.w == 0:
                return 0j
            raise InvalidArgumentError("terminal edge has no amplitudes")
        n = v.node.level + 1
        if len(bits) != n or any(c not in "01" for c in bits):
            raise InvalidArgumentError(
                f"basis string {bits!r} does not address {n} qubits")
        if len(v.node.edges) != 2:
            raise InvalidArgumentError("amplitude extraction needs a vector diagram")
        w = v.w
        node = v.node
        for c in bits:
            e = node.edges[1 if c == "1" else 0]
            w *= e.w
            if w == 0:
                return 0j
            node = e.node
        return complex(w)

    def node_count(self, e: Edge) -> int:
        """Distinct non-terminal nodes reachable from ``e``."""
        return len(self._reachable(e))

    def _reachable(self, e: Edge) -> set:
        root = e.node
        if root is None:
            return set()
        seen = {root}
        stack = [root]
        while stack:
            for s in stack.pop().edges:
                x = s.node
                if x is not None and x not in seen:
                    seen.add(x)
                    stack.append(x)
        return seen

    def inner_product(self, a: Edge, b: Edge) -> complex:
        """Hermitian inner product <a|b> of two vector diagrams."""
        if a.is_zero or b.is_zero:
            return 0j
        for e in (a, b):
            if e.node is None or len(e.node.edges) != 2:
                raise InvalidArgumentError("inner_product needs two vector diagrams")
        if a.node.level != b.node.level:
            raise InvalidArgumentError(
                f"level mismatch in inner_product: {a.node.level} vs {b.node.level}")
        return self._inner(a, b, a.node.level, {})

    def _inner(self, ea: Edge, eb: Edge, level: int, memo: dict) -> complex:
        # a method, not a nested closure: a closure that calls itself is a
        # reference cycle, left for the cyclic collector with its memo
        if (ea.node is None and ea.w == 0) or (eb.node is None and eb.w == 0):
            return 0j
        if level < 0:
            return ea.w.conjugate() * eb.w
        key = (ea.node, eb.node)
        s = memo.get(key)
        if s is None:
            sa = ea.node.edges
            sb = eb.node.edges
            lo = level - 1
            s = self._inner(sa[0], sb[0], lo, memo) + self._inner(sa[1], sb[1], lo, memo)
            memo[key] = s
        return ea.w.conjugate() * eb.w * s

    def signature(self, e: Edge):
        """Kernel-independent structural fingerprint (for cross-instance
        equality), built level by level from the bottom rather than by
        recursion: every successor of a node sits one level lower."""
        memo: dict = {None: None}
        for node in sorted(self._reachable(e), key=lambda x: x.level):
            memo[node] = (node.level,
                          tuple((x.w.real, x.w.imag, memo[x.node]) for x in node.edges))
        return (e.w.real, e.w.imag, memo[e.node])

    # ------------------------------------------------------------------
    # dense reconstruction (n must stay small; intended for checks and export)

    def to_vector(self, e: Edge, n: int | None = None) -> np.ndarray:
        if e.node is None:
            if e.w == 0:
                if n is None:
                    raise InvalidArgumentError("zero edge needs an explicit qubit count")
                return np.zeros(1 << n, dtype=complex)
            return np.array([e.w], dtype=complex)
        memo: dict = {}

        def sub(edge: Edge, size: int) -> np.ndarray:
            if edge.node is None:
                if edge.w == 0:
                    return np.zeros(size, dtype=complex)
                return np.array([edge.w], dtype=complex)
            return edge.w * arr(edge.node)

        def arr(node) -> np.ndarray:
            a = memo.get(node)
            if a is None:
                half = 1 << node.level
                a = np.concatenate([sub(node.edges[0], half), sub(node.edges[1], half)])
                memo[node] = a
            return a

        return e.w * arr(e.node)

    def to_matrix(self, e: Edge, n: int | None = None) -> np.ndarray:
        if e.node is None:
            if e.w == 0:
                if n is None:
                    raise InvalidArgumentError("zero edge needs an explicit qubit count")
                dim = 1 << n
                return np.zeros((dim, dim), dtype=complex)
            return np.array([[e.w]], dtype=complex)
        memo: dict = {}

        def sub(edge: Edge, size: int) -> np.ndarray:
            if edge.node is None:
                if edge.w == 0:
                    return np.zeros((size, size), dtype=complex)
                return np.array([[edge.w]], dtype=complex)
            return edge.w * arr(edge.node)

        def arr(node) -> np.ndarray:
            a = memo.get(node)
            if a is None:
                half = 1 << node.level
                s = node.edges
                a = np.block([[sub(s[0], half), sub(s[1], half)],
                              [sub(s[2], half), sub(s[3], half)]])
                memo[node] = a
            return a

        return e.w * arr(e.node)

    # ------------------------------------------------------------------
    # memory management

    def inc_ref(self, e: Edge) -> None:
        if e.node is not None:
            e.node.ref += 1

    def dec_ref(self, e: Edge) -> None:
        if e.node is not None and e.node.ref > 0:
            e.node.ref -= 1

    @property
    def unique_size(self) -> int:
        return len(self._vec_unique) + len(self._mat_unique)

    def gc(self, roots: Iterable[Edge] = ()) -> int:
        """Sweep nodes unreachable from ``roots`` and externally ref'd nodes.

        The compute tables and the gate memo are emptied wholesale, since
        their entries may name swept nodes.  The value table keeps the
        buckets whose representative is ZERO, ONE or a successor weight of a
        kept node, so every weight a kept node holds still interns to
        itself; root weights are plain products and need no bucket.
        """
        marked: set = set()
        live = {self.ZERO, self.ONE}
        stack = [e.node for e in roots if e.node is not None]
        for table in (self._vec_unique, self._mat_unique):
            for node in table.values():
                if node.ref > 0:
                    stack.append(node)
        while stack:
            node = stack.pop()
            if node in marked:
                continue
            marked.add(node)
            for s in node.edges:
                live.add(s.w)
                if s.node is not None and s.node not in marked:
                    stack.append(s.node)
        removed = 0
        for name in ("_vec_unique", "_mat_unique"):
            table = getattr(self, name)
            kept = {k: v for k, v in table.items() if v in marked}
            removed += len(table) - len(kept)
            setattr(self, name, kept)
        self._sweep_values(live)
        self._ct_mv.clear()
        self._ct_mm.clear()
        self._ct_add_v.clear()
        self._ct_add_m.clear()
        self._gates.clear()
        keep = 0
        for node in self._ident:
            if node in marked:
                keep += 1
            else:
                break
        del self._ident[keep:]
        return removed

    def _sweep_values(self, live: set) -> None:
        """Keep the buckets whose representative is in ``live``."""
        self._values = values = {k: v for k, v in self._values.items() if v in live}
        self._occupied_re = {int(k.real) for k in values}
        self._occupied_im = {int(k.imag) for k in values}

    # ------------------------------------------------------------------
    # export

    def to_dot(self, e: Edge) -> str:
        """Graphviz rendering of a diagram; layout is best-effort only."""
        lines = ["digraph dd {", "  rankdir=TB;", '  root [shape=point, label=""];']
        if e.node is None:
            lines.append('  t [shape=box, label="1"];')
            if e.w == 0:
                lines.append("  z0 [shape=point, style=filled];")
                lines.append("  root -> z0;")
            else:
                lines.append(f'  root -> t [label="{_fmt_weight(e.w)}"];')
            lines.append("}")
            return "\n".join(lines)
        order: list = []
        seen = set()

        def visit(node):
            if node in seen:
                return
            seen.add(node)
            order.append(node)
            for s in node.edges:
                if s.node is not None:
                    visit(s.node)

        visit(e.node)
        names = {node: f"n{i}" for i, node in enumerate(order)}
        lines.append('  t [shape=box, label="1"];')
        lines.append(f'  root -> n0 [label="{_fmt_weight(e.w)}"];')
        stub = 0
        for node in order:
            lines.append(f'  {names[node]} [shape=circle, label="{node.level}"];')
            for i, s in enumerate(node.edges):
                if s.node is None and s.w == 0:
                    lines.append(f"  z{stub} [shape=point, style=filled];")
                    lines.append(f'  {names[node]} -> z{stub} [label="{i}"];')
                    stub += 1
                elif s.node is None:
                    lines.append(
                        f'  {names[node]} -> t [label="{i}: {_fmt_weight(s.w)}"];')
                else:
                    lines.append(
                        f'  {names[node]} -> {names[s.node]} [label="{i}: {_fmt_weight(s.w)}"];')
        lines.append("}")
        return "\n".join(lines)


def _fmt_weight(w: complex) -> str:
    if w.imag == 0:
        return f"{w.real:.4g}"
    if w.real == 0:
        return f"{w.imag:.4g}i"
    sign = "+" if w.imag > 0 else "-"
    return f"{w.real:.4g}{sign}{abs(w.imag):.4g}i"


def root_equal(a: Edge, b: Edge) -> bool:
    """Same-kernel identity check: the same node object, and root weights
    (plain products, not interned) within EPS relative to the larger one."""
    return a.node is b.node and abs(a.w - b.w) <= EPS * max(abs(a.w), abs(b.w))
