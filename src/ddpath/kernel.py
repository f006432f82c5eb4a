"""Edge-weighted decision diagram kernel for quantum states and operators.

A vector diagram splits a 2^n amplitude vector in two per level (two successor
edges per node); an operator diagram splits a 2^n x 2^n matrix into quadrants
(four successors ordered 00, 01, 10, 11 by row/column bit of that level's
qubit).  Common factors are pulled out into complex edge weights, the
weights a node is keyed by are interned in a bucketed value table, and nodes
are hash-consed in one unique table, so any two construction orders of the same
quantity end at the same root node, with root weights equal up to rounding
(``root_equal``).  Qubit k lives at level k; level n-1 is the root / most
significant bit of a basis string.

Operator diagrams are fully reduced: a node whose normalised successors are
``(ONE·x, 0, 0, ONE·x)`` is never stored, its incoming edge goes straight to
``x``, and every level an edge skips acts as the identity.  A scaled
identity is therefore a terminal edge ``(w, None)`` at any level, and a gate
diagram has nodes only at its target, control and swap levels.  Vector
diagrams keep a node on every level.  ``node_count(e, n)`` counts the
explicit form, where each skipped level is one identity node, so counts do
not depend on the reduction; ``to_matrix(e, n)`` expands skipped levels.

Only values relative to a sibling go through the value table, all of
magnitude about 1 or less; there weights within an absolute EPS = 1e-12
share a representative.  Two kinds are stored (``intern``): a successor
weight divided by its node's norm, and a gate-matrix entry.  Sums only read
the table (``lookup``): the ratio of two summands and one plus the ratio of
two scalar or scaled-identity summands take the stored representative
within EPS, else keep their own value.  A ratio that keys a sum's memo
entry and misses takes instead the first value of its bucket in the running
product, from a ratio table that lives as long as the compute table, so keys
that differ only in the last bits still meet.  A root weight, the norm a
node passes up its incoming edge, shrinks like 2^(-n/2) and stays a plain
product, never looked up.  Two scalars sum by the same relative rule, as
``a · (1 + b/a)``, so a sum below EPS is kept unless it vanishes relative
to its summands.  The value table maps the bucket ``complex(kr, ki)``, the
real and imaginary parts in units of EPS rounded to integers (ties to
even), to that representative; a miss probes the eight neighbouring
buckets, unless two byte maps show that no neighbour exists.  Byte
``kr & mask`` of the row map and ``ki & mask`` of the column map are set
for every key, so three zero bytes around ``kr`` (or ``ki``) prove that
no neighbouring row (column) is occupied; a set byte may be a collision,
and then the probe runs.  The maps hold a power of two bytes, at least 8
per key and at least 4096; they grow 2x when the table outgrows them, so
above 4096 bytes they hold at most 16 per key, and are rebuilt from the
keys then and after every sweep.

A node keeps its successors in one flat tuple ``succ``, weight then node
per edge: ``(w0, x0, w1, x1)`` for a vector node, eight items for an
operator node.  The unique table keys a vector node by ``succ`` itself:
terminal successors occur only at level 0 and every other successor sits
one level down, so the successors fix the level.  Operator successors may
sit at any lower level, so it keys an operator node by ``(level, succ)``.
The keys have four and two items, so the two kinds never share one.

Sums and products are memoised in one compute table, a plain dict, exact
per kernel, keyed by operand nodes: a product by its two nodes, a sum by
its two nodes and the weight ratio.  The keys differ in length, and vector
and operator nodes are distinct objects, so one table serves every kind.
It lives for one public product, together with the ratio table:
``multiply_mv`` and ``multiply_mm`` empty both when they return or raise,
since a later product rarely hits their entries, so no compute entry
outlives the product that made it.  Gate diagrams are memoised apart, until
the next ``Kernel.gc`` sweep, which empties that memo, so no entry outlives
a node it names, and sweeps the value table down to ZERO, ONE and the
successor weights of the nodes it keeps.  Between sweeps the value table
holds only ZERO, ONE, gate-matrix entries and successor weights of stored
nodes.

Where an operator has off-diagonal blocks, a matrix-vector product forms
each half as a two-term sum ``a·x + b·y`` in one recursion (``_mac``),
which builds only the nodes of the sum and not those of the two products.
The compute table memoises these sums too, keyed by the four operand nodes
and the ratio of the two terms' weights; a five-item key never equals the
two-item key of a product or the three-item key of a plain sum.

A matrix-vector product skips the table where no key can recur.  A vector
diagram of 2^n - 1 nodes is a complete binary tree, so none of its nodes is
shared; if no node of the operator is reached by two edges either, every
key of ``_mul_mv``, ``_mac`` and of ``_add`` on operand subtrees names
operand nodes reached by one path each, and the recursion makes the same
calls in the same order without the table.  ``_mac_quadrants``' fallback
for dense operators, the sum of two full products (``_sum_of_products``),
still memoises: the two products may share nodes, and once a dense block
is split into products, its rows may pair the same two state subtrees.
``_ratio`` still canonicalises the ratios.  The shapes come from a cache
that ``node_count`` fills and ``gc`` empties: a vector root's node count,
counted level by level, and whether an operator root is a tree.  An
operand the cache has not seen counts as shared.

A walk over a diagram is a method that recurses, a loop over an explicit
stack, or a loop over ``_reachable``'s nodes sorted by level, which puts
every successor before its node (``signature``, ``to_vector``,
``to_matrix``).  No nested function calls itself: such a closure is a
reference cycle that keeps its memo alive until Python's cyclic collector
runs.

Inside the kernel an edge is a plain ``(weight, node)`` tuple, read by
unpacking: the results of the recursions, the compute-table entries and the
candidate successors of a node are all plain pairs, and a stored node's
successors are read as slices of ``succ``.  ``Edge``, the one public type,
is built only where an edge leaves the kernel: the gate memo, and the
edges ``make_zero_state``, ``make_basis_state``, ``make_gate``,
``multiply_mv`` and ``multiply_mm`` return.  ``node.edges`` is a view for
callers outside the kernel, a tuple of ``Edge``s built from ``succ`` on
each read; nothing in the package reads it.  The public readers take any
``(weight, node)`` pair.

A ``Kernel`` instance is single-writer: serialize all operations against one
instance externally.  Distinct instances are fully independent and edges are
not transferable between them.
"""
from __future__ import annotations

import functools
import itertools
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
# for |x| < 2^51, (x + _ROUNDER) - _ROUNDER is round(x), ties to even: the
# sum lies in [2^52, 2^53), where the float spacing is 1
_ROUNDER = 1.5 * 2.0 ** 52
_ROUND_LIMIT = 2.0 ** 51
# smallest size of the occupancy byte maps
_MAP_MIN = 4096


class Node:
    """A stored node.  ``succ`` is the flat tuple of its successor edges,
    weight then node per edge: ``(w0, x0, w1, x1)`` for a vector node,
    eight items for an operator node."""

    __slots__ = ("level", "succ", "uid", "ref")

    def __init__(self, level: int, succ: tuple, uid: int):
        self.level = level
        self.succ = succ
        self.uid = uid
        self.ref = 0

    @property
    def edges(self) -> tuple:
        """The successors as ``Edge``s, built on each read, for callers
        outside the kernel."""
        return tuple(_edge(pair) for pair in _pairs(self.succ))

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "v" if len(self.succ) == 4 else "m"
        return f"<{kind}node L{self.level} #{self.uid}>"


def _pairs(succ: tuple):
    """The ``(weight, node)`` pairs of a flat successor tuple."""
    it = iter(succ)
    return zip(it, it)


class Edge(NamedTuple):
    """Weighted reference into the DAG; ``node is None`` marks the terminal.

    A weight of exactly 0 with a ``None`` node is the zero stub; a nonzero
    weight with a ``None`` node is a terminal value: a scalar below level 0,
    and for an operator edge that scalar times the identity on every level
    it skips.

    The kernel builds an ``Edge`` only where it returns one, in its gate
    memo and for ``Node.edges`` (see the module docstring); inside its
    recursions an edge is a plain ``(w, node)`` tuple, which hashes and
    compares equal to the ``Edge`` with the same items.
    """

    w: complex
    node: Node | None

    @property
    def num_qubits(self) -> int:
        """Qubits of a vector edge; for an operator edge, the levels up to
        its node, above which it acts as the identity."""
        return 0 if self.node is None else self.node.level + 1


# ``_edge((w, node))`` builds an Edge without the NamedTuple's Python-level
# ``__new__``; the kernel uses it where it keeps or returns an edge
_edge = functools.partial(tuple.__new__, Edge)


class Kernel:
    """One unique table, for vector and operator nodes alike, plus the
    compute table, the gate memo, the shape cache and the value table.

    The unique table keys a vector node by its flat successor tuple
    ``succ``, the very tuple the node keeps, and an operator node by
    ``(level, succ)``.

    The compute table holds the products, sums and two-term sums of one
    public product; it and the ratio table are emptied at the end of every
    ``multiply_mv`` and ``multiply_mm``.  A ``multiply_mv`` whose state
    ``node_count`` found full and whose operator it found a tree skips the
    table outside ``_sum_of_products``.  The gate memo is an
    exact memo of gate diagrams that never drops an entry between two
    ``gc`` sweeps; each sweep empties it, and the shape cache.  Only
    ``intern`` stores into the value table; sums only read it.  Its
    occupancy byte maps hold a power of two bytes, at least 4096 and at
    least 8 per bucket; above 4096, at most 16.
    """

    def __init__(self):
        self.ZERO = 0j
        self.ONE = 1 + 0j
        # bucket complex(kr, ki) -> representative; the byte maps mark
        # kr & mask and ki & mask for every key (see _rebuild_maps)
        self._values: dict[complex, complex] = {0j: self.ZERO,
                                                complex(round(_INV_EPS), 0): self.ONE}
        self._rebuild_maps(_MAP_MIN)
        self.zero_edge = Edge(self.ZERO, None)
        self.one_terminal = Edge(self.ONE, None)
        # vector nodes keyed by succ = (w0, x0, w1, x1), operator nodes by
        # (level, succ), succ their eight successor items
        self._unique: dict = {}
        self._uid = 0
        # the compute table of the running product: products keyed (M, V)
        # or (A, B), sums (A, B, ratio) and two-term sums a·x + b·y
        # (A, X, B, Y, ratio); the lengths differ and vector and operator
        # nodes are distinct objects, so no two kinds share a key
        self._ct: dict = {}
        # bucket -> first memo-key ratio of the running product that missed
        # the value table; lives as long as _ct
        self._ratios: dict = {}
        # gate diagram by (kind, parameter, matrix, controls, targets, n);
        # emptied by gc, never a root
        self._gates: dict = {}
        # root node -> shape, filled by node_count and emptied by gc: a
        # vector root's node count, and for an operator root whether no node
        # is reached by two edges (a tree)
        self._shapes: dict = {}
        # False while a product on a full state and a tree operator runs,
        # whose sums and products of operand subtrees skip the compute table
        self._memo = True

    # ------------------------------------------------------------------
    # value table

    def _probe(self, w: complex) -> tuple:
        """Rounding and probe behind every read of the value table.

        ``w`` falls in bucket ``(kr, ki)``, its parts in units of EPS rounded
        to integers.  A miss there probes the eight neighbouring buckets, but
        only when the byte maps mark some neighbour row and some neighbour
        column; a zero byte proves that no such row or column is occupied.
        Returns ``(None, v)`` when the own bucket holds ``v``, ``(key, v)``
        when a neighbour holds a ``v`` within EPS and ``(key, None)`` on a
        miss, ``key`` being the own bucket.
        """
        re = w.real
        im = w.imag
        xr = re * _INV_EPS
        xi = im * _INV_EPS
        if -_ROUND_LIMIT < xr < _ROUND_LIMIT and -_ROUND_LIMIT < xi < _ROUND_LIMIT:
            kr = (xr + _ROUNDER) - _ROUNDER
            ki = (xi + _ROUNDER) - _ROUNDER
        else:
            # also false for NaN, so every non-finite weight lands here
            if not (math.isfinite(xr) and math.isfinite(xi)):
                raise InvalidArgumentError(f"edge weight {w!r} is not finite in units of EPS")
            kr = round(xr)
            ki = round(xi)
        table = self._values
        # kr and ki are integral, so complex(kr, ki) is exact; a neighbour
        # key complex(kr ± 1, ki) may round where |kr| > 2^53, but there the
        # float spacing of ``re`` exceeds EPS, so a value found through a
        # rounded key never passes the EPS test below
        key = complex(kr, ki)
        v = table.get(key)
        if v is not None:
            return None, v
        rows = self._occupied_re
        cols = self._occupied_im
        mask = len(rows) - 1
        r = int(kr) & mask
        c = int(ki) & mask
        # at r = 0, rows[r - 1] is rows[mask], the byte of kr - 1
        if (rows[r] or rows[r - 1] or rows[(r + 1) & mask]) \
                and (cols[c] or cols[c - 1] or cols[(c + 1) & mask]):
            for dr, di in _NEIGHBOURS:
                u = table.get(complex(kr + dr, ki + di))
                if u is not None and abs(u.real - re) <= EPS and abs(u.imag - im) <= EPS:
                    return key, u
        return key, None

    def intern(self, w: complex) -> complex:
        """Canonical representative for ``w``; values within EPS collapse.

        The representative found by ``lookup``, else ``w`` itself; either is
        stored in ``w``'s bucket."""
        key, v = self._probe(w)
        if key is None:
            return v
        if v is None:
            v = complex(w.real, w.imag)
        table = self._values
        table[key] = v
        rows = self._occupied_re
        mask = len(rows) - 1
        if 8 * len(table) > mask:
            self._rebuild_maps(2 * (mask + 1))
        else:
            rows[int(key.real) & mask] = 1
            self._occupied_im[int(key.imag) & mask] = 1
        return v

    def lookup(self, w: complex) -> complex:
        """The stored representative within EPS of ``w``, else ``w``; the
        value table is only read."""
        v = self._probe(w)[1]
        return w if v is None else v

    def _ratio(self, w: complex) -> complex:
        """``lookup(w)`` for a ratio that keys a sum's memo entry.  On a miss
        the first value of ``w``'s bucket in the running product, so keys
        that differ only in the last bits still meet."""
        key, v = self._probe(w)
        if v is None:
            v = self._ratios.setdefault(key, w)
        return v

    def _rebuild_maps(self, size: int) -> None:
        """Occupancy byte maps of ``size`` bytes, a power of two: byte
        ``kr & (size - 1)`` of the row map and ``ki & (size - 1)`` of the
        column map are set for every bucket key ``complex(kr, ki)``."""
        mask = size - 1
        rows = bytearray(size)
        cols = bytearray(size)
        for k in self._values:
            rows[int(k.real) & mask] = 1
            cols[int(k.imag) & mask] = 1
        self._occupied_re = rows
        self._occupied_im = cols

    def _scale(self, e: tuple, w: complex) -> tuple:
        """``w`` times edge ``e``, a plain product: the weight on an incoming
        edge is not interned."""
        if w == 1:
            return e
        ew, en = e
        if w == 0 or en is None and ew == 0:
            return self.zero_edge
        if ew == 1:
            return (w, en)
        return (ew * w, en)

    # ------------------------------------------------------------------
    # node construction (normalization + hash consing)

    def _vnode(self, level: int, e0: tuple, e1: tuple) -> tuple:
        w0, x0 = e0
        w1, x1 = e1
        a0 = abs(w0)
        a1 = abs(w1)
        if a1 - a0 > _MAG_TOL * a0:
            norm = w1
            succ = self._scale_succ(w0, x0, norm) + (self.ONE, x1)
        elif a0 > 0.0:
            norm = w0
            succ = (self.ONE, x0) + self._scale_succ(w1, x1, norm)
        else:
            return self.zero_edge
        # the successors are the key
        node = self._unique.get(succ)
        if node is None:
            self._uid += 1
            node = self._unique[succ] = Node(level, succ, self._uid)
        return (norm, node)

    def _mnode(self, level: int, e0: tuple, e1: tuple, e2: tuple, e3: tuple) -> tuple:
        w0, x0 = e0
        w1, x1 = e1
        w2, x2 = e2
        w3, x3 = e3
        a0 = abs(w0)
        a1 = abs(w1)
        a2 = abs(w2)
        a3 = abs(w3)
        mx = max(a0, a1, a2, a3)
        if mx == 0.0:
            return self.zero_edge
        # the norm is the first successor tied with the largest; the others
        # are scaled in e0..e3 order, which fixes the order of interning
        tied = mx - _MAG_TOL * mx
        scale = self._scale_succ
        one = self.ONE
        if a0 >= tied:
            norm = w0
            succ = (one, x0) + scale(w1, x1, norm) + scale(w2, x2, norm) + scale(w3, x3, norm)
        elif a1 >= tied:
            norm = w1
            succ = scale(w0, x0, norm) + (one, x1) + scale(w2, x2, norm) + scale(w3, x3, norm)
        elif a2 >= tied:
            norm = w2
            succ = scale(w0, x0, norm) + scale(w1, x1, norm) + (one, x2) + scale(w3, x3, norm)
        else:
            norm = w3
            succ = scale(w0, x0, norm) + scale(w1, x1, norm) + scale(w2, x2, norm) + (one, x3)
        if succ[2] == 0 and succ[4] == 0 and succ[0] == succ[6] and succ[1] is succ[7]:
            # an identity level (ONE·x, 0, 0, ONE·x) is not stored: the edge
            # goes straight to x
            return (norm, succ[1])
        key = (level, succ)
        node = self._unique.get(key)
        if node is None:
            self._uid += 1
            node = self._unique[key] = Node(level, succ, self._uid)
        return (norm, node)

    def _diag(self, node: Node | None) -> tuple:
        """Flat successors of an identity level above ``node``: diag(x, x),
        x the unit edge into ``node`` (None: the identity)."""
        one = self.ONE
        zero = self.ZERO
        return (one, node, zero, None, zero, None, one, node)

    def _scale_succ(self, w: complex, node: Node | None, norm: complex) -> tuple:
        """The successor ``(w, node)`` divided by its node's norm, the
        weight interned."""
        if node is None and w == 0:
            return self.zero_edge
        if w == norm:
            return (self.ONE, node)
        w = self.intern(w / norm)
        if w == 0:
            return self.zero_edge
        return (w, node)

    # ------------------------------------------------------------------
    # constructors

    def make_zero_state(self, n: int) -> Edge:
        if n < 1:
            raise InvalidArgumentError(f"qubit count must be >= 1, got {n}")
        e = self.one_terminal
        for level in range(n):
            e = self._vnode(level, e, self.zero_edge)
        return _edge(e)

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
        return _edge(e)

    def make_gate(self, gate, n: int) -> Edge:
        """Operator diagram of ``gate`` extended to ``n`` qubits.

        ``gate`` needs fields kind / parameter / controls / targets (and
        matrix for kind "u").  Positive controls only.  Gate diagrams are
        memoised per kernel until the next ``gc``, which empties the memo.
        """
        targets = tuple(gate.targets)
        controls = tuple(gate.controls)
        matrix = getattr(gate, "matrix", None)
        key = (gate.kind, gate.parameter, matrix, controls, targets, n)
        e = self._gates.get(key)
        if e is not None:
            return e
        used = targets + controls
        if len(set(used)) != len(used):
            raise InvalidArgumentError(f"duplicate qubit in gate {gate.kind}: {used}")
        for q in used:
            if not 0 <= q < n:
                raise InvalidArgumentError(f"qubit {q} out of range for {n} qubits")
        if gate.kind == "swap":
            if controls:
                raise InvalidArgumentError("controls on swap are not supported")
            e = self._swap(min(targets), max(targets))
        else:
            if len(targets) != 1:
                raise InvalidArgumentError(
                    f"gate {gate.kind} expects one target, got {targets}")
            mat = _gates.base_matrix(gate.kind, gate.parameter, matrix)
            e = self._controlled_single(mat, targets[0], controls)
        return self._gates.setdefault(key, _edge(e))

    def _controlled_single(self, mat, target: int, controls: tuple) -> tuple:
        """Nodes at the target and control levels only; the levels between
        them act as the identity and are skipped."""
        zero = self.zero_edge
        one = self.one_terminal
        em = []
        for x in mat:
            w = self.intern(x)
            em.append(zero if w == 0 else (w, None))
        for level in sorted(c for c in controls if c < target):
            # the inactive control branch is the identity below the control,
            # which only the diagonal entry blocks pick up
            em = [self._mnode(level, one, zero, zero, em[0]),
                  self._mnode(level, zero, zero, zero, em[1]),
                  self._mnode(level, zero, zero, zero, em[2]),
                  self._mnode(level, one, zero, zero, em[3])]
        e = self._mnode(target, em[0], em[1], em[2], em[3])
        for level in sorted(c for c in controls if c > target):
            e = self._mnode(level, one, zero, zero, e)
        return e

    def _swap(self, a: int, b: int) -> tuple:
        """swap(a, b), a < b: quadrant (r, c) at level b is |c><r| on qubit a."""
        one = self.one_terminal
        zero = self.zero_edge
        blocks = []
        for r in (0, 1):
            for c in (0, 1):
                succ = [zero] * 4
                succ[2 * c + r] = one
                blocks.append(self._mnode(a, *succ))
        return self._mnode(b, *blocks)

    # ------------------------------------------------------------------
    # arithmetic

    def _add(self, a: tuple, b: tuple) -> tuple:
        """Element-wise sum of two diagrams of one kind; two vectors must
        sit at the same level."""
        aw, an = a
        bw, bn = b
        if an is None and aw == 0:
            return b
        if bn is None and bw == 0:
            return a
        if an is None or bn is None or an.level != bn.level:
            # two terminal scalars, or operator edges whose nodes sit at
            # different levels: the one whose node sits higher goes first,
            # the other is diag(x, x) on the levels it skips
            if an is bn:
                # two scalars or two scaled identities, summed as
                # a.w · (1 + ratio)
                ratio = bw if aw == 1 else self.lookup(bw / aw)
                s = self.lookup(1 + ratio)
                return self.zero_edge if s == 0 else self._scale((s, None), aw)
            if bn is not None and (an is None or an.level < bn.level):
                a, aw, an, bw, bn = b, bw, bn, aw, an
        elif an.uid > bn.uid:
            a, aw, an, bw, bn = b, bw, bn, aw, an
        ratio = bw if aw == 1 else self._ratio(bw / aw)
        if ratio == 0:
            return a
        key = (an, bn, ratio)
        memo = self._memo
        r = self._ct.get(key) if memo else None
        if r is None:
            add = self._add
            scale = self._scale
            level = an.level
            sa = an.succ
            sb = bn.succ if bn is not None and bn.level == level else self._diag(bn)
            if len(sa) == 4:
                r = self._vnode(level, add(sa[:2], scale(sb[:2], ratio)),
                                add(sa[2:], scale(sb[2:], ratio)))
            else:
                r = self._mnode(level, add(sa[:2], scale(sb[:2], ratio)),
                                add(sa[2:4], scale(sb[2:4], ratio)),
                                add(sa[4:6], scale(sb[4:6], ratio)),
                                add(sa[6:], scale(sb[6:], ratio)))
            if memo:
                self._ct[key] = r
        return self._scale(r, aw)

    def multiply_mv(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector product; the operator's node may sit below the
        state's top level (it skips identity levels), never above it."""
        mw, mn = m
        vw, vn = v
        if (mn is None and mw == 0) or (vn is None and vw == 0):
            return self.zero_edge
        if mn is not None and len(mn.succ) != 8:
            raise InvalidArgumentError("left operand must be a matrix diagram")
        if vn is None or len(vn.succ) != 4:
            raise InvalidArgumentError("right operand must be a vector diagram")
        if mn is not None and mn.level > vn.level:
            raise InvalidArgumentError(
                f"level mismatch in multiply: {mn.level} vs {vn.level}")
        shapes = self._shapes
        # a full state is a complete binary tree; with a tree operator each
        # key of the recursion names operand nodes reached by one path only,
        # so no key recurs and the table would never be read
        self._memo = not (shapes.get(mn) is True
                          and shapes.get(vn) == (2 << vn.level) - 1)
        try:
            return _edge(self._mul_mv(m, v))
        finally:
            self._memo = True
            self._ct.clear()
            self._ratios.clear()

    def _mul_mv(self, m: tuple, v: tuple) -> tuple:
        mw, mn = m
        vw, vn = v
        if (mn is None and mw == 0) or (vn is None and vw == 0):
            return self.zero_edge
        w = vw if mw == 1 else mw if vw == 1 else mw * vw
        if mn is None:
            # the identity, or below level 0 a scalar
            return (w, vn)
        key = (mn, vn)
        memo = self._memo
        r = self._ct.get(key) if memo else None
        if r is None:
            mul = self._mul_mv
            level = vn.level
            sv = vn.succ
            v0 = sv[:2]
            v1 = sv[2:]
            if mn.level < level:
                # an identity level of the operator, diag(M, M); the most
                # frequent case on a state wider than the gate
                half = (self.ONE, mn)
                r = self._vnode(level, mul(half, v0), mul(half, v1))
            else:
                sm = mn.succ
                # a stored successor of weight 0 is the zero stub
                if sm[2] == 0 and sm[4] == 0:
                    # block-diagonal diag(M0, M3): the two off-diagonal
                    # products are zero and _add(x, zero) is x, so this is
                    # the general case below without the calls that return
                    # at once
                    r = self._vnode(level, mul(sm[:2], v0), mul(sm[6:], v1))
                else:
                    mac = self._mac
                    r = self._vnode(level, mac(sm[:2], v0, sm[2:4], v1),
                                    mac(sm[4:6], v0, sm[6:], v1))
            if memo:
                self._ct[key] = r
        return self._scale(r, w)

    def _mac(self, a: tuple, x: tuple, b: tuple, y: tuple) -> tuple:
        """``a·x + b·y`` for operator edges ``a``, ``b`` and vector edges
        ``x``, ``y`` of one level, in one recursion that builds only the
        nodes of the sum, not those of the two products."""
        aw, an = a
        xw, xn = x
        bw, bn = b
        yw, yn = y
        if (an is None and aw == 0) or (xn is None and xw == 0):
            return self._mul_mv(b, y)
        if (bn is None and bw == 0) or (yn is None and yw == 0):
            return self._mul_mv(a, x)
        if an is None and bn is None:
            # two scaled identities, or below level 0 two scalars: the sum
            # of the two scaled vectors
            return self._add(self._mul_mv(a, x), self._mul_mv(b, y))
        w = aw * xw
        ratio = self._ratio(bw * yw / w)
        if ratio == 0:
            return self._mul_mv(a, x)
        key = (an, xn, bn, yn, ratio)
        memo = self._memo
        r = self._ct.get(key) if memo else None
        if r is None:
            level = xn.level
            if (an is None or an.level < level) and (bn is None or bn.level < level):
                # both operators are identity levels here, diag(A, A) and
                # diag(B, B): each half of the sum pairs the two halves
                mac = self._mac
                ua = (self.ONE, an)
                ub = (ratio, bn)
                sx = xn.succ
                sy = yn.succ
                r = self._vnode(level, mac(ua, sx[:2], ub, sy[:2]),
                                mac(ua, sx[2:], ub, sy[2:]))
            else:
                r = self._mac_quadrants(level, an, xn, ratio, bn, yn)
            if memo:
                self._ct[key] = r
        return self._scale(r, w)

    def _mac_quadrants(self, level: int, an: Node | None, xn: Node,
                       ratio: complex, bn: Node | None, yn: Node) -> tuple:
        """``A·x + ratio·B·y`` for unit edges into ``an``, ``xn``, ``bn``
        and ``yn``, at a level where an operator has a node: each half of
        the sum gathers its nonzero quadrant products.  A half with three
        or four of them (dense operators, whose products several sums
        share) makes the whole pair a sum of two products."""
        zero = self.zero_edge
        scale = self._scale
        sa = an.succ if an is not None and an.level == level else self._diag(an)
        sb = bn.succ if bn is not None and bn.level == level else self._diag(bn)
        sx = xn.succ
        sy = yn.succ
        x0 = sx[:2]
        x1 = sx[2:]
        y0 = sy[:2]
        y1 = sy[2:]
        halves = []
        for i in (0, 4):
            # the products of quadrants i/2 and i/2 + 1 with the halves of
            # x and y, in the order x0, x1, y0, y1; a zero factor drops one
            terms = []
            if x0 != zero and sa[i] != 0:
                terms.append((sa[i:i + 2], x0))
            if x1 != zero and sa[i + 2] != 0:
                terms.append((sa[i + 2:i + 4], x1))
            if y0 != zero:
                m = scale(sb[i:i + 2], ratio)
                if m != zero:
                    terms.append((m, y0))
            if y1 != zero:
                m = scale(sb[i + 2:i + 4], ratio)
                if m != zero:
                    terms.append((m, y1))
            if len(terms) > 2:
                one = self.ONE
                return self._sum_of_products((one, an), (one, xn), (ratio, bn), (one, yn))
            halves.append(terms)
        out = []
        for terms in halves:
            if not terms:
                out.append(zero)
            elif len(terms) == 1:
                m, v = terms[0]
                out.append(self._mul_mv(m, v))
            else:
                (m0, v0), (m1, v1) = terms
                out.append(self._mac(m0, v0, m1, v1))
        return self._vnode(level, out[0], out[1])

    def _sum_of_products(self, a: tuple, x: tuple, b: tuple, y: tuple) -> tuple:
        """``a·x + b·y`` as the sum of the two full products, with the
        compute table on also inside a product that skips it: the two
        products may share nodes, and products of the rows of one dense
        block may meet the same pair of state subtrees."""
        memo = self._memo
        self._memo = True
        r = self._add(self._mul_mv(a, x), self._mul_mv(b, y))
        self._memo = memo
        return r

    def multiply_mm(self, a: Edge, b: Edge) -> Edge:
        """Matrix-matrix product ``a @ b``; each operand skips the identity
        levels above its node, so their nodes may sit at different levels."""
        aw, an = a
        bw, bn = b
        if (an is None and aw == 0) or (bn is None and bw == 0):
            return self.zero_edge
        for node in (an, bn):
            if node is not None and len(node.succ) != 8:
                raise InvalidArgumentError("multiply_mm needs two matrix diagrams")
        try:
            return _edge(self._mul_mm(a, b))
        finally:
            self._ct.clear()
            self._ratios.clear()

    def _mul_mm(self, a: tuple, b: tuple) -> tuple:
        aw, an = a
        bw, bn = b
        if (an is None and aw == 0) or (bn is None and bw == 0):
            return self.zero_edge
        w = bw if aw == 1 else aw if bw == 1 else aw * bw
        if an is None:
            return (w, bn)
        if bn is None:
            return (w, an)
        key = (an, bn)
        r = self._ct.get(key)
        if r is None:
            # above the higher node both factors, and so the product, are
            # the identity; the product starts at that node's level, where
            # the other factor may be an identity level diag(x, x)
            mul = self._mul_mm
            level = an.level if an.level >= bn.level else bn.level
            sa = an.succ if an.level == level else self._diag(an)
            sb = bn.succ if bn.level == level else self._diag(bn)
            a0 = sa[:2]
            a3 = sa[6:]
            b0 = sb[:2]
            b3 = sb[6:]
            # a successor of weight 0 is the zero stub
            if sa[2] == 0 and sa[4] == 0:
                # a = diag(A0, A3): each quadrant keeps one of its two
                # products, in the order the general case computes them
                r = self._mnode(level, mul(a0, b0), mul(a0, sb[2:4]),
                                mul(a3, sb[4:6]), mul(a3, b3))
            elif sb[2] == 0 and sb[4] == 0:
                # b = diag(B0, B3), likewise
                r = self._mnode(level, mul(a0, b0), mul(sa[2:4], b3),
                                mul(sa[4:6], b0), mul(a3, b3))
            else:
                add = self._add
                a1 = sa[2:4]
                a2 = sa[4:6]
                b1 = sb[2:4]
                b2 = sb[4:6]
                r = self._mnode(level, add(mul(a0, b0), mul(a1, b2)),
                                add(mul(a0, b1), mul(a1, b3)),
                                add(mul(a2, b0), mul(a3, b2)),
                                add(mul(a2, b1), mul(a3, b3)))
            self._ct[key] = r
        return self._scale(r, w)

    # ------------------------------------------------------------------
    # queries

    def amplitude(self, v: Edge, bits: str) -> complex:
        """Amplitude of the basis state ``bits`` (most significant bit first)."""
        w, node = v
        if node is None:
            if w == 0:
                return 0j
            raise InvalidArgumentError("terminal edge has no amplitudes")
        n = node.level + 1
        if len(bits) != n or any(c not in "01" for c in bits):
            raise InvalidArgumentError(
                f"basis string {bits!r} does not address {n} qubits")
        if len(node.succ) != 4:
            raise InvalidArgumentError("amplitude extraction needs a vector diagram")
        for c in bits:
            i = 2 if c == "1" else 0
            sw, node = node.succ[i:i + 2]
            w *= sw
            if w == 0:
                return 0j
        return complex(w)

    def node_count(self, e: Edge, n: int | None = None) -> int:
        """Nodes of ``e`` in the explicit form, where an operator has one
        identity node on each level it skips, its root edge leaving level
        ``n`` (by default the level above its node).

        A run of skipped levels above a node, or above the terminal, is one
        chain of identity nodes, shared by every edge into that target, so
        the explicit form adds the longest skip into each target to the
        stored nodes.  Vector diagrams skip no level, and a vector's ``n``,
        when given, must be its width.

        Each count fills the shape cache that ``multiply_mv`` reads: a
        vector root's count, walked once per root until the next ``gc``,
        and whether any node of an operator root is reached by two edges,
        which its walk sees as it goes.
        """
        w, root = e
        if root is None:
            return 0 if w == 0 or n is None else n
        shapes = self._shapes
        if len(root.succ) == 4:
            _check_width(root, n)
            count = shapes.get(root)
            if count is None:
                count = shapes[root] = _level_count(root)
            return count
        top = root.level if n is None else n - 1
        if top < root.level:
            raise InvalidArgumentError(
                f"operator on {root.level + 1} qubits does not fit {n}")
        # target (None for the terminal) -> longest skip over an edge into it
        skip = {root: top - root.level}
        seen = {root}
        stack = [root]
        tree = True
        while stack:
            node = stack.pop()
            lo = node.level - 1
            for sw, x in _pairs(node.succ):
                if x is None:
                    if sw == 0:
                        continue
                    d = node.level
                else:
                    d = lo - x.level
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
                    else:
                        tree = False
                if d > skip.get(x, 0):
                    skip[x] = d
        shapes[root] = tree
        return len(seen) + sum(skip.values())

    def _reachable(self, roots: Iterable[Node | None]) -> set:
        """Every node reachable from ``roots``; a None root is skipped."""
        stack = [x for x in roots if x is not None]
        seen = set(stack)
        while stack:
            for x in stack.pop().succ[1::2]:
                if x is not None and x not in seen:
                    seen.add(x)
                    stack.append(x)
        return seen

    def inner_product(self, a: Edge, b: Edge) -> complex:
        """Hermitian inner product <a|b> of two vector diagrams."""
        aw, an = a
        bw, bn = b
        if (an is None and aw == 0) or (bn is None and bw == 0):
            return 0j
        for node in (an, bn):
            if node is None or len(node.succ) != 4:
                raise InvalidArgumentError("inner_product needs two vector diagrams")
        if an.level != bn.level:
            raise InvalidArgumentError(
                f"level mismatch in inner_product: {an.level} vs {bn.level}")
        return self._inner(a, b, {})

    def _inner(self, ea: tuple, eb: tuple, memo: dict) -> complex:
        aw, an = ea
        bw, bn = eb
        if (an is None and aw == 0) or (bn is None and bw == 0):
            return 0j
        if an is None:
            # two vectors of one level reach the terminal together
            return aw.conjugate() * bw
        key = (an, bn)
        s = memo.get(key)
        if s is None:
            sa = an.succ
            sb = bn.succ
            s = self._inner(sa[:2], sb[:2], memo) + self._inner(sa[2:], sb[2:], memo)
            memo[key] = s
        return aw.conjugate() * bw * s

    def signature(self, e: Edge):
        """Kernel-independent structural fingerprint (for cross-instance
        equality), built level by level from the bottom."""
        w, root = e
        memo = self._bottom_up(root, lambda node, memo: (
            node.level, tuple((sw.real, sw.imag, memo[x]) for sw, x in _pairs(node.succ))))
        return (w.real, w.imag, memo[root])

    def _bottom_up(self, root: Node | None, build) -> dict:
        """``memo[node] = build(node, memo)`` for every node reachable from
        ``root``, lowest level first, so ``memo`` already holds every
        successor a node names; ``memo[None]`` is None."""
        memo: dict = {None: None}
        for node in sorted(self._reachable((root,)), key=lambda x: x.level):
            memo[node] = build(node, memo)
        return memo

    # ------------------------------------------------------------------
    # dense reconstruction (n must stay small; intended for checks and export)

    def to_vector(self, e: Edge, n: int | None = None) -> np.ndarray:
        """Dense amplitudes of a vector edge; ``n``, when given, must be
        its width.  The zero edge has every width and needs ``n``."""
        w, root = e
        if root is None and w == 0:
            if n is None:
                raise InvalidArgumentError("zero edge needs an explicit qubit count")
            return np.zeros(1 << n, dtype=complex)
        if root is not None and len(root.succ) != 4:
            raise InvalidArgumentError("to_vector needs a vector diagram")
        _check_width(root, n)
        if root is None:
            return np.array([w], dtype=complex)

        def sub(edge: tuple, size: int, memo: dict) -> np.ndarray:
            w, node = edge
            if node is None:
                if w == 0:
                    return np.zeros(size, dtype=complex)
                return np.array([w], dtype=complex)
            return w * memo[node]

        def build(node: Node, memo: dict) -> np.ndarray:
            half = 1 << node.level
            s = node.succ
            return np.concatenate([sub(s[:2], half, memo), sub(s[2:], half, memo)])

        return w * self._bottom_up(root, build)[root]

    def to_matrix(self, e: Edge, n: int) -> np.ndarray:
        """Dense 2^n x 2^n matrix of an operator edge; the levels an edge
        skips are expanded as identity levels."""
        root = e[1]
        if root is not None:
            if len(root.succ) != 8:
                raise InvalidArgumentError("to_matrix needs an operator diagram")
            if root.level >= n:
                raise InvalidArgumentError(
                    f"operator on {root.level + 1} qubits does not fit {n}")

        def sub(edge: tuple, level: int, memo: dict) -> np.ndarray:
            dim = 1 << (level + 1)
            w, node = edge
            if node is None:
                if w == 0:
                    return np.zeros((dim, dim), dtype=complex)
                return w * np.eye(dim, dtype=complex)
            a = memo[node]
            if node.level < level:
                a = np.kron(np.eye(1 << (level - node.level)), a)
            return w * a

        def build(node: Node, memo: dict) -> np.ndarray:
            lo = node.level - 1
            s = node.succ
            return np.block([[sub(s[:2], lo, memo), sub(s[2:4], lo, memo)],
                             [sub(s[4:6], lo, memo), sub(s[6:], lo, memo)]])

        return sub(e, n - 1, self._bottom_up(root, build))

    # ------------------------------------------------------------------
    # memory management

    def inc_ref(self, e: Edge) -> None:
        node = e[1]
        if node is not None:
            node.ref += 1

    def dec_ref(self, e: Edge) -> None:
        node = e[1]
        if node is not None and node.ref > 0:
            node.ref -= 1

    @property
    def unique_size(self) -> int:
        return len(self._unique)

    def gc(self, roots: Iterable[Edge] = ()) -> int:
        """Sweep nodes unreachable from ``roots`` and externally ref'd nodes.

        The nodes ``_reachable`` finds from both are kept in the one unique
        table and the rest dropped; the count dropped is returned.  The
        gate memo and the shape cache are emptied wholesale, since their
        entries may name swept nodes; so are the compute and ratio tables,
        which are empty already unless ``_add``, ``_mac``, ``_mul_mv`` or
        ``_mul_mm`` was called outside a public product.  The value table,
        which holds no value of a sum, keeps the buckets whose
        representative is ZERO, ONE or a successor weight of a kept node, so
        every weight a kept node holds still interns to itself; root weights
        are plain products and need no bucket.  The byte maps are rebuilt at
        the smallest power of two above 8 bytes per kept bucket, and at
        least 4096.
        """
        table = self._unique
        marked = self._reachable(itertools.chain(
            (e[1] for e in roots), (x for x in table.values() if x.ref > 0)))
        live = {self.ZERO, self.ONE}
        for node in marked:
            live.update(node.succ[::2])
        self._unique = {k: v for k, v in table.items() if v in marked}
        self._sweep_values(live)
        self._ct.clear()
        self._ratios.clear()
        self._gates.clear()
        self._shapes.clear()
        return len(table) - len(self._unique)

    def _sweep_values(self, live: set) -> None:
        """Keep the buckets whose representative is in ``live``."""
        self._values = {k: v for k, v in self._values.items() if v in live}
        self._rebuild_maps(max(_MAP_MIN, 1 << (8 * len(self._values)).bit_length()))

    # ------------------------------------------------------------------
    # export

    def to_dot(self, e: Edge) -> str:
        """Graphviz rendering of a diagram; layout is best-effort only."""
        w, root = e
        lines = ["digraph dd {", "  rankdir=TB;", '  root [shape=point, label=""];']
        if root is None:
            lines.append('  t [shape=box, label="1"];')
            if w == 0:
                lines.append("  z0 [shape=point, style=filled];")
                lines.append("  root -> z0;")
            else:
                lines.append(f'  root -> t [label="{_fmt_weight(w)}"];')
            lines.append("}")
            return "\n".join(lines)
        # nodes named in preorder, successors in edge order
        names: dict = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node not in names:
                names[node] = f"n{len(names)}"
                stack.extend(x for x in node.succ[-1::-2] if x is not None)
        lines.append('  t [shape=box, label="1"];')
        lines.append(f'  root -> n0 [label="{_fmt_weight(w)}"];')
        stub = 0
        for node in names:
            lines.append(f'  {names[node]} [shape=circle, label="{node.level}"];')
            for i, (sw, x) in enumerate(_pairs(node.succ)):
                if x is None and sw == 0:
                    lines.append(f"  z{stub} [shape=point, style=filled];")
                    lines.append(f'  {names[node]} -> z{stub} [label="{i}"];')
                    stub += 1
                elif x is None:
                    lines.append(
                        f'  {names[node]} -> t [label="{i}: {_fmt_weight(sw)}"];')
                else:
                    lines.append(
                        f'  {names[node]} -> {names[x]} [label="{i}: {_fmt_weight(sw)}"];')
        lines.append("}")
        return "\n".join(lines)


def _level_count(root: Node) -> int:
    """Nodes of the vector diagram below ``root``, one level at a time:
    every successor of a vector node sits one level down."""
    count = 0
    level = {root}
    while level:
        count += len(level)
        below = set()
        for node in level:
            succ = node.succ
            below.add(succ[1])
            below.add(succ[3])
        below.discard(None)
        level = below
    return count


def _check_width(root: Node | None, n: int | None) -> None:
    """Reject a width ``n`` other than that of the vector edge into
    ``root``; the terminal is a vector on no qubit, and None fits any."""
    width = 0 if root is None else root.level + 1
    if n is not None and n != width:
        raise InvalidArgumentError(f"vector on {width} qubits read as {n} qubits")


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
    aw, an = a
    bw, bn = b
    return an is bn and abs(aw - bw) <= EPS * max(abs(aw), abs(bw))
