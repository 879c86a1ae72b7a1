"""Sparse symbolic local Jacobians and chain accumulation.

A local Jacobian maps a row vertex set to a column vertex set; absent
entries are structural zeros, and an entry is the contracted region of its
pair that avoids the other row and column vertices.  Chains of conformable
local Jacobians can be accumulated under any parenthesization; the cost
counter skips structural zeros and unit entries, and entries of
intermediate products are computed once: the accumulator interns every
compound entry into the result set, so a shared entry surfaces there as a
reference definition.
"""
from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprSet, _Unit, add, format_expr, free_symbols, inline_single_use, prod
from .graph import region_edges
from .structure import edges_expr


class JacobianError(ValueError):
    pass


@dataclass
class LocalJacobian:
    rows: tuple
    cols: tuple
    entries: dict  # (row, col) -> Expr; absent means structural zero

    def entry(self, r, c):
        return self.entries.get((r, c))

    def dump(self):
        lines = [f"J {' '.join(self.rows)} | {' '.join(self.cols)}"]
        for r in self.rows:
            for c in self.cols:
                e = self.entries.get((r, c))
                if e is not None:
                    lines.append(f"entry {r} {c} = {format_expr(e)}")
        return "\n".join(lines) + "\n"


def extract_local_jacobian(g, rows, cols):
    """Local Jacobian between two vertex sets.

    Entry (r, c) is the expression of the region between r and c restricted
    to paths whose interiors avoid all other row/column vertices, so a chain
    of extractions over a level partition multiplies back to the full
    Jacobian.  A complex region raises.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    boundary = set(rows) | set(cols)
    below = {c: g.reachable_from(c) for c in cols}
    for r in rows:
        for c in cols:
            if r in below[c]:
                raise JacobianError(f"column {c} precedes row {r}")
    entries = {}
    for r in rows:
        for c in cols:
            edges = region_edges(g, [r], [c], boundary)
            if edges:
                entries[(r, c)] = edges_expr(edges, r, c)
    return LocalJacobian(rows, cols, entries)


# ---------------------------------------------------------------------------
# accumulation


def left_assoc(n):
    tree = 0
    for i in range(1, n):
        tree = (tree, i)
    return tree


def right_assoc(n):
    tree = n - 1
    for i in range(n - 2, -1, -1):
        tree = (i, tree)
    return tree


def _is_unit(e):
    return isinstance(e, _Unit)


class _Accumulator:
    def __init__(self, chain):
        self.chain = list(chain)
        self.cost = 0
        self.refs = ExprSet()  # compound entries, named so later uses share them
        for m in self.chain:  # no reference takes the name of an input label
            for e in m.entries.values():
                self.refs.reserve(free_symbols(e))

    def product(self, left, right):
        if left.cols != right.rows:
            raise JacobianError("chain is not conformable")
        entries = {}
        for (r, m), a in left.entries.items():
            for c in right.cols:
                b = right.entries.get((m, c))
                if b is None:
                    continue
                if not (_is_unit(a) or _is_unit(b)):
                    self.cost += 1
                term = prod(a, b)
                key = (r, c)
                entries[key] = add(entries[key], term) if key in entries else term
        entries = {k: self.refs.intern(v) for k, v in entries.items()}
        return LocalJacobian(left.rows, right.cols, entries)

    def run(self, tree):
        """The product of the chain under `tree`, left subtree first."""
        done = []  # products of the finished subtrees, left to right
        todo = [(tree, False)]
        while todo:
            node, joined = todo.pop()
            if isinstance(node, int):
                done.append(self.chain[node])
            elif joined:
                right = done.pop()
                done.append(self.product(done.pop(), right))
            else:
                todo += [(node, True), (node[1], False), (node[0], False)]
        return done[0]


def accumulate(chain, parenthesization):
    """Accumulate a conformable chain under the given association tree.

    Returns (ExprSet, cost).  The expression set holds one entry per nonzero
    of the final product, with intermediate entries shared through reference
    definitions wherever they are used more than once.
    """
    acc = _Accumulator(chain)
    result = acc.run(parenthesization)
    s = acc.refs
    for (r, c), e in sorted(result.entries.items()):
        s.add_entry(r, c, e)
    return inline_single_use(s), acc.cost


def _pattern(m):
    """Entry pattern: 0 structural zero, 1 unit, 2 general."""
    pat = {}
    for key, e in m.entries.items():
        pat[key] = 1 if _is_unit(e) else 2
    return m.rows, m.cols, pat


def _pattern_product(a, b):
    rows_a, mid, pa = a
    mid_b, cols, pb = b
    if mid != mid_b:
        raise JacobianError("chain is not conformable")
    out = {}
    cost = 0
    for (r, m), x in pa.items():
        for c in cols:
            y = pb.get((m, c))
            if y is None:
                continue
            if x == 2 and y == 2:
                cost += 1
            elif x == 2 or y == 2:
                pass  # unit factor: free
            # unit*unit stays unit and is free
            val = 1 if (x == 1 and y == 1) else 2
            key = (r, c)
            if key in out:
                out[key] = 2
            else:
                out[key] = val
    return (rows_a, cols, out), cost


def best_accumulation_order(chain, bound=12):
    """Minimum-cost association over all parenthesizations.

    Sparsity-aware interval dynamic program: the cost of joining two
    intervals depends on the nonzero/unit pattern of each accumulated
    product, not just on dimensions.  Returns (tree, cost).
    """
    n = len(chain)
    if n == 0:
        raise JacobianError("empty chain")
    if n > bound:
        raise JacobianError(f"chain length {n} over exhaustive bound {bound}")
    if n == 1:
        return 0, 0
    pats = {}
    best = {}
    for i, m in enumerate(chain):
        pats[(i, i)] = _pattern(m)
        best[(i, i)] = (0, i)
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            options = []
            for k in range(i, j):
                combined, join_cost = _pattern_product(pats[(i, k)], pats[(k + 1, j)])
                cost = best[(i, k)][0] + best[(k + 1, j)][0] + join_cost
                options.append((cost, k, combined))
            cost, k, combined = min(options, key=lambda o: (o[0], o[1]))
            pats[(i, j)] = combined
            best[(i, j)] = (cost, (best[(i, k)][1], best[(k + 1, j)][1]))
    return best[(0, n - 1)][1], best[(0, n - 1)][0]
