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

from .expr import ExprSet, _Unit, add, format_expr, free_symbols, inline_single_use, prod
from .graph import depth_levels, reach, region_edges
from .structure import edges_expr, segment_cross_level


class JacobianError(ValueError):
    pass


class LocalJacobian:
    def __init__(self, rows, cols, entries):
        self.rows = rows  # tuple
        self.cols = cols  # tuple
        self.entries = entries  # (row, col) -> Expr; absent means structural zero

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

    Only the region between the two sets is walked: a column can precede a
    row only if it comes before the last row in topological order, so the
    check walks down from a column through those vertices alone.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    g.require(*cols, *rows)
    boundary = set(rows) | set(cols)
    pos = g.topo_pos
    last = max((pos[r] for r in rows), default=-1)
    step = lambda v: [w for w in g.successors(v) if pos[w] <= last]
    below = {c: reach([c], step) if pos[c] < last else () for c in cols}
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


def level_chain(g):
    """The local Jacobians between adjacent levels of `g`, its cross-level edges
    segmented and each level in name order: a chain whose product is its Jacobian."""
    seg = segment_cross_level(g)
    levels, _ = depth_levels(seg)
    rows = [[] for _ in range(max(levels.values()) + 1)]
    for v in sorted(levels):
        rows[levels[v]].append(v)
    return [extract_local_jacobian(seg, rows[k], rows[k + 1]) for k in range(len(rows) - 1)]


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


class _Pattern:
    """The zero/unit/general pattern of a chain interval's product, with
    the number of general entries in each of its columns and rows.

    The pattern does not depend on how the interval is bracketed: an entry
    is zero when no index sequence through the interval is nonzero, unit
    when exactly one is and all its factors are unit, and general otherwise.
    """

    def __init__(self, cols, pat):
        self.cols, self.pat = cols, pat  # pat: (r, c) -> 1 unit, 2 general
        self.col_general = {}
        self.row_general = {}
        for (r, c), x in pat.items():
            if x == 2:
                self.col_general[c] = self.col_general.get(c, 0) + 1
                self.row_general[r] = self.row_general.get(r, 0) + 1

    @classmethod
    def of(cls, m):
        return cls(m.cols, {k: 1 if _is_unit(e) else 2 for k, e in m.entries.items()})

    def join_cost(self, right):
        """Multiplications of ``self @ right``: each general entry (r, m)
        meets each general entry (m, c)."""
        rg = right.row_general
        return sum(n * rg.get(m, 0) for m, n in self.col_general.items())

    def __matmul__(self, right):
        out = {}
        for (r, m), x in self.pat.items():
            for c in right.cols:
                y = right.pat.get((m, c))
                if y is not None:
                    key = (r, c)
                    out[key] = 2 if key in out or x == 2 or y == 2 else 1
        return _Pattern(right.cols, out)


def best_accumulation_order(chain, bound=12):
    """Minimum-cost association over all parenthesizations.

    Sparsity-aware interval dynamic program: the cost of joining two
    intervals depends on the nonzero/unit pattern of each accumulated
    product, not just on dimensions.  Each interval's pattern is worked out
    once, and a split is costed from its two parts' general-entry counts.
    Ties go to the least split point.  Returns (tree, cost).

    The program is cubic in the chain's length, but a chain of 1x1 factors
    with nonzero entries has a closed form: every association costs one
    multiplication fewer than its general factors, so the tie-break gives
    the right-associated tree without running it.
    """
    n = len(chain)
    if n == 0:
        raise JacobianError("empty chain")
    if n > bound:
        raise JacobianError(f"chain length {n} over exhaustive bound {bound}")
    if n == 1:
        return 0, 0
    if any(a.cols != b.rows for a, b in zip(chain, chain[1:])):
        raise JacobianError("chain is not conformable")
    if all(len(m.rows) == len(m.cols) == len(m.entries) == 1 for m in chain):
        general = sum(not _is_unit(e) for m in chain for e in m.entries.values())
        return right_assoc(n), max(0, general - 1)
    pats = {}
    best = {}
    for i, m in enumerate(chain):
        pats[(i, i)] = _Pattern.of(m)
        best[(i, i)] = (0, i)
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cost, k = min(
                (best[(i, k)][0] + best[(k + 1, j)][0] + pats[(i, k)].join_cost(pats[(k + 1, j)]), k)
                for k in range(i, j)
            )
            pats[(i, j)] = pats[(i, k)] @ pats[(k + 1, j)]
            best[(i, j)] = (cost, (best[(i, k)][1], best[(k + 1, j)][1]))
    return best[(0, n - 1)][1], best[(0, n - 1)][0]
