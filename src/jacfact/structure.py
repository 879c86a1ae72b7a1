"""The contraction engine, region expressions, and cross-level segmentation.

Contraction is series-parallel: parallel edges merge into block edges,
maximal single-track runs collapse into chain edges, and the rounds repeat
until nothing moves.  Regions that refuse to contract are complex blocks.
The contraction engine, :class:`_Contraction`, is kept at its fixpoint
under edits: it is the contracted view the split passes edit and
re-contract around the vertices they touch, and :mod:`jacfact.recognize`
runs it for `inspect`'s structure report.  A region's expression needs
none of its indices or parts, so :func:`edges_expr` reduces a region's
edge list, as :func:`~jacfact.graph.region_edges` gives it, on plain
adjacency maps to the same node the engine would give.
"""
from __future__ import annotations

import operator

from .expr import add, atom, prod
from .graph import DiffGraph, Edge, Names, UNIT_LABEL, depth_levels, region_edges


class StructureError(ValueError):
    pass


class ComplexBlockError(StructureError):
    """A region has no algebraic form; carries the offending (src, sink)."""

    def __init__(self, src, sink):
        super().__init__(f"complex block between {src} and {sink}")
        self.src = src
        self.sink = sink


class CEdge:
    """Contraction edge: an original edge or a substitute for a structure.

    A substitute keeps its `parts`: a chain its run, end to end; a block its
    branches, in seq order; a stuck block the group it replaced.  `length`
    counts the edges on its longest path: an edge's is 1, a chain's the sum
    of its parts', a block's the most of its parts'; like `expr`, it is None
    exactly when the structure is complex.  `made` numbers the substitutes
    of a contraction in the order they formed; an edge's is -1.
    """

    def __init__(self, src, dst, expr, kind, emembers=frozenset(), seq=0, parts=(), length=None):
        self.src = src
        self.dst = dst
        self.expr = expr  # Expr; None exactly when the structure is complex
        self.kind = kind  # 'edge', 'chain', 'block'
        self.emembers = emembers  # original edge ids
        self.seq = seq
        self.parts = parts
        self.length = length
        self.made = -1

    def move(self, v):
        """Put its destination at vertex `v`, and that of every part below
        it that ends there too; returns the ids of the edges it moved."""
        old, todo, moved = self.dst, [self], []
        while todo:
            ce = todo.pop()
            ce.dst = v
            if ce.parts:
                todo += [p for p in ce.parts if p.dst == old]
            else:
                moved += ce.emembers
        return moved


def edge_cedge(e, seq):
    return CEdge(e.src, e.dst, atom(e.label), "edge", frozenset([e.id]), seq, length=1)


_SEQ = operator.attrgetter("seq")


class _Contraction:
    """Series-parallel contraction of an edge list, kept at its fixpoint
    under edits.

    The live CEdges sit in attach order, indexed by source (`by_src`),
    destination (`by_dst`) and endpoint pair (`between`), each a mapping to
    ``{CEdge: None}``.  :meth:`attach` and :meth:`detach` edit them and mark
    the endpoints changed; :meth:`run` contracts around the changed vertices
    until nothing moves.  Each substitute formed keeps its parts, so the
    structures folded so far hang below the live CEdges.
    """

    def __init__(self, edges):
        self.live = {}  # CEdge -> attach position
        # `between` finds parallels at once; scanning `by_src` costs the
        # source's out-degree per attach, quadratic in a vertex's fan-out
        self.by_src, self.by_dst, self.between = {}, {}, {}
        self._attached = 0
        self._made = 0  # substitutes formed so far
        self._parallel = []  # pairs that came to hold two CEdges
        self._changed = set()  # vertices whose CEdges changed since the last run
        for i, e in enumerate(edges):
            self.attach(edge_cedge(e, i))
        self.seq = len(self.live)  # the last seq given; a stuck block takes the next

    @property
    def edges(self):
        return list(self.live)

    # -- bookkeeping ---------------------------------------------------------

    def attach(self, ce):
        src, dst = ce.src, ce.dst
        self.live[ce] = self._attached
        self._attached += 1
        self.by_src.setdefault(src, {})[ce] = None
        self.by_dst.setdefault(dst, {})[ce] = None
        between = self.between.setdefault((src, dst), {})
        between[ce] = None
        if len(between) == 2:
            self._parallel.append((src, dst))
        self._changed.add(src)
        self._changed.add(dst)

    def detach(self, ce):
        src, dst = ce.src, ce.dst
        del self.live[ce]
        for key, index in ((src, self.by_src), (dst, self.by_dst),
                           ((src, dst), self.between)):
            at = index[key]
            del at[ce]
            if not at:
                del index[key]
        self._changed.add(src)
        self._changed.add(dst)

    def _record(self, ce):
        ce.made = self._made
        self._made += 1
        return ce

    # -- substitutes ------------------------------------------------------------

    def _block(self, group):
        """The block substitute for `group`, CEdges sharing both endpoints.

        A block among them, formed earlier between the same endpoints, is an
        artifact of pass scheduling: its parts are spliced in, so the result
        does not depend on the order in which parallels were merged.  A stuck
        block is never among them: it took every path between its ends.
        """
        group = sorted(group, key=_SEQ)
        parts = sorted((p for c in group for p in (c.parts if c.kind == "block" else (c,))), key=_SEQ)
        emem = frozenset().union(*[c.emembers for c in group])
        expr = length = None
        if all(p.expr is not None for p in parts):
            expr = add(*[p.expr for p in parts])
            length = max(p.length for p in parts)
        return self._record(CEdge(
            group[0].src, group[0].dst, expr, "block", emem, group[0].seq, tuple(parts), length,
        ))

    def _chain(self, run):
        """The chain substitute for `run`, CEdges end to end.  A chain inside
        the run is spliced into it."""
        parts = tuple(p for c in run for p in (c.parts if c.kind == "chain" else (c,)))
        emem = frozenset().union(*[c.emembers for c in run])
        expr = length = None
        if all(c.expr is not None for c in run):
            expr = prod(*[c.expr for c in run])
            length = sum(c.length for c in run)
        return self._record(CEdge(
            run[0].src, run[-1].dst, expr, "chain", emem, min(map(_SEQ, run)), parts, length,
        ))

    # -- contraction ------------------------------------------------------------

    def _is_link(self, v):
        return len(self.by_src.get(v, ())) == 1 and len(self.by_dst.get(v, ())) == 1

    def _run_through(self, v):
        """The maximal run of CEdges through link vertex `v`."""
        head = [next(iter(self.by_dst[v]))]
        while self._is_link(head[-1].src):
            head.append(next(iter(self.by_dst[head[-1].src])))
        head.reverse()
        tail = [next(iter(self.by_src[v]))]
        while self._is_link(tail[-1].dst):
            tail.append(next(iter(self.by_src[tail[-1].dst])))
        return head + tail

    def run(self):
        """Contract to fixpoint around the vertices changed since the last
        run; returns those and every vertex the run changed.

        Each round merges every parallel group, in the attach order of the
        groups' first members, then collapses every maximal run through a
        changed link vertex, in seq order.  Series and parallel reductions
        are confluent, so the fixpoint does not depend on where the edits
        were; started with every vertex changed, the rounds are those of a
        sweep over the whole edge list.
        """
        touched = set()
        while self._changed:
            pairs, self._parallel = dict.fromkeys(self._parallel), []
            groups = [self.between[p] for p in pairs if len(self.between.get(p, ())) > 1]
            groups.sort(key=lambda at: self.live[next(iter(at))])
            for at in groups:
                group = list(at)
                for c in group:
                    self.detach(c)
                self.attach(self._block(group))
            changed, self._changed = self._changed, set()
            touched |= changed
            runs, inside = [], set()
            for v in changed:
                if v not in inside and self._is_link(v):
                    run = self._run_through(v)
                    inside.update(c.dst for c in run[:-1])
                    runs.append(run)
            runs.sort(key=lambda run: min(map(_SEQ, run)))
            for run in runs:
                for c in run:
                    self.detach(c)
                self.attach(self._chain(run))
        return touched


def contract(g):
    """The contraction of `g` at its fixpoint; the split passes edit it
    further, and a page reads its substitutes off it."""
    c = _Contraction(g.edges)
    c.run()
    return c


def region_expr(g, src, sink):
    """Algebraic expression of the simple region between src and sink.

    Factor order follows the root-to-terminal direction.  Raises
    :class:`ComplexBlockError` when the region contains a complex block.
    """
    edges = region_edges(g, [src], [sink])
    if not edges:
        raise StructureError(f"no paths from {src} to {sink}")
    return edges_expr(edges, src, sink)


def edges_expr(edges, src, sink):
    """Algebraic expression of a region given as its edge list, such as
    :func:`~jacfact.graph.region_edges` returns for (src, sink); raises
    :class:`ComplexBlockError` when the edges do not reduce to one.

    A series-parallel reduction over adjacency maps, vertex -> {neighbour:
    item}: items that meet between the same two vertices merge into a
    block, and the two items through a link vertex (one item in, one out)
    join into a run.  An item is ``(seq, factors, parts)``, `seq` the least
    position in `edges` of its edges: a run keeps its factor expressions
    unbuilt, along the path, and a join copies the shorter list into the
    longer; a block keeps its parts, the runs it splices in as ``(seq,
    factors)``.  A run's product is built when it becomes a block part, and
    a block's sum, its parts in seq order, when it becomes a factor, so
    each maximal run and block is built once.  The result is the node
    :class:`_Contraction` leaves on the same edges: the decomposition is
    unique, and both order a block's parts by least edge position and a
    run's along the path.
    """
    out, into = {}, {}  # vertex -> {neighbour: item}, each way
    for seq, e in enumerate(edges):
        _put(out, into, e.src, e.dst, (seq, [atom(e.label)], None))
    # popped in the order the edges first reach them, so a run listed end to
    # end grows at its tail
    todo = list(into)[::-1]
    while todo:
        v = todo.pop()
        if len(into.get(v, ())) != 1 or len(out.get(v, ())) != 1:
            continue
        (u, a), = into.pop(v).items()
        (w, b), = out.pop(v).items()
        del out[u][v], into[w][v]
        head, tail = ([_sum(it[2])] if it[1] is None else it[1] for it in (a, b))
        if len(head) < len(tail):
            tail[:0] = head
            head = tail
        else:
            head += tail
        if _put(out, into, u, w, (min(a[0], b[0]), head, None)):
            todo += (u, w)  # one item fewer at each: either may be a link now
    left = [it for at in out.values() for it in at.values()]
    if len(left) != 1:
        raise ComplexBlockError(src, sink)
    (_, factors, parts), = left
    return _sum(parts) if factors is None else prod(*factors)


def _put(out, into, u, w, item):
    """Put `item` on the pair (u, w), merged into a block with the item
    already there; whether there was one."""
    old = out.setdefault(u, {}).get(w)
    if old is not None:
        parts, more = (it[2] or [it[:2]] for it in (old, item))
        if len(parts) < len(more):
            parts, more = more, parts
        parts += more
        item = (min(old[0], item[0]), None, parts)
    out[u][w] = into.setdefault(w, {})[u] = item
    return old is not None


def _sum(parts):
    """The sum of a block's parts, in seq order."""
    return add(*[prod(*f) for _, f in sorted(parts)])


def segment_cross_level(g):
    """Insert unit-labeled filler chains so every edge spans adjacent levels.

    New vertices derive from the head (source) vertex of each cross-level
    edge and the unit hops' ids from the edge's own id, both fresh by
    :class:`~jacfact.graph.Names`; the original label and id ride on the
    final hop, so the unit hops cost nothing.
    """
    levels, cross = depth_levels(g)
    if not cross:
        return g
    vnames, ids = Names(g.vertices), Names(e.id for e in g.edges)
    edges = []
    for e in g.edges:
        if e.id not in cross:
            edges.append(e)
            continue
        span = levels[e.dst] - levels[e.src]
        hops = [e.src] + [vnames.fresh(e.src) for _ in range(span - 1)] + [e.dst]
        for a, b in zip(hops[:-2], hops[1:-1]):
            edges.append(Edge(ids.fresh(e.id), a, b, UNIT_LABEL))
        edges.append(Edge(e.id, hops[-2], hops[-1], e.label))
    return DiffGraph(edges)
