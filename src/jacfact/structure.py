"""Recognition of chains, blocks and complex blocks, plus cross-level
segmentation.

Recognition works by series-parallel contraction: parallel edges merge into
block edges, maximal single-track runs collapse into chain edges, and the
rounds repeat until nothing moves.  Regions that refuse to contract are
complex blocks.  There is one contraction engine, :class:`_Contraction`,
kept at its fixpoint under edits: it contracts a graph for recognition, a
region's edge list, as :func:`~jacfact.graph.region_edges` gives it, to the
algebraic expression of a simple region, and it is the contracted view the
split passes edit and re-contract around the vertices they touch.
"""
from __future__ import annotations

import operator

from .expr import add, atom, prod
from .graph import (
    DiffGraph,
    Edge,
    Names,
    UNIT_LABEL,
    depth_levels,
    path_counts,
    reach,
    region_edges,
)


class StructureError(ValueError):
    pass


class ComplexBlockError(StructureError):
    """A region has no algebraic form; carries the offending (src, sink)."""

    def __init__(self, src, sink):
        super().__init__(f"complex block between {src} and {sink}")
        self.src = src
        self.sink = sink


class Structure:
    def __init__(self, kind, src, sink, vertices, edges):
        # direct-simple-chain, indirect-simple-chain, complex-chain,
        # direct-simple-block, indirect-simple-block, complex-block, edge
        self.kind = kind
        self.src = src
        self.sink = sink
        self.vertices = vertices  # frozenset
        self.edges = edges  # frozenset

    def __eq__(self, other):
        if type(other) is not Structure:
            return NotImplemented
        return (self.kind, self.src, self.sink, self.vertices, self.edges) == (
            other.kind, other.src, other.sink, other.vertices, other.edges
        )

    def record(self):
        return {
            "kind": self.kind,
            "src": self.src,
            "sink": self.sink,
            "vertices": sorted(self.vertices),
            "edges": sorted(self.edges),
        }


class CEdge:
    """Contraction edge: an original edge or a substitute for a structure.

    A substitute keeps its `parts`: a chain its run, end to end; a block its
    branches, in seq order; a stuck block the group it replaced.  `made`
    numbers the substitutes of a contraction in the order they formed; an
    edge's is -1.
    """

    def __init__(self, src, dst, expr, kind, emembers=frozenset(), seq=0, parts=(), made=-1):
        self.src = src
        self.dst = dst
        self.expr = expr  # Expr; None exactly when the structure is complex
        self.kind = kind  # 'edge', 'chain', 'block'
        self.emembers = emembers  # original edge ids
        self.seq = seq
        self.parts = parts
        self.made = made

    def move(self, end, v):
        """Put its `end`, "src" or "dst", at vertex `v`, and that of every
        part below it that ends there too."""
        old, todo = getattr(self, end), [self]
        while todo:
            ce = todo.pop()
            todo += [p for p in ce.parts if getattr(p, end) == old]
            setattr(ce, end, v)


def edge_cedge(e, seq):
    return CEdge(e.src, e.dst, atom(e.label), "edge", frozenset([e.id]), seq)


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
        # `between` finds parallels at once; scanning `by_src` would grow with
        # the out-degrees that forward splits build up
        self.by_src, self.by_dst, self.between = {}, {}, {}
        self._attached = 0
        self._made = 0  # substitutes formed so far
        self._parallel = []  # pairs that came to hold two CEdges
        self._changed = set()  # vertices whose CEdges changed since the last run
        for i, e in enumerate(edges):
            self.attach(edge_cedge(e, i))
        self.seq = len(self.live)

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

    def _next_seq(self):
        self.seq += 1
        return self.seq

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
        expr = None
        if all(p.expr is not None for p in parts):
            expr = add(*[p.expr for p in parts])
        return self._record(CEdge(
            group[0].src, group[0].dst, expr, "block", emem, group[0].seq, tuple(parts),
        ))

    def _chain(self, run):
        """The chain substitute for `run`, CEdges end to end.  A chain inside
        the run is spliced into it."""
        parts = tuple(p for c in run for p in (c.parts if c.kind == "chain" else (c,)))
        emem = frozenset().union(*[c.emembers for c in run])
        expr = None
        if all(c.expr is not None for c in run):
            expr = prod(*[c.expr for c in run])
        return self._record(CEdge(
            run[0].src, run[-1].dst, expr, "chain", emem, min(map(_SEQ, run)), parts,
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

    # -- complex-region handling ----------------------------------------------

    def find_stuck_blocks(self, order):
        """Def-style blocks among the uncontracted remainder, innermost first.

        A candidate (a, b) region qualifies when its interior has no edges
        escaping the region and no single interior vertex carries every
        a-to-b path.  `order` is a topological order of the contracted
        graph's vertices, such as the original graph's.
        """
        out, inn = self.by_src, self.by_dst
        down = lambda v: [c.dst for c in out.get(v, ())]
        up = lambda v: [c.src for c in inn.get(v, ())]
        verts = set(out) | set(inn)
        below = {v: reach([v], down) for v in verts}
        above = {v: reach([v], up) for v in verts}
        candidates = []
        for a in sorted(verts):
            if len(out.get(a, ())) < 2:
                continue
            from_a = path_counts(a, down, order)
            for b in sorted(below[a]):
                if len(inn.get(b, ())) < 2:
                    continue
                region = (below[a] & above[b]) | {a, b}
                interior = region - {a, b}
                if not interior:
                    continue
                if any(
                    c.src not in region or c.dst not in region
                    for m in interior
                    for side in (out, inn)
                    for c in side.get(m, ())
                ):
                    continue
                to_b = path_counts(b, up, reversed(order))
                # no interior vertex m with every a-to-b path through it
                if all(from_a[m] * to_b[m] != from_a[b] for m in interior):
                    candidates.append((len(region), a, b, frozenset(region)))
        candidates.sort()
        return candidates

    def substitute_stuck_block(self, a, b, region):
        group = [c for c in self.live if c.src in region and c.dst in region]
        emem = frozenset().union(*[c.emembers for c in group])
        for c in group:
            self.detach(c)
        self.attach(self._record(CEdge(a, b, None, "block", emem, self._next_seq(), tuple(group))))


def _direct(ce):
    """Whether a chain or block is direct: it has an expression, and each of
    its parts is an edge or a direct chain."""
    return ce.expr is not None and all(
        p.kind == "edge" or (p.kind == "chain" and _direct(p)) for p in ce.parts
    )


def _structures(live, g):
    """Every chain and block below the `live` CEdges, in the order they
    formed, each as the :class:`Structure` it stands for in `g`.  A direct
    one is simple; any other is simple exactly when it has an expression."""
    found, todo = [], list(live)
    while todo:
        ce = todo.pop()
        if ce.parts:
            found.append(ce)
            todo.extend(ce.parts)
    out = []
    for ce in sorted(found, key=operator.attrgetter("made")):
        grade = "direct-simple" if _direct(ce) else "indirect-simple" if ce.expr is not None else "complex"
        members = [g.edge(eid) for eid in ce.emembers]
        vertices = frozenset(e.src for e in members) | frozenset(e.dst for e in members)
        out.append(Structure(f"{grade}-{ce.kind}", ce.src, ce.dst, vertices, ce.emembers))
    return out


def contract(g):
    """The contraction of `g` at its fixpoint; the split passes edit it
    further, and a page reads its substitutes off it."""
    c = _Contraction(g.edges)
    c.run()
    return c


def find_structures(g):
    """All maximal chains and blocks, innermost first, complex regions
    included.  Deterministic for a fixed input graph."""
    c = _Contraction(g.edges)
    while True:
        c.run()
        stuck = c.find_stuck_blocks(g.topo_order)
        if not stuck:
            break
        _, a, b, region = stuck[0]
        c.substitute_stuck_block(a, b, region)
    return _structures(c.live, g)


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
    :class:`ComplexBlockError` when the edges contract to more than one."""
    c = _Contraction(edges)
    c.run()
    if len(c.live) == 1:
        return next(iter(c.live)).expr
    raise ComplexBlockError(src, sink)


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
