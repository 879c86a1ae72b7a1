"""Recognition of chains, blocks and complex blocks, `inspect`'s structure
report: :func:`find_structures` runs the contraction of :mod:`jacfact.structure`
to its fixpoint and substitutes the innermost stuck block, a region no series
or parallel step contracts, until none is left.  Every chain and block formed
on the way is a :class:`Structure`."""
from __future__ import annotations

import operator

from .graph import path_counts, reach
from .structure import CEdge, _Contraction


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


def find_stuck_blocks(c, order):
    """Def-style blocks among the uncontracted remainder of contraction `c`,
    innermost first.

    A candidate (a, b) region qualifies when its interior has no edges
    escaping the region and no single interior vertex carries every
    a-to-b path.  `order` is a topological order of the contracted
    graph's vertices, such as the original graph's.
    """
    out, inn = c.by_src, c.by_dst
    down = lambda v: [ce.dst for ce in out.get(v, ())]
    up = lambda v: [ce.src for ce in inn.get(v, ())]
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
                ce.src not in region or ce.dst not in region
                for m in interior
                for side in (out, inn)
                for ce in side.get(m, ())
            ):
                continue
            to_b = path_counts(b, up, reversed(order))
            # no interior vertex m with every a-to-b path through it
            if all(from_a[m] * to_b[m] != from_a[b] for m in interior):
                candidates.append((len(region), a, b, frozenset(region)))
    candidates.sort()
    return candidates


def substitute_stuck_block(c, a, b, region):
    """Replace the live CEdges of contraction `c` inside `region` by one
    complex block from `a` to `b`."""
    group = [ce for ce in c.live if ce.src in region and ce.dst in region]
    emem = frozenset().union(*[ce.emembers for ce in group])
    for ce in group:
        c.detach(ce)
    c.seq += 1
    c.attach(c._record(CEdge(a, b, None, "block", emem, c.seq, tuple(group))))


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


def find_structures(g):
    """All maximal chains and blocks, innermost first, complex regions
    included.  Deterministic for a fixed input graph."""
    c = _Contraction(g.edges)
    while True:
        c.run()
        stuck = find_stuck_blocks(c, g.topo_order)
        if not stuck:
            break
        _, a, b, region = stuck[0]
        substitute_stuck_block(c, a, b, region)
    return _structures(c.live, g)
