"""Recognition of chains, blocks and complex blocks, plus cross-level
segmentation.

Recognition works by iterated contraction: maximal single-track runs collapse
into chain edges, parallel edges merge into block edges, and the loop repeats
until nothing moves.  Regions that refuse to contract are complex blocks.
The same machinery contracts a region's edge list, as
:func:`~jacfact.graph.region_edges` gives it, to the algebraic expression of
a simple region, and gives the contracted view the factorization passes use.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .expr import UNIT, Sym, add, prod
from .graph import (
    DiffGraph,
    Edge,
    UNIT_LABEL,
    count_paths,
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


@dataclass
class Structure:
    kind: str  # direct-simple-chain, indirect-simple-chain, complex-chain,
    #            direct-simple-block, indirect-simple-block, complex-block, edge
    src: str
    sink: str
    vertices: frozenset
    edges: frozenset

    def record(self):
        return {
            "kind": self.kind,
            "src": self.src,
            "sink": self.sink,
            "vertices": sorted(self.vertices),
            "edges": sorted(self.edges),
        }


@dataclass(eq=False)
class CEdge:
    """Contraction edge: an original edge or a substitute for a structure."""

    src: str
    dst: str
    expr: object  # Expr, or None inside complex substitutes
    kind: str  # 'edge', 'chain', 'block'
    simple: bool
    direct: bool
    vmembers: frozenset = frozenset()  # interior vertices only
    emembers: frozenset = frozenset()  # original edge ids
    original: Edge = None
    seq: int = 0
    record_idx: int = -1
    branches: tuple = ()  # block branches as (seq, expr, kind, simple, direct)

    def as_branch(self):
        return (self.seq, self.expr, self.kind, self.simple, self.direct)


def edge_cedge(e, seq):
    expr = UNIT if e.label == UNIT_LABEL else Sym(e.label)
    return CEdge(
        e.src, e.dst, expr, "edge", True, True,
        frozenset(), frozenset([e.id]), e, seq,
    )


def block_cedge(group, book=None):
    """The block substitute for `group`, CEdges sharing both endpoints.

    A block among them, formed earlier between the same endpoints, is an
    artifact of pass scheduling: its branches fold back in, so the result
    does not depend on the order in which parallels were merged.  `book`,
    when given, is the :class:`_Contraction` that keeps the records.
    """
    group = sorted(group, key=lambda c: c.seq)
    src, dst = group[0].src, group[0].dst
    branches = []
    for c in group:
        if c.kind == "block" and c.branches:
            if book is not None:
                book._drop_record(c.record_idx)
            branches.extend(c.branches)
        else:
            branches.append(c.as_branch())
    branches.sort(key=lambda b: b[0])
    simple = all(k == "edge" or s for _, _, k, s, _ in branches)
    direct = all(k == "edge" or (k == "chain" and d) for _, _, k, _, d in branches)
    if not simple:
        kind = "complex-block"
    elif direct:
        kind = "direct-simple-block"
    else:
        kind = "indirect-simple-block"
    vmem = frozenset().union(*[c.vmembers for c in group])
    emem = frozenset().union(*[c.emembers for c in group])
    expr = None
    if simple and all(e is not None for _, e, *_ in branches):
        expr = add(*[e for _, e, *_ in branches])
    idx = -1
    if book is not None:
        idx = book._record(Structure(kind, src, dst, vmem | {src, dst}, emem))
    return CEdge(
        src, dst, expr, "block", simple, direct,
        vmem, emem, None, group[0].seq, idx, tuple(branches),
    )


def chain_cedge(run, book=None):
    """The chain substitute for `run`, CEdges end to end; `book` as in
    :func:`block_cedge`.  A chain inside the run is flattened into it."""
    if book is not None:
        for c in run:
            if c.kind == "chain":
                book._drop_record(c.record_idx)  # superseded by longer run
    src, dst = run[0].src, run[-1].dst
    interior = {c.src for c in run[1:]}
    vmem = frozenset(interior).union(*[c.vmembers for c in run])
    emem = frozenset().union(*[c.emembers for c in run])
    direct = all(c.kind == "edge" or (c.kind == "chain" and c.direct) for c in run)
    simple = all(c.kind == "edge" or c.simple for c in run)
    if direct:
        kind = "direct-simple-chain"
    elif simple:
        kind = "indirect-simple-chain"
    else:
        kind = "complex-chain"
    expr = None
    if all(c.expr is not None for c in run):
        expr = prod(*[c.expr for c in run])
    idx = -1
    if book is not None:
        idx = book._record(Structure(kind, src, dst, vmem | {src, dst}, emem))
    return CEdge(
        src, dst, expr, "chain", simple, direct,
        vmem, emem, None, min(c.seq for c in run), idx,
    )


def run_through(c, is_link, into, out_of, taken=()):
    """The maximal run of CEdges through `c` across link vertices.

    `into(v)` and `out_of(v)` give a link's one in- and out-CEdge; the run
    stops before a CEdge whose id is in `taken`.
    """
    head, tail, seen = [], [c], {id(c)}
    v = c.src
    while is_link(v):
        prev = into(v)
        if id(prev) in taken or id(prev) in seen:
            break
        head.append(prev)
        seen.add(id(prev))
        v = prev.src
    v = c.dst
    while is_link(v):
        nxt = out_of(v)
        if id(nxt) in taken or id(nxt) in seen:
            break
        tail.append(nxt)
        seen.add(id(nxt))
        v = nxt.dst
    head.reverse()
    return head + tail


_SEQ = operator.attrgetter("seq")


class _Contraction:
    def __init__(self, edges, record=True):
        self.edges = [edge_cedge(e, i) for i, e in enumerate(edges)]
        self.seq = len(self.edges)
        self.records = [] if record else None

    # -- bookkeeping ---------------------------------------------------------

    def _adj(self):
        out, inn = {}, {}
        for c in self.edges:
            out.setdefault(c.src, []).append(c)
            inn.setdefault(c.dst, []).append(c)
        return out, inn

    def _next_seq(self):
        self.seq += 1
        return self.seq

    def _record(self, structure):
        if self.records is None:
            return -1
        self.records.append(structure)
        return len(self.records) - 1

    def _drop_record(self, idx):
        if self.records is not None and idx >= 0:
            self.records[idx] = None

    # -- contraction passes ---------------------------------------------------

    def merge_parallels(self):
        groups = {}
        for c in self.edges:
            groups.setdefault((c.src, c.dst), []).append(c)
        merged, subs = set(), []
        for group in groups.values():
            if len(group) > 1:
                merged.update(map(id, group))
                subs.append(block_cedge(group, self))
        if subs:
            self.edges = [c for c in self.edges if id(c) not in merged] + subs
        return bool(subs)

    def collapse_chains(self):
        out, inn = self._adj()
        links = {v for v, cs in out.items() if len(cs) == 1 and len(inn.get(v, ())) == 1}
        at_link = [c for c in self.edges if c.src in links or c.dst in links]
        visited = set()
        runs = []
        for c in sorted(at_link, key=_SEQ):
            if id(c) in visited:
                continue
            run = run_through(c, links.__contains__, lambda v: inn[v][0], lambda v: out[v][0], visited)
            if len(run) < 2:
                continue
            visited.update(map(id, run))
            runs.append(run)
        if runs:
            self.edges = [c for c in self.edges if id(c) not in visited]
            self.edges += [chain_cedge(run, self) for run in runs]
        return bool(runs)

    def run(self):
        changed = True
        while changed:
            changed = self.merge_parallels()
            changed = self.collapse_chains() or changed
        if self.records is not None:
            self.records = [r for r in self.records if r is not None]
        return self

    # -- complex-region handling ----------------------------------------------

    def find_stuck_blocks(self, order):
        """Def-style blocks among the uncontracted remainder, innermost first.

        A candidate (a, b) region qualifies when its interior has no edges
        escaping the region and no single interior vertex carries every
        a-to-b path.  `order` is a topological order of the contracted
        graph's vertices, such as the original graph's.
        """
        out, inn = self._adj()
        down = lambda v: [c.dst for c in out.get(v, [])]
        up = lambda v: [c.src for c in inn.get(v, [])]
        verts = set(out) | set(inn)
        below = {v: reach(v, down) for v in verts}
        above = {v: reach(v, up) for v in verts}
        candidates = []
        for a in sorted(verts):
            if len(out.get(a, [])) < 2:
                continue
            from_a = path_counts(a, down, order)
            for b in sorted(below[a]):
                if len(inn.get(b, [])) < 2:
                    continue
                region = (below[a] & above[b]) | {a, b}
                interior = region - {a, b}
                if not interior:
                    continue
                if any(
                    c.src not in region or c.dst not in region
                    for m in interior
                    for c in out.get(m, []) + inn.get(m, [])
                ):
                    continue
                to_b = path_counts(b, up, reversed(order))
                # no interior vertex m with every a-to-b path through it
                if all(from_a[m] * to_b[m] != from_a[b] for m in interior):
                    candidates.append((len(region), a, b, frozenset(region)))
        candidates.sort()
        return candidates

    def substitute_stuck_block(self, a, b, region):
        group = [c for c in self.edges if c.src in region and c.dst in region]
        vmem = (region - {a, b}) | frozenset().union(*[c.vmembers for c in group])
        emem = frozenset().union(*[c.emembers for c in group])
        idx = self._record(Structure("complex-block", a, b, region | vmem, emem))
        sub = CEdge(a, b, None, "block", False, False, frozenset(vmem), emem,
                    None, self._next_seq(), idx)
        gone = set(map(id, group))
        self.edges = [c for c in self.edges if id(c) not in gone] + [sub]


def contract(g, record=True):
    """Contract to fixpoint; returns the contraction state."""
    return _Contraction(g.edges, record=record).run()


def find_structures(g):
    """All maximal chains and blocks, innermost first, complex regions
    included.  Deterministic for a fixed input graph."""
    c = contract(g)
    while True:
        stuck = c.find_stuck_blocks(g.topo_order)
        if not stuck:
            break
        _, a, b, region = stuck[0]
        c.substitute_stuck_block(a, b, region)
        c.run()
    return [r for r in c.records if r is not None]


def classify_block(g, src, sink):
    """Classification of the structure between a vertex pair.

    Returns the outermost structure recorded for the pair; a bare original
    edge with no other paths classifies as ``edge``.
    """
    structures = find_structures(g)
    found = [s for s in structures if s.src == src and s.sink == sink]
    if found:
        return found[-1]
    for e in g.edges:
        if e.src == src and e.dst == sink:
            if count_paths(g, src, sink) == 1:
                return Structure(
                    "edge", src, sink, frozenset([src, sink]), frozenset([e.id])
                )
    raise StructureError(f"no chain or block between {src} and {sink}")


def region_expr(g, src, sink):
    """Algebraic expression of the simple region between src and sink.

    Factor order follows the root-to-terminal direction.  Raises
    :class:`ComplexBlockError` when the region contains a complex block.
    """
    edges = region_edges(g, src, sink)
    if not edges:
        raise StructureError(f"no paths from {src} to {sink}")
    return edges_expr(edges, src, sink)


def edges_expr(edges, src, sink):
    """Algebraic expression of a region given as its edge list, such as
    :func:`~jacfact.graph.region_edges` returns for (src, sink); raises
    :class:`ComplexBlockError` when the edges contract to more than one."""
    c = _Contraction(edges, record=False).run()
    if len(c.edges) == 1:
        return c.edges[0].expr
    raise ComplexBlockError(src, sink)


def segment_cross_level(g):
    """Insert unit-labeled filler chains so every edge spans adjacent levels.

    New vertices derive from the head (source) vertex of each cross-level
    edge; the original label rides on the final hop, so the unit hops cost
    nothing.
    """
    levels, cross = depth_levels(g)
    if not cross:
        return g
    existing = set(g.vertices)
    edges = []
    for e in g.edges:
        if e.id not in cross:
            edges.append(e)
            continue
        span = levels[e.dst] - levels[e.src]
        waypoints = []
        n = 1
        while len(waypoints) < span - 1:
            cand = f"{e.src}.{n}"
            n += 1
            if cand in existing:
                continue
            existing.add(cand)
            waypoints.append(cand)
        hops = [e.src] + waypoints + [e.dst]
        for k in range(span - 1):
            edges.append(Edge(f"{e.id}.{k + 1}", hops[k], hops[k + 1], UNIT_LABEL))
        edges.append(Edge(e.id, hops[-2], hops[-1], e.label))
    return DiffGraph(edges)
