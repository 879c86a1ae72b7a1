"""Labeled differentiation-graph model and its basic queries.

A graph is a rooted multi-level DAG whose directed edges point in the
direction of dependence (roots at the top, terminals at the bottom).  Each
edge carries a symbolic label; the label ``1`` marks a unit edge inserted by
cross-level segmentation.  All queries here are pure functions over immutable
graphs, so instances can be shared freely.  :func:`region_edges` is the one
definition of a region, between two vertices or two vertex sets, as an edge
list in graph order.  :class:`Names` hands out every vertex and edge name a
rewrite makes up, so a made-up name never meets one already in use.
"""
from __future__ import annotations

import heapq
from functools import cached_property

UNIT_LABEL = "1"


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    pass


class Edge:
    """A labeled edge.  It hashes by value, so it never changes once made."""

    __slots__ = ("id", "src", "dst", "label")

    def __init__(self, id, src, dst, label):
        self.id = id
        self.src = src
        self.dst = dst
        self.label = label

    def __eq__(self, other):
        if type(other) is not Edge:
            return NotImplemented
        return (self.id, self.src, self.dst, self.label) == (
            other.id, other.src, other.dst, other.label
        )

    def __hash__(self):
        return hash((self.id, self.src, self.dst, self.label))

    def __repr__(self):
        return f"Edge(id={self.id!r}, src={self.src!r}, dst={self.dst!r}, label={self.label!r})"


class DiffGraph:
    """Immutable directed acyclic graph with labeled edges.

    Vertex and edge ids are opaque strings; deterministic outputs use
    lexicographic order.  At most one edge may connect an ordered vertex
    pair.
    """

    def __init__(self, edges):
        edges = list(edges)
        if not edges:
            raise GraphError("empty edge list")
        seen_ids = set()
        seen_pairs = set()
        for e in edges:
            if e.id in seen_ids:
                raise GraphError(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            if (e.src, e.dst) in seen_pairs:
                raise GraphError(f"duplicate edge between {e.src} and {e.dst}")
            seen_pairs.add((e.src, e.dst))
            if e.src == e.dst:
                raise GraphError(f"self loop on {e.src}")
        self.edges = tuple(edges)
        verts = set()
        for e in edges:
            verts.add(e.src)
            verts.add(e.dst)
        self.vertices = frozenset(verts)
        self._succ = {v: [] for v in verts}
        self._pred = {v: [] for v in verts}
        for e in edges:
            self._succ[e.src].append(e)
            self._pred[e.dst].append(e)
        self._toposort()  # raises on cycles

    # -- basic accessors ----------------------------------------------------

    def out_edges(self, v):
        return tuple(self._succ[v])

    def in_edges(self, v):
        return tuple(self._pred[v])

    def edge(self, edge_id):
        try:
            return self.edges[self.edge_pos[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id}") from None

    @cached_property
    def edge_pos(self):
        """Edge id -> its place in `edges`."""
        return {e.id: k for k, e in enumerate(self.edges)}

    @cached_property
    def topo_pos(self):
        """Vertex -> its place in `topo_order`."""
        return {v: k for k, v in enumerate(self.topo_order)}

    def require(self, *vertices):
        """Raise :class:`GraphError` for the first vertex not in the graph."""
        for v in vertices:
            if v not in self.vertices:
                raise GraphError(f"unknown vertex {v}")

    @property
    def roots(self):
        return tuple(sorted(v for v in self.vertices if not self._pred[v]))

    @property
    def terminals(self):
        return tuple(sorted(v for v in self.vertices if not self._succ[v]))

    def _toposort(self):
        """Kahn's algorithm, always taking the least available vertex."""
        indeg = {v: len(self._pred[v]) for v in self.vertices}
        heap = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for e in self._succ[v]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    heapq.heappush(heap, e.dst)
        if len(order) != len(self.vertices):
            stuck = sorted(v for v, d in indeg.items() if d > 0)
            raise GraphError(f"cycle detected involving {', '.join(stuck)}")
        self.topo_order = tuple(order)

    def successors(self, v):
        return [e.dst for e in self._succ[v]]

    def predecessors(self, v):
        return [e.src for e in self._pred[v]]

    def reachable_from(self, v):
        """All vertices reachable from v by directed paths of length >= 1."""
        self.require(v)
        return reach([v], self.successors)

    def reaching(self, v):
        """All vertices with a directed path of length >= 1 to v."""
        self.require(v)
        return reach([v], self.predecessors)


class Names:
    """Fresh names beside the names already taken.

    :meth:`fresh` gives `base` itself when it is free, and otherwise
    ``base.n`` for the least n >= `start` not taken.  A name handed out is
    never given back, so the least free n only grows and the search for a
    base resumes where its last one ended.
    """

    def __init__(self, taken=(), start=1):
        self.taken = set(taken)
        self.start = start
        self._next = {}  # base -> least suffix that may be free

    def fresh(self, base):
        if base not in self.taken:
            name = base
        else:
            n = self._next.get(base, self.start)
            while f"{base}.{n}" in self.taken:
                n += 1
            self._next[base] = n + 1
            name = f"{base}.{n}"
        self.taken.add(name)
        return name


def reach(starts, step, stop=()):
    """All vertices reachable from a vertex of `starts` by paths of length
    >= 1 whose interior avoids `stop`: the walk reaches a vertex of `stop`
    but does not go on from it.

    `step(v)` lists the vertex at the far end of each edge leaving v, so the
    same walk runs forward, backward, or over any adjacency.
    """
    out = set()
    stack = [w for v in starts for w in step(v)]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            if u not in stop:
                stack.extend(step(u))
    return out


def path_counts(start, step, order):
    """Number of paths from `start` to each vertex it reaches (1 to itself).

    `step` is as in :func:`reach`; `order` lists the vertices so that every
    edge points forward.  An edge listed twice by `step` counts twice.
    """
    counts = {start: 1}
    for v in order:
        if v in counts:
            for w in step(v):
                counts[w] = counts.get(w, 0) + counts[v]
    return counts


# ---------------------------------------------------------------------------
# text format: `e <edge-id> <src> <dst> [<label>]`


def parse_graph(text):
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "e" or len(parts) not in (4, 5):
            raise GraphParseError(
                f"line {lineno}: expected 'e <id> <src> <dst> [<label>]'"
            )
        eid, src, dst = parts[1:4]
        label = parts[4] if len(parts) == 5 else eid
        edges.append(Edge(eid, src, dst, label))
    try:
        return DiffGraph(edges)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc


def format_graph(g):
    lines = []
    for e in g.edges:
        if e.label == e.id:
            lines.append(f"e {e.id} {e.src} {e.dst}")
        else:
            lines.append(f"e {e.id} {e.src} {e.dst} {e.label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# queries


def classify_vertices(g):
    """Partition into (roots Y, intermediates Z, terminals X)."""
    y = g.roots
    x = g.terminals
    z = tuple(sorted(g.vertices - set(y) - set(x)))
    return y, z, x


def enumerate_paths(g, frm, to):
    """All directed paths from `frm` to `to` as tuples of edge ids.

    Deterministic: depth-first with out-edges taken in edge-id order, which
    yields paths sorted lexicographically by their edge-id sequence.
    """
    g.require(frm, to)
    out_by_id = lambda v: iter(sorted(g.out_edges(v), key=lambda e: e.id))
    paths = []
    path = []  # edge ids from frm to the vertex whose out-edges todo[-1] walks
    todo = [out_by_id(frm)]  # an out-edge iterator per vertex on the path
    while todo:
        e = next(todo[-1], None)
        if e is None:
            todo.pop()
            if path:
                path.pop()
            continue
        path.append(e.id)
        if e.dst != to:
            todo.append(out_by_id(e.dst))
            continue
        paths.append(tuple(path))
        path.pop()
    return paths


def count_paths(g, frm, to):
    """Number of directed paths from `frm` to `to` (dynamic programming)."""
    return path_counts(frm, g.successors, g.topo_order).get(to, 0)


def depth_levels(g):
    """Depth levels plus the set of cross-level edge ids.

    Roots sit at level 0 and an intermediate's level is the length of the
    longest root path to it.  All terminals share the last level, the depth
    of the graph.  An edge is cross-level when it spans more than one level.
    """
    levels = {}
    for v in g.topo_order:
        preds = g.in_edges(v)
        levels[v] = 0 if not preds else 1 + max(levels[e.src] for e in preds)
    terminals = g.terminals
    depth = max(levels[t] for t in terminals)
    for t in terminals:
        levels[t] = depth
    cross = {e.id for e in g.edges if levels[e.dst] - levels[e.src] > 1}
    return levels, cross


def rt_degrees(g):
    """Per vertex: (#roots that reach it, #terminals it reaches).

    Paths of length >= 1, so roots have r-degree 0 and terminals t-degree 0.
    """
    roots = set(g.roots)
    terminals = set(g.terminals)
    r = {v: set() for v in g.vertices}
    for v in g.topo_order:
        for e in g.in_edges(v):
            if e.src in roots:
                r[v].add(e.src)
            r[v] |= r[e.src]
    t = {v: set() for v in g.vertices}
    for v in reversed(g.topo_order):
        for e in g.out_edges(v):
            if e.dst in terminals:
                t[v].add(e.dst)
            t[v] |= t[e.dst]
    return {v: (len(r[v]), len(t[v])) for v in g.vertices}


def region_edges(g, srcs, sinks, avoid=()):
    """The edges on the paths from a vertex of `srcs` to a vertex of `sinks`
    whose interior vertices avoid both ends and `avoid`, in ``g.edges``
    order; empty when there is no such path.

    For one source and one sink this is the region of the pair: its edges
    contract to the pair's expression.  One walk goes down from the sources
    and one up from the sinks, each stopping at the ends and at `avoid`;
    the out-edges of the sources and the inner vertices are then sorted by
    ``g.edge_pos``, so the cost follows the region, not the graph.
    """
    srcs, sinks = set(srcs), set(sinks)
    g.require(*sorted(srcs | sinks))
    ends = srcs | sinks | set(avoid)
    inner = (reach(srcs, g.successors, ends) & reach(sinks, g.predecessors, ends)) - ends
    edges = [
        e for v in srcs | inner for e in g.out_edges(v)
        if e.dst in sinks or e.dst in inner
    ]
    edges.sort(key=lambda e: g.edge_pos[e.id])
    return edges
