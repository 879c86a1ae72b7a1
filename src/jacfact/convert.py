"""Conversion between simple differentiation graphs and expressions.

A simple region (nested chains and simple blocks) converts to a single
parenthesized expression and back again; complex blocks have no expression
form and must be factorized first.
"""
from __future__ import annotations

from .expr import Prod, Sum, Sym, _Unit
from .graph import DiffGraph, Edge, Names, UNIT_LABEL
from .structure import StructureError, region_expr


def graph_to_expr(g, src=None, sink=None):
    """Expression of the region between src and sink (defaults: the unique
    root and terminal).  Raises :class:`ComplexBlockError` on complex blocks.
    """
    if src is None or sink is None:
        roots, terminals = g.roots, g.terminals
        if len(roots) != 1 or len(terminals) != 1:
            raise StructureError(
                "graph has multiple roots or terminals; pass src and sink"
            )
        src = src or roots[0]
        sink = sink or terminals[0]
    return region_expr(g, src, sink)


class _GraphBuilder:
    def __init__(self):
        self.edges = []
        self.vcount = 0
        self.ids = Names(start=2)

    def new_vertex(self):
        self.vcount += 1
        return f"v{self.vcount}"

    def add_edge(self, src, dst, label):
        self.edges.append(Edge(self.ids.fresh(label), src, dst, label))


def expr_to_graph(e):
    """Simple graph realizing the expression; converting back recovers the
    input.

    Sum terms expand to parallel branches.  A bare-symbol term after the
    first gets a unit-padded waypoint so vertex pairs keep at most one edge;
    the padding is free and disappears on the way back.
    """
    b = _GraphBuilder()
    src = b.new_vertex()
    sink = b.new_vertex()
    todo = [(e, src, sink, False)]  # pre-order, so vertices number as they are met
    while todo:
        node, src, dst, pad = todo.pop()
        if isinstance(node, (Sym, _Unit)):
            label = UNIT_LABEL if isinstance(node, _Unit) else node.name
            if pad:
                mid = b.new_vertex()
                b.add_edge(src, mid, label)
                b.add_edge(mid, dst, UNIT_LABEL)
            else:
                b.add_edge(src, dst, label)
        elif isinstance(node, Prod):
            waypoints = [src] + [b.new_vertex() for _ in node.factors[:-1]] + [dst]
            todo.extend(reversed([
                (f, a, z, False) for f, a, z in zip(node.factors, waypoints, waypoints[1:])
            ]))
        elif isinstance(node, Sum):
            frames, atom_seen = [], False
            for t in node.terms:
                atom = isinstance(t, (Sym, _Unit))
                frames.append((t, src, dst, atom and atom_seen))
                atom_seen = atom_seen or atom
            todo.extend(reversed(frames))
        else:
            raise StructureError(f"not an expression: {node!r}")
    return DiffGraph(b.edges)
