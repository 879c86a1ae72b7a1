"""Complex-block factorization, the page planner, and :func:`plan`.

Backward factorization walks intermediates bottom-up and splits every vertex
whose contracted in-degree exceeds one, duplicating its outgoing side per
incoming route.  Forward factorization, which splits out-degree overlaps
top-down, is backward factorization on the reversed graph, reversed back:
reversing every edge transposes the Jacobian, so the split engine has one
direction.  Treating a whole simple block as a single edge during splitting
keeps the duplication coarse; in ref mode such a block becomes a named
reference edge instead of being copied.  The passes edit one working graph
in place (:class:`SplitGraph`), whose contracted view is its vertex index
and gives its levels; both stay current by re-contracting only around the
vertex each pass splits and levelling only what the pass made.

Graphs with several roots or terminals are handled by the page strategy,
:func:`plan_pages`, whose steps :mod:`jacfact.pages` holds and which loads
them only when it runs.  Reference names come from
:meth:`~jacfact.expr.ExprSet.intern`: ref mode interns into the set it
returns, and the pages of one plan share one set; either set reserves the
input's labels, so no reference is named after one.  Every name the split
passes make up comes from :class:`~jacfact.graph.Names`.
"""
from __future__ import annotations

from functools import cached_property

from .expr import ExprSet, inline_single_use
from .graph import DiffGraph, Edge, Names, depth_levels, region_edges
from .structure import CEdge, contract, edge_cedge, region_expr


class FactorizationError(ValueError):
    pass


_MAX_PASSES = 10_000


# ---------------------------------------------------------------------------
# the working graph


class SplitGraph:
    """The working graph of the backward split passes, edited in place.

    `edges` maps edge id to edge in the order of an edge list: a retargeted
    edge keeps its place and a new edge goes last, so :meth:`graph` lists
    the edges in the order they were edited in, and `_clock` counts the
    edges made so far.  Names, once used, are never handed out again.  Its
    one vertex index is `view`, the contraction of the current graph held at
    its fixpoint, whose `by_src` and `by_dst` (vertex -> {CEdge: None}) it
    exposes: an inner vertex of a chain or block has all its edges inside
    it, so no split target hides there.  Besides these it keeps `level`,
    for each view vertex with an out-CEdge the length of the longest root
    path to it (what ``depth_levels`` gives it), summed from CEdge lengths;
    and `crowded`, the vertices whose contracted in-degree is above one.  A
    split pass detaches and attaches the CEdges around one vertex, runs the
    contraction around them and levels what it made (see :meth:`_relevel`),
    so it costs about what it copies: none rebuilds, re-contracts or
    re-levels the whole graph.
    """

    def __init__(self, g):
        self.edges = {e.id: e for e in g.edges}
        self._clock = len(g.edges)
        self.vnames, self.ids = Names(g.vertices), Names(self.edges)
        self.view = contract(g)
        self.by_src, self.by_dst = self.view.by_src, self.view.by_dst
        self.crowded = set()
        self._recount(self.by_dst)
        self.level = {}
        self._relevel(self.by_src)

    def graph(self):
        return DiffGraph(self.edges.values())

    def add(self, src, dst, label, base_id):
        eid = self.ids.fresh(base_id)
        self.edges[eid] = Edge(eid, src, dst, label)
        self._clock += 1
        return eid

    def name_structure(self, ce, refs):
        """Replace the edges of the contracted structure `ce` by one edge
        labeled with the name `refs` interns for its expression; returns
        that edge."""
        name = refs.intern(ce.expr).name
        for eid in ce.emembers:
            del self.edges[eid]
        return self.edges[self.add(ce.src, ce.dst, name, name)]

    def _recount(self, vertices):
        for v in vertices:
            if len(self.by_dst.get(v, ())) > 1:
                self.crowded.add(v)
            else:
                self.crowded.discard(v)

    # -- levels ---------------------------------------------------------------

    def _relevel(self, touched, named=False):
        """Bring `level` up to date after the CEdges of the `touched`
        vertices changed; predecessors go first.

        A level is the most, over the CEdges into the vertex, of the
        source's level plus the CEdge's length.  Only view vertices with an
        out-CEdge keep one: no split targets a terminal, and a vertex that
        left the view or lost its out-CEdges drops its level.

        A pass that names nothing moves no kept level: a copy takes one
        route of the vertex it copies, so the copy of its longest route is
        as deep as the vertex was, a carried structure keeps its length, and
        merges and collapses keep maxima and sums.  So the touched vertices
        with no level yet, the pass's copies, are levelled; only a pass that
        `named` a structure, making it one edge and shortening the paths
        through it, recomputes every touched vertex, and those below a kept
        level that moved."""
        level, by_src, by_dst = self.level, self.by_src, self.by_dst
        todo = set()
        for v in touched:
            if v not in by_src:
                level.pop(v, None)
            elif named or v not in level:
                todo.add(v)
        while todo:
            stack = [todo.pop()]
            while stack:
                u = stack[-1]
                into = by_dst.get(u, ())
                waiting = [ce.src for ce in into if ce.src in todo or ce.src not in level]
                if waiting:
                    todo.difference_update(waiting)
                    stack += waiting
                    continue
                stack.pop()
                new = max((level[ce.src] + ce.length for ce in into), default=0)
                old = level.get(u)
                if old != new:
                    level[u] = new
                    if old is not None:
                        todo.update(ce.dst for ce in by_src[u] if ce.dst in by_src)

    # -- the split pass -------------------------------------------------------

    def split(self, refs):
        """Split the deepest crowded intermediate, ties to the least name;
        False when none remains.

        Each route into it gets a fresh copy of the vertex together with a
        copy of everything it carries below, and the vertex goes.  In ref
        mode a carried structure is named and copied as one reference edge
        instead.
        """
        targets = [v for v in self.crowded if v in self.level]
        if not targets:
            return False
        v = min(targets, key=lambda u: (-self.level[u], u))
        routes = sorted(self.by_dst[v], key=lambda ce: ce.seq)
        carried = sorted(self.by_src[v], key=lambda ce: ce.seq)
        for ce in routes + carried:
            self.view.detach(ce)

        # In ref mode, structures that would be copied become reference edges.
        named = refs is not None and any(ce.kind != "edge" for ce in carried)
        if named:
            carried = [
                ce if ce.kind == "edge" else edge_cedge(self.name_structure(ce, refs), ce.seq)
                for ce in carried
            ]

        for route in routes:
            copy = self.vnames.fresh(v)
            # the route and its edges at v now end at the copy
            for eid in route.move(copy):
                e = self.edges[eid]
                self.edges[eid] = Edge(eid, e.src, copy, e.label)
            self.view.attach(route)
            for ce in carried:
                self._copy_substructure(ce, copy)
        for ce in carried:
            for eid in ce.emembers:
                del self.edges[eid]
        touched = self.view.run()
        self._recount(touched)
        self._relevel(touched, named)
        return True

    def _copy_substructure(self, ce, new_src):
        """Fresh copy of a carried CEdge's member edges from `new_src` to
        its destination, its interior vertices renamed, as raw edges for the
        view to contract.  Each is attached with a fresh id and the `expr`
        and `length` of its edge's CEdge, `ce` or a leaf of its parts, in id
        order, which fixes the copies' ids, seqs and names."""
        leaves, vmap = [ce], {ce.src: new_src, ce.dst: ce.dst}
        if ce.parts:
            by_id, todo = {}, [ce]
            while todo:
                c = todo.pop()
                if c.parts:
                    todo += c.parts
                else:
                    by_id[min(c.emembers)] = c
            leaves = [by_id[eid] for eid in sorted(by_id)]
            for v in sorted({v for c in leaves for v in (c.src, c.dst)} - vmap.keys()):
                vmap[v] = self.vnames.fresh(v)
        for c in leaves:
            (eid,) = c.emembers
            src, dst = vmap[c.src], vmap[c.dst]
            new = self.add(src, dst, self.edges[eid].label, eid)
            self.view.attach(CEdge(src, dst, c.expr, "edge", frozenset([new]), self._clock - 1,
                                   length=c.length))


def _settle(g, refs=None):
    """The :class:`SplitGraph` of `g` once no split pass changes it."""
    work = SplitGraph(g)
    for _ in range(_MAX_PASSES):
        if not work.split(refs):
            return work
    raise FactorizationError("factorization did not settle")


def _factorize(g, refs=None):
    return _settle(g, refs).graph()


def factorize_backward(g):
    """Split in-degree overlaps bottom-up until no complex block remains."""
    return _factorize(g)


def factorize_forward(g):
    """Split out-degree overlaps top-down: backward factorization of the
    reversed graph, reversed back.  The output is built once, from the
    engine's edges turned around in their order, as
    :meth:`~jacfact.graph.DiffGraph.reversed` would turn them."""
    edges = _settle(g.reversed()).edges.values()
    return DiffGraph(Edge(e.id, e.dst, e.src, e.label) for e in edges)


def factorize_with_refs(g):
    """Factorize, naming every structure that would otherwise be copied.

    Returns (graph, ExprSet); the set holds the reference definitions plus
    one entry per connected root-terminal pair, with single-use names
    inlined away.
    """
    s = ExprSet()
    s.reserve(e.label for e in g.edges)
    out = _factorize(g, refs=s)
    return out, inline_single_use(_region_set(out, s))


def _region_set(g, s):
    """`s` plus one entry per connected root-terminal pair of `g`: its region."""
    for y, x in _active_pairs(g):
        s.add_entry(y, x, region_expr(g, y, x))
    return s


# ---------------------------------------------------------------------------
# page strategy


def _active_pairs(g):
    """The (root, terminal) pairs a path connects, by root, then terminal."""
    up = g.reach_bits[1]
    terminals = g.terminals
    return [(y, x) for y in g.roots for k, x in enumerate(terminals) if up[y] >> k & 1]


def plan_pages(g):
    """Run the page strategy; returns (pages, merged ExprSet, transcript).

    Shared simple structures become reference edges first.  A page splits
    whenever its pivot pair does not span all of its roots and terminals;
    root/terminal pairs are then peeled off (preferring the edges that cross
    the most levels) until single-pair pages remain, and multi-level middles
    are compressed one level per pass.  Every page is cut from its parent
    page's graph as the set regions :func:`~jacfact.graph.region_edges`
    gives, so a page's vertices are vertices of the input.  The union of
    pages covers every root-terminal entry of the input.
    """
    from . import pages

    transcript = []
    refs = ExprSet()
    refs.reserve(e.label for e in g.edges)
    queue = [pages.Page(0, g, refs)]
    done = []
    next_pid = 1
    guard = 0
    while queue:
        guard += 1
        if guard > _MAX_PASSES:
            raise FactorizationError("page planning did not settle")
        page = queue.pop(0)
        pages._replace_simple_structures(page, transcript)
        g_p = page.graph
        roots, terminals = list(g_p.roots), list(g_p.terminals)
        pivots = None
        if (len(roots), len(terminals)) != (1, 1):
            levels, _ = depth_levels(g_p)
            pivots = pages._pivots(g_p, levels)
        if pivots is None:
            done.append(pages._finalize(page, transcript))
            continue
        v_i, v_j = pivots
        down, up = g_p.reach_bits
        y_i = [y for k, y in enumerate(roots) if down[v_i] >> k & 1]
        x_j = [x for k, x in enumerate(terminals) if up[v_j] >> k & 1]
        if y_i != roots or x_j != terminals:
            other_y = set(roots) - set(y_i)
            other_x = set(terminals) - set(x_j)
            rest = region_edges(g_p, other_y, terminals) + region_edges(g_p, roots, other_x)
            pages._note(transcript, "split-page", page, pivots=[v_i, v_j], roots=y_i, terminals=x_j)
            cut = region_edges(g_p, y_i, x_j), rest
        elif levels[v_i] == levels[v_j] or len(region_edges(g_p, [v_i], [v_j])) == 1:
            cut = pages._separate(page, v_i, v_j, levels, transcript)
        else:
            pages._band_pass(page, v_i, v_j, levels, transcript)
            queue.append(page)
            continue
        queue += [pages._page_from_edges(page, edges, next_pid + k) for k, edges in enumerate(cut)]
        next_pid += 2
    return done, pages.merge_pages(done), transcript


# ---------------------------------------------------------------------------
# one entry for every strategy


class Plan:
    """What :func:`plan` returns: `exprset`, the expression set that carries
    the cost; `graph`, the factorized graph of backward, forward and refs;
    `pages` and `transcript`, those of pages.  Backward and forward work out
    `exprset` on first read, as their graph's per-pair region expressions."""

    def __init__(self, graph=None, exprset=None, pages=None, transcript=None):
        self.graph, self.pages, self.transcript = graph, pages, transcript
        if exprset is not None:
            self.exprset = exprset

    @cached_property
    def exprset(self):
        return _region_set(self.graph, ExprSet())


def plan(g, strategy):
    """The :class:`Plan` that `strategy` makes for `g`: backward, forward,
    refs, pages, or chain, :func:`~jacfact.localjac.level_chain` accumulated
    in its cheapest order."""
    if strategy == "backward":
        return Plan(factorize_backward(g))
    if strategy == "forward":
        return Plan(factorize_forward(g))
    if strategy == "refs":
        return Plan(*factorize_with_refs(g))
    if strategy == "pages":
        pages, s, transcript = plan_pages(g)
        return Plan(exprset=s, pages=pages, transcript=transcript)
    if strategy == "chain":
        from .localjac import accumulate, best_accumulation_order, level_chain

        chain = level_chain(g)
        tree, _ = best_accumulation_order(chain, bound=len(chain))
        return Plan(exprset=accumulate(chain, tree)[0])
    raise ValueError(f"unknown strategy {strategy!r}")
