"""Complex-block factorization, the page planner, and :func:`plan`.

Backward factorization walks intermediates bottom-up and splits every vertex
whose contracted in-degree exceeds one, duplicating its outgoing side per
incoming route; forward factorization mirrors this top-down on out-degrees.
Treating a whole simple block as a single edge during splitting keeps the
duplication coarse; in ref mode such a block becomes a named reference edge
instead of being copied.  The passes edit one indexed working graph in
place (:class:`SplitGraph`), which keeps its contracted view and levels
current by re-contracting only around the vertex each pass splits.

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
from .structure import contract, edge_cedge, region_expr


class FactorizationError(ValueError):
    pass


_MAX_PASSES = 10_000


# ---------------------------------------------------------------------------
# the working graph


class SplitGraph:
    """The working graph of the split passes in one direction, edited in
    place and indexed by edge id and vertex.

    `edges` keeps the order of an edge list: a retargeted edge keeps its
    place and a new edge goes last, so :meth:`graph` lists the edges in the
    order they were edited in, and `_clock` counts the edges made so far.  A
    vertex exists while it has an edge; names, once used, are never handed
    out again.  Besides the edges it keeps `view`, the contraction of the current graph
    held at its fixpoint, whose `by_src` and `by_dst` (vertex ->
    {CEdge: None}) it exposes; each vertex's level, the length of the
    longest root path to it (what ``depth_levels`` gives every vertex but a
    terminal); and `crowded`, the vertices whose contracted in-degree
    (backward) or out-degree (forward) is above one.  A split pass detaches
    and attaches the CEdges around one vertex and runs the contraction
    around them, so no pass rebuilds or re-contracts the whole graph.
    """

    def __init__(self, g, direction):
        self.edges = {e.id: e for e in g.edges}
        self._clock = len(g.edges)
        self.succ = {v: {} for v in g.vertices}  # vertex -> {edge id: None}
        self.pred = {v: {} for v in g.vertices}
        for e in g.edges:
            self.succ[e.src][e.id] = None
            self.pred[e.dst][e.id] = None
        self.vnames, self.ids = Names(g.vertices), Names(self.edges)
        self.backward = direction == "backward"
        self.view = contract(g)
        self.by_src, self.by_dst = self.view.by_src, self.view.by_dst
        self.crowded = set()
        self._recount(g.vertices)
        self._stale = set()  # vertices whose in-edges changed since the last relevel
        levels, _ = depth_levels(g)
        self.level = {v: lv for v, lv in levels.items() if g.out_edges(v)}

    def graph(self):
        return DiffGraph(self.edges.values())

    def add(self, src, dst, label, base_id):
        eid = self.ids.fresh(base_id)
        e = Edge(eid, src, dst, label)
        self.edges[eid] = e
        self._clock += 1
        self._link(e)
        return eid

    def name_structure(self, ce, refs):
        """Replace the edges of the contracted structure `ce` by one edge
        labeled with the name `refs` interns for its expression; returns
        that edge."""
        name = refs.intern(ce.expr).name
        for eid in ce.emembers:
            self.remove(eid)
        return self.edges[self.add(ce.src, ce.dst, name, name)]

    def remove(self, eid):
        e = self.edges.pop(eid)
        self._unlink(e)
        self._prune(e.src, e.dst)

    def retarget(self, eid, new_dst=None, new_src=None):
        e = self.edges[eid]
        moved = Edge(e.id, new_src or e.src, new_dst or e.dst, e.label)
        self._unlink(e)
        self.edges[eid] = moved
        self._link(moved)
        self._prune(e.src, e.dst)

    def _link(self, e):
        for v in (e.src, e.dst):
            if v not in self.succ:
                self.succ[v], self.pred[v] = {}, {}
        self.succ[e.src][e.id] = None
        self.pred[e.dst][e.id] = None
        self._stale.add(e.dst)

    def _unlink(self, e):
        del self.succ[e.src][e.id]
        del self.pred[e.dst][e.id]
        self._stale.add(e.dst)

    def _prune(self, *vertices):
        """Drop each of `vertices` once its last edge is gone."""
        for v in vertices:
            if not self.succ[v] and not self.pred[v]:
                del self.succ[v], self.pred[v]
                self.level.pop(v, None)

    def _recount(self, vertices):
        side = self.by_dst if self.backward else self.by_src
        for v in vertices:
            if len(side.get(v, ())) > 1:
                self.crowded.add(v)
            else:
                self.crowded.discard(v)

    def _add_attached(self, src, dst, label, base_id):
        """:meth:`add` an edge and attach it to the view, numbered by its
        place in edit order."""
        e = self.edges[self.add(src, dst, label, base_id)]
        self.view.attach(edge_cedge(e, self._clock - 1))

    # -- levels ---------------------------------------------------------------

    def _relevel(self):
        """Recompute the levels of the vertices whose in-edges changed, and
        of their descendants while a level moves; predecessors go first.

        Terminals keep no level: no split targets one and none ever gains an
        out-edge, so nothing reads it, and a terminal's in-degree is what
        grows the most."""
        level, edges, succ = self.level, self.edges, self.succ
        todo = {v for v in self._stale if succ.get(v)}
        self._stale.clear()
        while todo:
            stack = [todo.pop()]
            while stack:
                u = stack[-1]
                srcs = [edges[i].src for i in self.pred[u]]
                waiting = [p for p in srcs if p in todo or p not in level]
                if waiting:
                    todo.difference_update(waiting)
                    stack += waiting
                    continue
                stack.pop()
                new = 1 + max(level[p] for p in srcs) if srcs else 0
                if level.get(u) != new:
                    level[u] = new
                    todo.update(w for w in (edges[i].dst for i in succ[u]) if succ[w])

    # -- the split pass -------------------------------------------------------

    def split(self, refs):
        """Split the deepest (backward) or shallowest (forward) crowded
        intermediate, ties to the least name; False when none remains.

        Each route into it (backward; out of it, forward) gets a fresh copy
        of the vertex together with a copy of everything it carries on the
        other side, and the vertex goes.  In ref mode a carried structure
        is named and copied as one reference edge instead.
        """
        backward, level = self.backward, self.level
        targets = [v for v in self.crowded if self.pred[v] and self.succ[v]]
        if not targets:
            return False
        if backward:
            v = min(targets, key=lambda u: (-level[u], u))
            routes, carried = self.by_dst[v], self.by_src.get(v, ())
        else:
            v = min(targets, key=lambda u: (level[u], u))
            routes, carried = self.by_src[v], self.by_dst.get(v, ())
        routes = sorted(routes, key=lambda ce: ce.seq)
        carried = sorted(carried, key=lambda ce: ce.seq)
        for ce in routes + carried:
            self.view.detach(ce)

        # In ref mode, structures that would be copied become reference edges.
        if refs is not None:
            carried = [
                ce if ce.kind == "edge" else edge_cedge(self.name_structure(ce, refs), ce.seq)
                for ce in carried
            ]

        for route in routes:
            copy = self.vnames.fresh(v)
            # the route and its edges at v now end (backward) or start at the copy
            at_v = self.pred[v] if backward else self.succ[v]
            for eid in [i for i in at_v if i in route.emembers]:
                if backward:
                    self.retarget(eid, new_dst=copy)
                else:
                    self.retarget(eid, new_src=copy)
            route.move("dst" if backward else "src", copy)
            self.view.attach(route)
            for ce in carried:
                src, dst = (copy, ce.dst) if backward else (ce.src, copy)
                self._copy_substructure(ce, src, dst)
        for ce in carried:
            for eid in ce.emembers:
                self.remove(eid)
        self._recount(self.view.run())
        self._relevel()
        return True

    def _copy_substructure(self, ce, new_src, new_dst):
        """Fresh copy of a carried CEdge's member edges between the given
        endpoints, its interior vertices renamed, as raw edges for the view
        to contract."""
        members = [self.edges[eid] for eid in sorted(ce.emembers)]
        interior = {v for e in members for v in (e.src, e.dst)} - {ce.src, ce.dst}
        vmap = {v: self.vnames.fresh(v) for v in sorted(interior)}
        vmap[ce.src], vmap[ce.dst] = new_src, new_dst
        for e in members:
            self._add_attached(vmap[e.src], vmap[e.dst], e.label, e.id)


def _factorize(g, direction, refs=None):
    work = SplitGraph(g, direction)
    for _ in range(_MAX_PASSES):
        if not work.split(refs):
            return work.graph()
    raise FactorizationError("factorization did not settle")


def factorize_backward(g):
    """Split in-degree overlaps bottom-up until no complex block remains."""
    return _factorize(g, "backward")


def factorize_forward(g):
    """Mirror of backward: split out-degree overlaps top-down."""
    return _factorize(g, "forward")


def factorize_with_refs(g, direction="backward"):
    """Factorize, naming every structure that would otherwise be copied.

    Returns (graph, ExprSet); the set holds the reference definitions plus
    one entry per connected root-terminal pair, with single-use names
    inlined away.
    """
    s = ExprSet()
    s.reserve(e.label for e in g.edges)
    out = _factorize(g, direction, refs=s)
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
