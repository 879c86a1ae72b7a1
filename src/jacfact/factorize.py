"""Complex-block factorization and the multi-root/terminal page strategy.

Backward factorization walks intermediates bottom-up and splits every vertex
whose contracted in-degree exceeds one, duplicating its outgoing side per
incoming route; forward factorization mirrors this top-down on out-degrees.
Treating a whole simple block as a single edge during splitting keeps the
duplication coarse; in ref mode such a block becomes a named reference edge
instead of being copied.  The passes edit one indexed working graph in
place (:class:`SplitGraph`), which keeps its contracted view and levels
current by re-contracting only around the vertex each pass splits.

Graphs with several roots or terminals are handled by the page strategy:
shared simple structures become reference edges, a pivot pair guides page
splits and root/terminal separations, and stubborn multi-level sections are
compressed one level at a time.  The pages that fall out are simple per
root-terminal pair and merge into one expression set.  Reference names come
from :meth:`~jacfact.expr.ExprSet.intern`: ref mode interns into the set it
returns, and the pages of one plan share one set.  Every pair region is
the edge list :func:`~jacfact.graph.region_edges` gives; only a complex
region that must be factorized is built into a graph.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .expr import ExprSet, Sym, UNIT, _Unit, add, format_expr, inline_single_use, prod
from .graph import (
    DiffGraph,
    Edge,
    UNIT_LABEL,
    count_paths,
    depth_levels,
    region_edges,
    roots_reaching,
    terminals_reachable,
)
from .structure import (
    ComplexBlockError,
    contract,
    edge_cedge,
    edges_expr,
    region_expr,
)


class FactorizationError(ValueError):
    pass


_MAX_PASSES = 10_000


@dataclass
class Page:
    pid: int
    graph: DiffGraph
    provenance: dict
    refs: ExprSet  # the reference definitions, shared by every page of a plan
    entries: list = None  # [((root, terminal), Expr)] once finalized


# ---------------------------------------------------------------------------
# the working graph


class WorkGraph:
    """A graph under in-place edits, indexed by edge id, vertex and pair.

    `edges` keeps the order of an edge list: a retargeted edge keeps its
    place and a new edge goes last, so :meth:`graph` lists the edges in the
    order they were edited in, and `stamp` numbers them in that order.  A
    vertex exists while it has an edge.  Vertex and edge names, once used,
    are never handed out again, even after their edges are gone.
    """

    def __init__(self, g):
        self.edges = {e.id: e for e in g.edges}
        self.stamp = {e.id: k for k, e in enumerate(g.edges)}
        self._clock = len(g.edges)
        self.succ = {v: {} for v in g.vertices}  # vertex -> {edge id: None}
        self.pred = {v: {} for v in g.vertices}
        self.pair = {}  # (src, dst) -> edge id
        for e in g.edges:
            self.succ[e.src][e.id] = None
            self.pred[e.dst][e.id] = None
            self.pair[e.src, e.dst] = e.id
        self._vnames = set(g.vertices)
        self._enames = set(self.edges)
        self._vsuffix, self._esuffix = {}, {}  # base -> least suffix maybe free

    def graph(self):
        return DiffGraph(self.edges.values())

    def has_vertex(self, v):
        return v in self.succ

    def in_edges(self, v):
        return [self.edges[i] for i in self.pred[v]]

    def out_edges(self, v):
        return [self.edges[i] for i in self.succ[v]]

    @staticmethod
    def _fresh(base, names, suffix):
        """``base.n`` for the least n not in `names`.  Names are never
        dropped from `names`, so the least free n only grows and the search
        resumes where the last one for `base` ended."""
        n = suffix.get(base, 1)
        while f"{base}.{n}" in names:
            n += 1
        suffix[base] = n + 1
        name = f"{base}.{n}"
        names.add(name)
        return name

    def fresh_vertex(self, base):
        return self._fresh(base, self._vnames, self._vsuffix)

    def fresh_edge_id(self, base):
        if base not in self._enames:
            self._enames.add(base)
            return base
        return self._fresh(base, self._enames, self._esuffix)

    def add(self, src, dst, label, base_id=None):
        eid = self.fresh_edge_id(base_id or label)
        e = Edge(eid, src, dst, label)
        self.edges[eid] = e
        self.stamp[eid] = self._clock
        self._clock += 1
        self._link(e)
        return eid

    def remove(self, eid):
        e = self.edges.pop(eid)
        del self.stamp[eid]
        self._unlink(e)
        self._prune(e.src)
        self._prune(e.dst)

    def retarget(self, eid, new_dst=None, new_src=None):
        e = self.edges[eid]
        moved = Edge(e.id, new_src or e.src, new_dst or e.dst, e.label)
        self._unlink(e)
        self.edges[eid] = moved
        self._link(moved)
        self._prune(e.src)
        self._prune(e.dst)
        return moved

    def _link(self, e):
        for v in (e.src, e.dst):
            if v not in self.succ:
                self.succ[v], self.pred[v] = {}, {}
                self._vnames.add(v)
        self.succ[e.src][e.id] = None
        self.pred[e.dst][e.id] = None
        self.pair[e.src, e.dst] = e.id

    def _unlink(self, e):
        del self.succ[e.src][e.id]
        del self.pred[e.dst][e.id]
        if self.pair.get((e.src, e.dst)) == e.id:
            del self.pair[e.src, e.dst]

    def _prune(self, v):
        """Drop `v` once its last edge is gone; True when it went."""
        if v in self.succ and not self.succ[v] and not self.pred[v]:
            del self.succ[v], self.pred[v]
            return True
        return False


class SplitGraph(WorkGraph):
    """The working graph of the split passes in one direction.

    Besides the edges it keeps `view`, the contraction of the current graph
    held at its fixpoint, whose `by_src` and `by_dst` (vertex ->
    {CEdge: None}) it exposes; each vertex's level, the length of the
    longest root path to it (what ``depth_levels`` gives every vertex but a
    terminal); and `crowded`, the vertices whose contracted in-degree
    (backward) or out-degree (forward) is above one.  A split pass detaches
    and attaches the CEdges around one vertex and runs the contraction
    around them, so no pass rebuilds or re-contracts the whole graph.
    """

    def __init__(self, g, direction):
        super().__init__(g)
        self.backward = direction == "backward"
        self.view = contract(g, record=False)
        self.by_src, self.by_dst = self.view.by_src, self.view.by_dst
        self.crowded = set()
        self._recount(g.vertices)
        self._stale = set()  # vertices whose in-edges changed since the last relevel
        self.level = {}
        for v in g.topo_order:
            preds = g.in_edges(v)
            if g.out_edges(v):
                self.level[v] = 1 + max(self.level[e.src] for e in preds) if preds else 0

    def _recount(self, vertices):
        side = self.by_dst if self.backward else self.by_src
        for v in vertices:
            if len(side.get(v, ())) > 1:
                self.crowded.add(v)
            else:
                self.crowded.discard(v)

    def _attach_edge(self, eid):
        self.view.attach(edge_cedge(self.edges[eid], self.stamp[eid]))

    # -- levels ---------------------------------------------------------------

    def _link(self, e):
        super()._link(e)
        self._stale.add(e.dst)

    def _unlink(self, e):
        super()._unlink(e)
        self._stale.add(e.dst)

    def _prune(self, v):
        gone = super()._prune(v)
        if gone:
            self.level.pop(v, None)
        return gone

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

    def split(self, refs, prov):
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
            replaced = []
            for ce in carried:
                if ce.kind == "edge" or ce.expr is None:
                    replaced.append(ce)
                    continue
                name = refs.intern(ce.expr)
                for eid in ce.emembers:
                    self.remove(eid)
                eid = self.add(ce.src, ce.dst, name.name, base_id=name.name)
                replaced.append(edge_cedge(self.edges[eid], ce.seq))
            carried = replaced

        for route in routes:
            copy = self.fresh_vertex(v)
            prov[copy] = prov.get(v, v)
            # the route's edges at v now end (backward) or start at the copy
            at_v = self.pred[v] if backward else self.succ[v]
            for eid in [i for i in at_v if i in route.emembers]:
                if backward:
                    moved = self.retarget(eid, new_dst=copy)
                else:
                    moved = self.retarget(eid, new_src=copy)
            ends = {"dst": copy} if backward else {"src": copy}
            if route.kind == "edge":
                ends["original"] = moved
            self.view.attach(replace(route, **ends))
            for ce in carried:
                src, dst = (copy, ce.dst) if backward else (ce.src, copy)
                if ce.kind == "edge":
                    e = ce.original
                    self._attach_edge(self.add(src, dst, e.label, base_id=e.id))
                else:
                    self._copy_substructure(ce, src, dst, prov)
        for ce in carried:
            for eid in ce.emembers:
                self.remove(eid)
        self._recount(self.view.run())
        self._relevel()
        return True

    def _copy_substructure(self, ce, new_src, new_dst, prov):
        """Fresh copy of a substitute structure's members between the given
        endpoints, as raw edges for the view to contract."""
        vmap = {}
        for v in sorted(ce.vmembers):
            vmap[v] = self.fresh_vertex(v)
            prov[vmap[v]] = prov.get(v, v)
        vmap[ce.src] = new_src
        vmap[ce.dst] = new_dst
        for eid in sorted(ce.emembers):
            e = self.edges[eid]
            self._attach_edge(self.add(vmap[e.src], vmap[e.dst], e.label, base_id=e.id))


def _atom(label):
    return UNIT if label == UNIT_LABEL else Sym(label)


def _factorize(g, direction, refs=None, prov=None):
    work = SplitGraph(g, direction)
    prov = prov if prov is not None else {}
    for _ in range(_MAX_PASSES):
        if not work.split(refs, prov):
            out = work.graph()
            return out, prov
    raise FactorizationError("factorization did not settle")


def factorize_backward(g):
    """Split in-degree overlaps bottom-up until no complex block remains."""
    out, _ = _factorize(g, "backward")
    return out


def factorize_forward(g):
    """Mirror of backward: split out-degree overlaps top-down."""
    out, _ = _factorize(g, "forward")
    return out


def factorize_with_refs(g, direction="backward"):
    """Factorize, naming every structure that would otherwise be copied.

    Returns (graph, ExprSet); the set holds the reference definitions plus
    one entry per connected root-terminal pair, with single-use names
    inlined away.
    """
    s = ExprSet()
    out, _ = _factorize(g, direction, refs=s)
    for y, x in _active_pairs(out):
        s.add_entry(y, x, region_expr(out, y, x))
    return out, inline_single_use(s)


# ---------------------------------------------------------------------------
# page strategy


def _active_pairs(g):
    pairs = []
    for y in g.roots:
        below = g.reachable_from(y)
        pairs += [(y, x) for x in g.terminals if x in below]
    return pairs


def _pair_edges(g, pairs):
    edges = set()
    for y, x in pairs:
        edges.update(e.id for e in region_edges(g, y, x))
    return edges


def _page_from_edges(page, edge_ids, pid):
    keep = set(edge_ids)
    edges = [e for e in page.graph.edges if e.id in keep]
    if not edges:
        return None
    g = DiffGraph(edges)
    prov = {v: page.provenance.get(v, v) for v in g.vertices}
    return Page(pid, g, prov, page.refs)


def _replace_simple_structures(page, transcript):
    c = contract(page.graph, record=False)
    victims = [
        ce
        for ce in sorted(c.edges, key=lambda ce: ce.seq)
        if ce.kind in ("chain", "block") and ce.simple and ce.expr is not None
    ]
    if not victims:
        return False
    work = WorkGraph(page.graph)
    for ce in victims:
        name = page.refs.intern(ce.expr)
        for eid in ce.emembers:
            work.remove(eid)
        work.add(ce.src, ce.dst, name.name, base_id=name.name)
        transcript.append(
            {
                "op": "replace-structure",
                "args": {
                    "src": ce.src,
                    "sink": ce.dst,
                    "ref": name.name,
                    "expr": format_expr(ce.expr),
                },
                "page": page.pid,
            }
        )
    page.graph = work.graph()
    return True


def _pivots(g):
    from .graph import rt_degrees

    levels, _ = depth_levels(g)
    roots, terminals = set(g.roots), set(g.terminals)
    inter = sorted(g.vertices - roots - terminals)
    if not inter:
        return None
    rt = rt_degrees(g)
    rmax = max(rt[v][0] for v in inter)
    cands = [v for v in inter if rt[v][0] == rmax]
    v_i = min(cands, key=lambda v: (levels[v], v))
    below = ({v_i} | g.reachable_from(v_i)) - terminals - roots
    below = sorted(below)
    tmax = max(rt[v][1] for v in below)
    jcands = [v for v in below if rt[v][1] == tmax]
    v_j = min(jcands, key=lambda v: (-levels[v], v))
    return v_i, v_j


def _single_edge_path(g, a, b):
    direct = any(e.dst == b for e in g.out_edges(a))
    return direct and count_paths(g, a, b) == 1


def _finalize(page, transcript):
    entries = []
    for y, x in _active_pairs(page.graph):
        edges = region_edges(page.graph, y, x)
        try:
            expr = edges_expr(edges, y, x)
        except ComplexBlockError:
            fixed, _ = _factorize(DiffGraph(edges), "backward", refs=page.refs)
            expr = region_expr(fixed, y, x)
        entries.append(((page.provenance.get(y, y), page.provenance.get(x, x)), expr))
    page.entries = entries
    transcript.append(
        {
            "op": "finalize",
            "args": {"pairs": [list(p) for p, _ in entries]},
            "page": page.pid,
        }
    )
    return page


def _band_pass(page, v_i, v_j, transcript):
    """Compress the level band below the pivot by one level."""
    g = page.graph
    levels, _ = depth_levels(g)
    a, b = levels[v_i], levels[v_j]
    v_a = {u for u in g.reaching(v_j) if levels[u] == a}
    v_b = {w for w in g.reachable_from(v_i) if levels[w] == b}
    from_a = set().union(*[g.reachable_from(u) for u in v_a])
    to_b = set().union(*[g.reaching(w) for w in v_b])
    band = sorted(
        m for m in from_a & to_b if levels[m] == a + 1
    )
    if not band:
        return False
    work = WorkGraph(g)
    for m in band:
        if not work.has_vertex(m):
            continue
        ins = work.in_edges(m)
        outs = work.out_edges(m)
        for ein in sorted(ins, key=lambda e: e.id):
            for eout in sorted(outs, key=lambda e: e.id):
                term = prod(_atom(ein.label), _atom(eout.label))
                prior = work.pair.get((ein.src, eout.dst))
                if prior is not None:
                    term = add(_atom(work.edges[prior].label), term)
                    work.remove(prior)
                label = _label_of(page.refs.intern(term))
                work.add(ein.src, eout.dst, label, base_id=label)
        for e in ins + outs:
            work.remove(e.id)
    page.graph = work.graph()
    transcript.append(
        {
            "op": "band-eliminate",
            "args": {"pivots": [v_i, v_j], "level": a + 1, "vertices": band},
            "page": page.pid,
        }
    )
    return True


def _label_of(atom):
    return UNIT_LABEL if isinstance(atom, _Unit) else atom.name


def plan_pages(g):
    """Run the page strategy; returns (pages, merged ExprSet, transcript).

    Shared simple structures become reference edges first.  A page splits
    whenever its pivot pair does not span all of its roots and terminals;
    root/terminal pairs are then peeled off (preferring the edges that cross
    the most levels) until single-pair pages remain, and multi-level middles
    are compressed one level per pass.  The union of pages covers every
    root-terminal entry of the input.
    """
    transcript = []
    first = Page(0, g, {v: v for v in g.vertices}, ExprSet())
    queue = [first]
    done = []
    next_pid = 1
    guard = 0
    while queue:
        guard += 1
        if guard > _MAX_PASSES:
            raise FactorizationError("page planning did not settle")
        page = queue.pop(0)
        _replace_simple_structures(page, transcript)
        pairs = _active_pairs(page.graph)
        if not pairs:
            continue
        if len(pairs) == 1:
            done.append(_finalize(page, transcript))
            continue
        pivots = _pivots(page.graph)
        if pivots is None:
            done.append(_finalize(page, transcript))
            continue
        v_i, v_j = pivots
        g_p = page.graph
        active_y = sorted({y for y, _ in pairs})
        active_x = sorted({x for _, x in pairs})
        y_i = sorted(roots_reaching(g_p, v_i))
        x_j = sorted(terminals_reachable(g_p, v_j))
        levels, _ = depth_levels(g_p)
        if y_i != active_y or x_j != active_x:
            wanted = [(y, x) for y, x in pairs if y in y_i and x in x_j]
            rest = [p for p in pairs if p not in wanted]
            pa = _page_from_edges(page, _pair_edges(g_p, wanted), next_pid)
            pb = _page_from_edges(page, _pair_edges(g_p, rest), next_pid + 1)
            transcript.append(
                {
                    "op": "split-page",
                    "args": {"pivots": [v_i, v_j], "roots": y_i, "terminals": x_j},
                    "page": page.pid,
                }
            )
            next_pid += 2
            queue.extend(p for p in (pa, pb) if p is not None)
            continue
        if levels[v_i] == levels[v_j] or _single_edge_path(g_p, v_i, v_j):
            split = _separate(page, v_i, v_j, active_y, active_x, next_pid, transcript)
            if split is not None:
                next_pid += 2
                queue.extend(split)
                continue
            done.append(_finalize(page, transcript))
            continue
        if _band_pass(page, v_i, v_j, transcript):
            queue.append(page)
            continue
        done.append(_finalize(page, transcript))
    return done, merge_pages(done), transcript


def _separate(page, v_i, v_j, active_y, active_x, next_pid, transcript):
    g = page.graph
    pairs = _active_pairs(g)
    levels, cross = depth_levels(g)
    span = lambda e: levels[e.dst] - levels[e.src]
    root_cross = [e for e in g.edges if e.src in active_y and span(e) > 1]
    term_cross = [e for e in g.edges if e.dst in active_x and span(e) > 1]
    s_edges = None
    detail = None
    if root_cross or term_cross:
        r_span = max((span(e) for e in root_cross), default=0)
        t_span = max((span(e) for e in term_cross), default=0)
        if r_span >= t_span:
            chosen = [e for e in root_cross if span(e) == r_span]
        else:
            chosen = [e for e in term_cross if span(e) == t_span]
        s_edges = set()
        for e in chosen:
            s_edges.add(e.id)
            s_edges |= _pair_edges(g, [(y, e.src) for y in active_y])
            s_edges |= _pair_edges(g, [(e.dst, x) for x in active_x])
        detail = {"kind": "cross-level", "edges": sorted(e.id for e in chosen)}
        left = [e for e in g.edges if e.id not in {c.id for c in chosen}]
        remaining = DiffGraph(left) if left else None
        rest_edges = (
            _pair_edges(remaining, _active_pairs(remaining)) if remaining else set()
        )
        if not rest_edges:
            s_edges = None  # every path crosses E'; fall back to a root/terminal pick
    if s_edges is None:
        l_y = levels[v_i]
        l_x = max(levels[x] for x in active_x) - levels[v_j]
        if len(active_y) > 1 and (l_y >= l_x or len(active_x) == 1):
            pick = active_y[0]
            wanted = [(y, x) for y, x in pairs if y == pick]
            detail = {"kind": "root", "root": pick}
        elif len(active_x) > 1:
            pick = active_x[0]
            wanted = [(y, x) for y, x in pairs if x == pick]
            detail = {"kind": "terminal", "terminal": pick}
        else:
            return None
        rest = [p for p in pairs if p not in wanted]
        s_edges = _pair_edges(g, wanted)
        rest_edges = _pair_edges(g, rest)
    pa = _page_from_edges(page, s_edges, next_pid)
    pb = _page_from_edges(page, rest_edges, next_pid + 1)
    if pa is None or pb is None:
        return None
    transcript.append(
        {"op": "separate", "args": detail, "page": page.pid}
    )
    return [pa, pb]


def merge_pages(pages):
    """One expression set covering every root-terminal pair of finalized
    pages that share one set of reference definitions.

    The same pair appearing on several pages sums, and names used at most
    once are inlined away.
    """
    entry_acc = {}
    for page in pages:
        for pair, e in page.entries:
            entry_acc[pair] = add(entry_acc[pair], e) if pair in entry_acc else e
    s = ExprSet(list(pages[0].refs.defs) if pages else [])
    for pair in sorted(entry_acc):
        s.add_entry(pair[0], pair[1], entry_acc[pair])
    return inline_single_use(s)


def transcript_json(transcript):
    return "\n".join(
        json.dumps({"step": i, **rec}, sort_keys=True)
        for i, rec in enumerate(transcript, start=1)
    ) + ("\n" if transcript else "")
