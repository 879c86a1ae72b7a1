"""Complex-block factorization and the multi-root/terminal page strategy.

Backward factorization walks intermediates bottom-up and splits every vertex
whose contracted in-degree exceeds one, duplicating its outgoing side per
incoming route; forward factorization mirrors this top-down on out-degrees.
Treating a whole simple block as a single edge during splitting keeps the
duplication coarse; in ref mode such a block becomes a named reference edge
instead of being copied.

Graphs with several roots or terminals are handled by the page strategy:
shared simple structures become reference edges, a pivot pair guides page
splits and root/terminal separations, and stubborn multi-level sections are
compressed one level at a time.  The pages that fall out are simple per
root-terminal pair and merge into one expression set.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .expr import ExprSet, Sym, UNIT, _Unit, add, canonical, canonical_text, expand_expr, format_expr, inline_single_use, normalize, prod
from .graph import (
    DiffGraph,
    Edge,
    UNIT_LABEL,
    count_paths,
    depth_levels,
    roots_reaching,
    subgraph_between,
    terminals_reachable,
)
from .structure import CEdge, ComplexBlockError, contract, region_expr


class FactorizationError(ValueError):
    pass


class MergeError(FactorizationError):
    pass


_MAX_PASSES = 10_000


class RefRegistry:
    """Allocates reference names (s1, s2, ...) for shared sub-structures.

    Interning is by expanded canonical form, so the same structure reached
    from two pages shares one name.
    """

    def __init__(self):
        self.defs = []  # (name, Expr) in creation order
        self.def_map = {}
        self._by_key = {}

    def intern(self, expr):
        expr = normalize(expr)
        if isinstance(expr, (Sym, _Unit)):
            return expr
        key = canonical_text(expand_expr(expr, self.def_map))
        if key not in self._by_key:
            name = f"s{len(self.defs) + 1}"
            self._by_key[key] = name
            self.defs.append((name, expr))
            self.def_map[name] = expr
        return Sym(self._by_key[key])


@dataclass
class Page:
    pid: int
    graph: DiffGraph
    provenance: dict
    refs: RefRegistry
    entries: list = None  # [((root, terminal), Expr)] once finalized


# ---------------------------------------------------------------------------
# graph editing


class GraphEditor:
    def __init__(self, g):
        self.edges = list(g.edges)
        self._names = {e.id for e in g.edges}
        self._vnames = set(g.vertices)

    def graph(self):
        return DiffGraph(self.edges)

    def fresh_vertex(self, base):
        n = 1
        while f"{base}.{n}" in self._vnames:
            n += 1
        name = f"{base}.{n}"
        self._vnames.add(name)
        return name

    def fresh_edge_id(self, base):
        if base not in self._names:
            self._names.add(base)
            return base
        n = 1
        while f"{base}.{n}" in self._names:
            n += 1
        name = f"{base}.{n}"
        self._names.add(name)
        return name

    def remove_edges(self, edge_ids):
        gone = set(edge_ids)
        self.edges = [e for e in self.edges if e.id not in gone]

    def retarget(self, edge_id, new_dst=None, new_src=None):
        for idx, e in enumerate(self.edges):
            if e.id == edge_id:
                self.edges[idx] = Edge(
                    e.id, new_src or e.src, new_dst or e.dst, e.label
                )
                self._vnames.add(self.edges[idx].src)
                self._vnames.add(self.edges[idx].dst)
                return
        raise FactorizationError(f"unknown edge {edge_id}")

    def add(self, src, dst, label, base_id=None):
        eid = self.fresh_edge_id(base_id or label)
        self.edges.append(Edge(eid, src, dst, label))
        self._vnames.add(src)
        self._vnames.add(dst)
        return eid


def _atom(label):
    return UNIT if label == UNIT_LABEL else Sym(label)


def _copy_substructure(editor, ce, new_src=None, new_dst=None, prov=None):
    """Fresh copy of a substitute structure's members, endpoints as given."""
    g = editor.graph()
    vmap = {}
    for v in sorted(ce.vmembers):
        vmap[v] = editor.fresh_vertex(v)
        if prov is not None:
            prov[vmap[v]] = prov.get(v, v)
    vmap[ce.src] = new_src or ce.src
    vmap[ce.dst] = new_dst or ce.dst
    for eid in sorted(ce.emembers):
        e = g.edge(eid)
        editor.add(vmap[e.src], vmap[e.dst], e.label, base_id=e.id)


def _retarget_substructure(editor, ce, old, new):
    """Move a substitute's endpoint from `old` to `new` (final/first edges)."""
    for eid in sorted(ce.emembers):
        e = next(x for x in editor.edges if x.id == eid)
        if e.dst == old:
            editor.retarget(eid, new_dst=new)
        elif e.src == old:
            editor.retarget(eid, new_src=new)


def _split_pass(editor, direction, refs, prov):
    """One contracted-view split; returns False when no target remains."""
    g = editor.graph()
    c = contract(g, record=False)
    roots, terminals = set(g.roots), set(g.terminals)
    levels, _ = depth_levels(g)
    by_dst, by_src = {}, {}
    for ce in c.edges:
        by_src.setdefault(ce.src, []).append(ce)
        by_dst.setdefault(ce.dst, []).append(ce)
    if direction == "backward":
        targets = [
            v
            for v in by_dst
            if v not in roots and v not in terminals and len(by_dst[v]) > 1
        ]
        if not targets:
            return False
        v = sorted(targets, key=lambda u: (-levels[u], u))[0]
        routes = sorted(by_dst[v], key=lambda ce: ce.seq)
        carried = sorted(by_src.get(v, []), key=lambda ce: ce.seq)
    else:
        targets = [
            v
            for v in by_src
            if v not in roots and v not in terminals and len(by_src[v]) > 1
        ]
        if not targets:
            return False
        v = sorted(targets, key=lambda u: (levels[u], u))[0]
        routes = sorted(by_src[v], key=lambda ce: ce.seq)
        carried = sorted(by_dst.get(v, []), key=lambda ce: ce.seq)

    # In ref mode, structures that would be copied become reference edges.
    if refs is not None:
        replaced = []
        for ce in carried:
            if ce.kind == "edge" or ce.expr is None:
                replaced.append(ce)
                continue
            name = refs.intern(ce.expr)
            editor.remove_edges(ce.emembers)
            eid = editor.add(ce.src, ce.dst, name.name, base_id=name.name)
            g2 = editor.graph()
            e = g2.edge(eid)
            replaced.append(
                CEdge(e.src, e.dst, Sym(e.label), "edge", True, True,
                      frozenset(), frozenset([eid]), e, ce.seq)
            )
        carried = replaced

    for k, route in enumerate(routes, start=1):
        copy = editor.fresh_vertex(v)
        prov[copy] = prov.get(v, v)
        if route.kind == "edge":
            if direction == "backward":
                editor.retarget(route.original.id, new_dst=copy)
            else:
                editor.retarget(route.original.id, new_src=copy)
        else:
            _retarget_substructure(editor, route, v, copy)
        for ce in carried:
            if ce.kind == "edge":
                e = ce.original
                if direction == "backward":
                    editor.add(copy, e.dst, e.label, base_id=e.id)
                else:
                    editor.add(e.src, copy, e.label, base_id=e.id)
            else:
                if direction == "backward":
                    _copy_substructure(editor, ce, new_src=copy, prov=prov)
                else:
                    _copy_substructure(editor, ce, new_dst=copy, prov=prov)
    for ce in carried:
        editor.remove_edges(ce.emembers)
    return True


def _factorize(g, direction, refs=None, prov=None):
    editor = GraphEditor(g)
    prov = prov if prov is not None else {}
    for _ in range(_MAX_PASSES):
        if not _split_pass(editor, direction, refs, prov):
            return editor.graph(), prov
    raise FactorizationError("factorization did not settle")


def factorize_backward(g):
    """Split in-degree overlaps bottom-up until no complex block remains."""
    out, _ = _factorize(g, "backward")
    return out


def factorize_forward(g):
    """Mirror of backward: split out-degree overlaps top-down."""
    out, _ = _factorize(g, "forward")
    return out


def factorize_with_refs(g, direction="backward", refs=None):
    """Factorize, naming every structure that would otherwise be copied.

    Returns (graph, ExprSet); the set holds the reference definitions plus
    one entry per connected root-terminal pair, with single-use names
    inlined away.
    """
    refs = refs or RefRegistry()
    out, _ = _factorize(g, direction, refs=refs)
    s = ExprSet()
    for name, e in refs.defs:
        s.define(name, e)
    for y in out.roots:
        for x in out.terminals:
            if count_paths(out, y, x):
                s.add_entry(y, x, region_expr(out, y, x))
    return out, inline_single_use(s)


# ---------------------------------------------------------------------------
# page strategy


def _active_pairs(g):
    return [
        (y, x) for y in g.roots for x in g.terminals if count_paths(g, y, x) > 0
    ]


def _pair_edges(g, pairs):
    edges = set()
    for y, x in pairs:
        sub = subgraph_between(g, y, x)
        if sub is not None:
            edges |= {e.id for e in sub.edges}
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
    c = contract(page.graph)
    victims = [
        ce
        for ce in sorted(c.edges, key=lambda ce: ce.seq)
        if ce.kind in ("chain", "block") and ce.simple and ce.expr is not None
    ]
    if not victims:
        return False
    editor = GraphEditor(page.graph)
    for ce in victims:
        name = page.refs.intern(ce.expr)
        editor.remove_edges(ce.emembers)
        editor.add(ce.src, ce.dst, name.name, base_id=name.name)
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
    page.graph = editor.graph()
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
    direct = any(e.src == a and e.dst == b for e in g.edges)
    return direct and count_paths(g, a, b) == 1


def _finalize(page, transcript):
    entries = []
    for y, x in _active_pairs(page.graph):
        sub = subgraph_between(page.graph, y, x)
        try:
            expr = region_expr(sub, y, x)
        except ComplexBlockError:
            fixed, _ = _factorize(sub, "backward", refs=page.refs)
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
    v_a = {u for u in g.vertices if levels[u] == a and v_j in g.reachable_from(u)}
    v_b = {w for w in g.vertices if levels[w] == b and w in g.reachable_from(v_i)}
    from_a = set().union(*[g.reachable_from(u) for u in v_a]) if v_a else set()
    to_b = set().union(*[g.reaching(w) for w in v_b]) if v_b else set()
    band = sorted(
        m for m in from_a & to_b if levels[m] == a + 1
    )
    if not band:
        return False
    editor = GraphEditor(g)
    for m in band:
        cur = editor.graph()
        if not cur.has_vertex(m):
            continue
        ins = cur.in_edges(m)
        outs = cur.out_edges(m)
        existing = {(e.src, e.dst): e for e in editor.edges}
        for ein in sorted(ins, key=lambda e: e.id):
            for eout in sorted(outs, key=lambda e: e.id):
                term = prod(_atom(ein.label), _atom(eout.label))
                prior = existing.get((ein.src, eout.dst))
                if prior is not None and prior.dst != m and prior.src != m:
                    combined = add(_atom(prior.label), term)
                    name = page.refs.intern(combined)
                    editor.remove_edges([prior.id])
                    eid = editor.add(ein.src, eout.dst, _label_of(name), base_id=_label_of(name))
                    existing[(ein.src, eout.dst)] = next(
                        e for e in editor.edges if e.id == eid
                    )
                else:
                    name = page.refs.intern(term)
                    eid = editor.add(ein.src, eout.dst, _label_of(name), base_id=_label_of(name))
                    existing[(ein.src, eout.dst)] = next(
                        e for e in editor.edges if e.id == eid
                    )
        editor.remove_edges([e.id for e in ins] + [e.id for e in outs])
    page.graph = editor.graph()
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
    refs = RefRegistry()
    transcript = []
    first = Page(0, g, {v: v for v in g.vertices}, refs)
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
            for y in active_y:
                sub = subgraph_between(g, y, e.src)
                if sub is not None:
                    s_edges |= {se.id for se in sub.edges}
            for x in active_x:
                sub = subgraph_between(g, e.dst, x)
                if sub is not None:
                    s_edges |= {se.id for se in sub.edges}
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
    """One expression set covering every root-terminal pair of every page.

    The same pair appearing on several pages sums; reference definitions are
    deduplicated by name, and names used at most once are inlined away.
    """
    defs = []
    seen = {}
    for page in pages:
        for name, e in page.refs.defs:
            if name in seen:
                if seen[name] is not e and canonical(seen[name]) != canonical(e):
                    raise MergeError(f"conflicting definitions for {name}")
                continue
            seen[name] = e
            defs.append((name, e))
    entry_acc = {}
    order = []
    for page in pages:
        if page.entries is None:
            _finalize(page, [])
        for pair, e in page.entries:
            if pair not in entry_acc:
                order.append(pair)
                entry_acc[pair] = e
            else:
                entry_acc[pair] = add(entry_acc[pair], e)
    s = ExprSet()
    for name, e in defs:
        s.define(name, e)
    for pair in sorted(order):
        s.add_entry(pair[0], pair[1], entry_acc[pair])
    return inline_single_use(s)


def transcript_json(transcript):
    return "\n".join(
        json.dumps({"step": i, **rec}, sort_keys=True)
        for i, rec in enumerate(transcript, start=1)
    ) + ("\n" if transcript else "")
