"""The steps of the page strategy, which :func:`~jacfact.factorize.plan_pages`
runs: shared simple structures become reference edges, a pivot pair guides
page splits and root/terminal separations, and stubborn multi-level
sections are compressed one level at a time.  The pages that fall out are
simple per root-terminal pair and merge into one expression set.  A split
or a separation cuts a page into the set regions
:func:`~jacfact.graph.region_edges` gives of its two sides, so pages never
gain a vertex; the other steps rewrite the page's edge list, with names
from :class:`~jacfact.graph.Names`.
"""
from __future__ import annotations

from .expr import ExprSet, add, atom, format_expr, inline_single_use, prod
from .factorize import _active_pairs, _factorize
from .graph import DiffGraph, Edge, Names, reach, region_edges, rt_degrees
from .structure import contract, region_expr


class Page:
    def __init__(self, pid, graph, refs, entries=None):
        self.pid = pid
        self.graph = graph
        self.refs = refs  # the reference definitions, shared by every page of a plan
        self.entries = entries  # [((root, terminal), Expr)] once finalized


def _note(transcript, op, page, **args):
    """Record page step `op` on `page` with its arguments."""
    transcript.append({"op": op, "args": args, "page": page.pid})


def _page_from_edges(page, edges, pid):
    keep = {e.id for e in edges}
    return Page(pid, DiffGraph(e for e in page.graph.edges if e.id in keep), page.refs)


def _replace_simple_structures(page, transcript):
    """Replace every simple structure of the page by one edge labeled with
    its reference name: the page's other edges keep their order and the
    named edges follow, in contraction order."""
    c = contract(page.graph)
    victims = [ce for ce in sorted(c.edges, key=lambda ce: ce.seq) if ce.kind != "edge"]
    if not victims:
        return
    ids = Names(e.id for e in page.graph.edges)
    members = {eid for ce in victims for eid in ce.emembers}
    edges = [e for e in page.graph.edges if e.id not in members]
    for ce in victims:
        name = page.refs.intern(ce.expr).name
        edges.append(Edge(ids.fresh(name), ce.src, ce.dst, name))
        _note(
            transcript, "replace-structure", page,
            src=ce.src, sink=ce.dst, ref=name, expr=format_expr(ce.expr),
        )
    page.graph = DiffGraph(edges)


def _pivots(g, levels):
    """The pivot pair of a page, by its `levels`; None without an
    intermediate vertex."""
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


def _finalize(page, transcript):
    """Read the page's entries off its edges.  Its structures are named, so
    it contracts no further: each pair's region is one edge, whose atom is
    the entry, unless the page is a complex block of one pair and several
    edges, which ref mode factorizes."""
    g = page.graph
    pairs = _active_pairs(g)
    if len(pairs) == 1 and len(g.edges) > 1:
        (y, x), = pairs
        page.entries = [((y, x), region_expr(_factorize(g, refs=page.refs), y, x))]
    else:
        atoms = {(e.src, e.dst): atom(e.label) for e in g.edges}
        page.entries = [(pair, atoms[pair]) for pair in pairs]
    _note(transcript, "finalize", page, pairs=[list(p) for p in pairs])
    return page


def _band_pass(page, v_i, v_j, levels, transcript):
    """Compress the level band below the pivot by one level; the band is never
    empty, as a longest root path to an inner vertex of the region crosses it."""
    g = page.graph
    a, b = levels[v_i], levels[v_j]
    v_a = [u for u in g.reaching(v_j) if levels[u] == a]
    v_b = [w for w in g.reachable_from(v_i) if levels[w] == b]
    between = reach(v_a, g.successors) & reach(v_b, g.predecessors)
    band = sorted(m for m in between if levels[m] == a + 1)
    ids = Names(e.id for e in g.edges)
    edges = {(e.src, e.dst): e for e in g.edges}  # a DiffGraph has one edge per pair
    for m in band:
        # band vertices share one level, so no new edge touches another's
        ins = sorted(g.in_edges(m), key=lambda e: e.id)
        outs = sorted(g.out_edges(m), key=lambda e: e.id)
        for ein in ins:
            for eout in outs:
                term = prod(atom(ein.label), atom(eout.label))
                prior = edges.pop((ein.src, eout.dst), None)  # re-added last
                if prior is not None:
                    term = add(atom(prior.label), term)
                label = page.refs.intern(term).name
                eid = ids.fresh(label)
                edges[ein.src, eout.dst] = Edge(eid, ein.src, eout.dst, label)
        for e in ins + outs:
            del edges[e.src, e.dst]
    page.graph = DiffGraph(edges.values())
    _note(transcript, "band-eliminate", page, pivots=[v_i, v_j], level=a + 1, vertices=band)


def _separate(page, v_i, v_j, levels, transcript):
    """Peel a page with several roots or terminals into two: the regions
    through the edges that leave a root or enter a terminal across the most
    levels against every other edge, or else one root's (one terminal's)
    regions against the rest.  Returns the two pages' edge lists."""
    g = page.graph
    roots, terminals = list(g.roots), list(g.terminals)
    span = lambda e: levels[e.dst] - levels[e.src]
    root_cross = [e for e in g.edges if e.src in roots and span(e) > 1]
    term_cross = [e for e in g.edges if e.dst in terminals and span(e) > 1]
    chosen = through = []
    if root_cross or term_cross:
        r_span = max((span(e) for e in root_cross), default=0)
        t_span = max((span(e) for e in term_cross), default=0)
        if r_span >= t_span:
            chosen = [e for e in root_cross if span(e) == r_span]
            through = region_edges(g, {e.dst for e in chosen}, terminals)
        else:
            chosen = [e for e in term_cross if span(e) == t_span]
            through = region_edges(g, roots, {e.src for e in chosen})
    left = [e for e in g.edges if e not in chosen]
    l_y = levels[v_i]
    l_x = max(levels[x] for x in terminals) - levels[v_j]
    if chosen and left:
        s_edges, rest_edges = chosen + through, left
        detail = {"kind": "cross-level", "edges": sorted(e.id for e in chosen)}
    elif len(roots) > 1 and (l_y >= l_x or len(terminals) == 1):
        pick = roots[0]
        s_edges = region_edges(g, [pick], terminals)
        rest_edges = region_edges(g, roots[1:], terminals)
        detail = {"kind": "root", "root": pick}
    else:
        pick = terminals[0]
        s_edges = region_edges(g, roots, [pick])
        rest_edges = region_edges(g, roots, terminals[1:])
        detail = {"kind": "terminal", "terminal": pick}
    _note(transcript, "separate", page, **detail)
    return s_edges, rest_edges


def merge_pages(pages):
    """One expression set covering every root-terminal pair of finalized
    pages that share one set of reference definitions.

    The same pair appearing on several pages sums, and names used at most
    once are inlined away.
    """
    sums = ExprSet(entries=[entry for page in pages for entry in page.entries]).entry_map()
    s = ExprSet(list(pages[0].refs.defs) if pages else [])
    for pair in sorted(sums):
        s.add_entry(*pair, sums[pair])
    return inline_single_use(s)


def transcript_json(transcript):
    import json

    return "\n".join(
        json.dumps({"step": i, **rec}, sort_keys=True)
        for i, rec in enumerate(transcript, start=1)
    ) + ("\n" if transcript else "")
