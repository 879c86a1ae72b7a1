"""Multiplication-relation analysis over an expression set.

Two symbols multiplied side by side form a direct relation; a symbol
multiplied against a parenthesized sum relates indirectly to the leading (or
trailing) symbol of each term, with the adjoining factor as witness.  A pair
that is direct in one place and indirect in another cannot be eliminated in
the line graph until the witnessed inner faces are gone; those constraints
form the dependency graph, whose cycles make a safe order impossible.
"""
from __future__ import annotations

import heapq
from collections import Counter, deque

from .expr import Prod, Sum, Sym, _Unit, _kids, canonical_text, prod, reference_order


class RelationError(ValueError):
    pass


class CircularDependencyError(RelationError):
    def __init__(self, cycles):
        listing = "; ".join(" -> ".join(map(str, c)) for c in cycles)
        super().__init__(f"circular elimination dependencies: {listing}")
        self.cycles = cycles


face_key = canonical_text  # the name of a face operand in relations and orders


class Occurrence:
    def __init__(self, site, kind, witness=None):
        self.site = site
        self.kind = kind  # direct, indirect-right, indirect-left, distant
        self.witness = witness

    def record(self):
        return {"site": self.site, "kind": self.kind, "witness": self.witness}


def _site_name(key):
    if isinstance(key, tuple):
        return f"J[{key[0]},{key[1]}]"
    return key


def _sum_view(f, defs):
    """Terms seen through a parenthesis, looking through one reference."""
    if isinstance(f, Sum):
        return f.terms
    if isinstance(f, Sym) and isinstance(defs.get(f.name), Sum):
        return defs[f.name].terms
    return None


def _leading(term):
    if isinstance(term, Sym):
        return term, None
    if isinstance(term, Prod):
        return term.factors[0], term.factors[1]
    return None, None


def _trailing(term):
    if isinstance(term, Sym):
        return term, None
    if isinstance(term, Prod):
        return term.factors[-1], term.factors[-2]
    return None, None


def _sites(s):
    """(site name, expression) per definition and entry, in set order."""
    return [(_site_name(key), e) for key, e in s.all_exprs()]


def classify_relations(s):
    """Relation table: (left key, right key) -> occurrences.

    Every multiplication in the set shows up as exactly one direct
    occurrence; indirect occurrences look through a single parenthesis
    boundary (including one reference whose definition is a sum) and deeper
    separations are reported as distant.
    """
    defs, table = s.def_map, {}

    def note(left_key, right_key, occ):
        table.setdefault((left_key, right_key), []).append(occ)

    for site, e in _sites(s):
        stack = [e]  # pre-order: a product's relations, then its factors'
        while stack:
            e = stack.pop()
            if isinstance(e, Sum):
                stack.extend(reversed(e.terms))
            elif isinstance(e, Prod):
                _note_product(e, site, defs, note)
                stack.extend(reversed(e.factors))
    return table


def _note_product(e, site, defs, note):
    """The relations of the adjacent factors of product `e`."""
    for f, g in zip(e.factors, e.factors[1:]):
        note(face_key(f), face_key(g), Occurrence(site, "direct"))
        rview = _sum_view(g, defs)
        if rview is not None and isinstance(f, Sym):
            for t in rview:
                head, second = _leading(t)
                if isinstance(head, Sym):
                    note(
                        f.name,
                        head.name,
                        Occurrence(
                            site,
                            "indirect-right",
                            face_key(second) if second is not None else None,
                        ),
                    )
                elif head is not None:
                    tail, _ = _trailing(t)
                    if isinstance(tail, Sym):
                        note(f.name, tail.name, Occurrence(site, "distant"))
        lview = _sum_view(f, defs)
        if lview is not None and isinstance(g, Sym):
            for t in lview:
                tail, before = _trailing(t)
                if isinstance(tail, Sym):
                    note(
                        tail.name,
                        g.name,
                        Occurrence(
                            site,
                            "indirect-left",
                            face_key(before) if before is not None else None,
                        ),
                    )
        if rview is not None and lview is not None:
            for lt in lview:
                tail, _ = _trailing(lt)
                for rt in rview:
                    head, _ = _leading(rt)
                    if isinstance(tail, Sym) and isinstance(head, Sym):
                        note(tail.name, head.name, Occurrence(site, "distant"))


def lemma1_audit(s):
    """Pairs that are direct somewhere and witness-less indirect elsewhere.

    Such a pair marks a set that is not an optimal calculation order: the
    sum could be regrouped to save a multiplication.
    """
    table = classify_relations(s)
    violations = []
    for pair, occs in sorted(table.items()):
        direct = [o for o in occs if o.kind == "direct"]
        bare = [
            o
            for o in occs
            if o.kind in ("indirect-right", "indirect-left") and o.witness is None
        ]
        if direct and bare:
            violations.append(
                {
                    "pair": list(pair),
                    "direct_sites": sorted({o.site for o in direct}),
                    "indirect_sites": sorted({o.site for o in bare}),
                }
            )
    return violations


class DepGraph:
    """Faces, the dependency edges (from_face, to_face, mirrored) between
    them, and `succ`, each face's targets as ``{face: None}`` in edge order:
    the one successor map every walk over the graph reads."""

    def __init__(self, nodes=None, edges=None):
        self.nodes = set() if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.succ = {n: {} for n in self.nodes}
        for a, b, _ in self.edges:
            self.succ[a][b] = None

    def to_dot(self):
        def nid(face):
            return f'"{face[0]},{face[1]}"'

        lines = ["digraph deps {"]
        for n in sorted(self.nodes):
            lines.append(f"  {nid(n)};")
        for a, b, m in self.edges:
            style = ' [style=dashed]' if m else ""
            lines.append(f"  {nid(a)} -> {nid(b)}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_dep_graph(s):
    """Dependency edges per witnessed indirect occurrences, in the order of
    the sorted relation table.

    An edge (a, b) -> (b, w) says: the face (a, b) may only be eliminated
    after (b, w).  Mirrored edges (a, b) -> (w, a) come from left-side
    indirection and are flagged, since they follow by symmetry.
    """
    nodes, edges = set(), {}
    for (a, b), occs in sorted(classify_relations(s).items()):
        direct = [o for o in occs if o.kind == "direct"]
        indirect = [o for o in occs if o.kind.startswith("indirect")]
        if not (direct and indirect):
            continue
        face = (a, b)
        nodes.add(face)
        for o in indirect:
            if o.witness is None:
                continue
            target = (b, o.witness) if o.kind == "indirect-right" else (o.witness, a)
            nodes.add(target)
            edges[face, target, o.kind == "indirect-left"] = None
    return DepGraph(nodes, list(edges))


def detect_cycles(d):
    """All elementary cycles, each rotated to start at its smallest node.

    Johnson's circuit search (SIAM J. Comput. 4(1), 1975): each node in turn
    starts the circuits whose other nodes are all greater, and blocked sets
    keep the search off nodes that cannot lead back to it yet.
    """
    succ = d.succ
    cycles = []
    for start in sorted(succ):
        path, blocked, b_sets = [start], {start}, {}
        frames = [iter(succ[start])]
        closed = [False]  # per frame: a circuit was found below this node
        while frames:
            for w in frames[-1]:
                if w == start:
                    cycles.append(tuple(path))
                    closed[-1] = True
                elif w > start and w not in blocked:
                    path.append(w)
                    blocked.add(w)
                    frames.append(iter(succ[w]))
                    closed.append(False)
                    break
            else:
                frames.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    release = [v]
                    while release:
                        u = release.pop()
                        if u in blocked:
                            blocked.discard(u)
                            release.extend(b_sets.pop(u, ()))
                else:
                    for w in succ[v]:
                        if w > start:
                            b_sets.setdefault(w, set()).add(v)
    return sorted(cycles)


# ---------------------------------------------------------------------------
# safe elimination order


class _Task:
    def __init__(self, site, face, pair):
        self.site = site
        self.face = face  # (left operand, right operand), as the set spells them
        self.pair = pair  # syntactic (left key, right key)


def _dep_depth(d):
    """Longest dependency path into each face (more depended-upon = deeper)."""
    succ = d.succ
    indeg = dict.fromkeys(succ, 0)
    for ws in succ.values():
        for w in ws:
            indeg[w] += 1
    depth = dict.fromkeys(succ, 0)
    ready = [v for v, k in indeg.items() if k == 0]
    while ready:
        v = ready.pop()
        for w in succ[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return depth


def safe_elimination_order(s):
    """Face order that replays the set without breaking any parenthesis.

    Faces that other faces depend on come first (deepest dependency targets
    lead), definitions precede the entries that use them and follow the
    definitions they use, in :func:`~jacfact.expr.reference_order`, and
    products associate left to right.  Face operands are spelled with the
    set's own names, so the order replays only with the set's definitions:
    ``run_elimination(lg, order, defs=s.def_map)``.  Raises the
    :class:`~jacfact.expr.CyclicReferenceError` of ``reference_order`` on a
    reference cycle, :class:`CircularDependencyError` when the dependency
    graph is cyclic, and :class:`RelationError` when every face left waits
    on another.
    """
    site_rank = {name: i for i, name in enumerate(reference_order(s))}
    base = len(site_rank)
    for i, (pair, _) in enumerate(s.entries):
        site_rank[_site_name(pair)] = base + i
    d = build_dep_graph(s)
    cycles = detect_cycles(d)
    if cycles:
        raise CircularDependencyError(cycles)

    queues = {}  # site -> its faces not yet emitted, in order
    left = Counter()  # pair -> its faces not yet emitted
    for site, e in _sites(s):
        tasks = _plan_site(e, site)
        if tasks:
            queues.setdefault(site, deque()).extend(tasks)
            left.update(t.pair for t in tasks)
    depth = _dep_depth(d)
    # one head per site and one rank per site, so the key never ties
    key = lambda t: (-depth.get(t.pair, 0), site_rank[t.site])
    order = _schedule(queues, left, d.succ, key)
    if queues:
        stuck = [q[0].pair for q in queues.values()]
        raise RelationError(f"no safe order; stuck on faces {stuck}")
    return order


def _schedule(queues, left, deps_of, key):
    """Emit, while one may go, the queue head of least `key` whose pair
    depends (`deps_of`) on no pair with faces `left`.  A queue goes once
    empty, so the `queues` left are stuck.  Ready heads wait in a heap; a
    head that waits on a pair is offered again when its last face goes."""
    ready, waiting, order = [], {}, []  # waiting: pair -> sites whose head waits on it

    def offer(site):
        head = queues[site][0]
        need = next((p for p in deps_of.get(head.pair, ()) if left[p]), None)
        if need is None:
            heapq.heappush(ready, (key(head), site))
        else:
            waiting.setdefault(need, []).append(site)

    for site in queues:
        offer(site)
    while ready:
        site = heapq.heappop(ready)[1]
        queue = queues[site]
        task = queue.popleft()
        order.append(task.face)
        left[task.pair] -= 1
        if not left[task.pair]:
            for other in waiting.pop(task.pair, ()):
                offer(other)
        if queue:
            offer(site)
        else:
            del queues[site]
    return order


def _plan_site(e, site):
    """The faces of one site as tasks, products left to right, inner
    products first.

    A face is the pair of operands its multiplication combines, spelled as
    the set spells them: the product of the factors so far and the next
    factor.  The walk is iterative, so nesting depth is not bounded by the
    recursion limit.
    """
    tasks = []
    todo = [(e, False)]
    while todo:
        node, ready = todo.pop()
        if ready:
            acc = node.factors[0]
            for prev, f in zip(node.factors, node.factors[1:]):
                tasks.append(_Task(site, (acc, f), (face_key(prev), face_key(f))))
                acc = prod(acc, f)
        elif isinstance(node, (Prod, Sum)):
            if isinstance(node, Prod):
                todo.append((node, True))
            todo.extend((k, False) for k in reversed(_kids(node)))
        elif not isinstance(node, (Sym, _Unit)):
            raise RelationError(f"not an expression: {node!r}")
    return tasks
