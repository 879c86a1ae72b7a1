"""Directed line graph and the face-elimination engine.

Every edge of the underlying graph becomes a labeled vertex; two vertices are
joined when their edges meet head-to-tail, so each intermediate graph vertex
induces a complete bipartite subgraph.  Meta source/sink vertices stand for
the roots and terminals and are never eliminated.  Eliminating a face is one
multiplication; absorption, fillin (with in-place reuse when a side has a
single neighbor), merging of duplicate vertices, and removal of dead vertices
follow the classical rules, plus the subset/superset extended rewrites.  The
plain and the extended rules share one rewrite core: the fill-in, arc
cutting and merging helpers and the search for vertices with given
neighbors.

Replaying a recorded trace on the initial line graph reproduces the final
one; the sum of per-step multiplication flags is the cost of the run.
"""
from __future__ import annotations

from collections import deque

from .expr import UNIT, Expr, Sym, _Unit, _canonical_form, add, canonical, expand_expr, format_expr, prod
from .graph import UNIT_LABEL


class FaceError(ValueError):
    pass


class IncompleteElimination(FaceError):
    pass


class LGVertex:
    def __init__(self, vid, label, kind, graph_vertex=None):
        self.vid = vid
        self.label = label  # Expr for labeled vertices, None for meta
        self.kind = kind  # 'label', 'source', 'sink'
        self.graph_vertex = graph_vertex
        self.preds = set()
        self.succs = set()


class EliminationStep:
    def __init__(
        self, kind, face=None, operands=None, created=(), updated=(), removed=(), mult=0
    ):
        self.kind = kind
        self.face = face  # (vid, vid)
        self.operands = operands  # labels of the face, formatted by record()
        self.created = created
        self.updated = updated
        self.removed = removed
        self.mult = mult

    def record(self):
        return {
            "kind": self.kind,
            "face": list(self.face) if self.face else None,
            "operands": list(map(format_expr, self.operands)) if self.operands else None,
            "created": list(self.created),
            "updated": list(self.updated),
            "removed": list(self.removed),
            "mult": self.mult,
        }


class LineGraph:
    """Vertices in ascending vid order, with an index from each labeled
    vertex's canonical label to the vids holding it.

    Only :meth:`add_vertex` inserts into ``vertices``, always with a new,
    larger vid, so the dict's order is vid order.  Every label write goes
    through :meth:`relabel`, which files the vertex under the canonical node
    of its new label.  A label keeps its canonical node, so taking a vertex
    out of the index never canonicalizes anything.
    """

    def __init__(self):
        self.vertices = {}
        self.sources = {}  # root vertex id -> lg vid
        self.sinks = {}  # terminal vertex id -> lg vid
        self._next = 0
        self._by_key = {}  # canonical label -> set of vids

    def add_vertex(self, label, kind="label", graph_vertex=None):
        self._next += 1
        vid = self._next
        self.vertices[vid] = LGVertex(vid, None, kind, graph_vertex)
        if kind == "label":
            self.relabel(vid, label)
        return vid

    def relabel(self, vid, label):
        """Set the label of labeled vertex `vid` and refile it."""
        self._unfile(vid)
        self.vertices[vid].label = label
        self._by_key.setdefault(canonical(label), set()).add(vid)

    def _unfile(self, vid):
        label = self.vertices[vid].label
        if label is None:  # a new or meta vertex is in no bucket
            return
        key = _canonical_form(label)  # kept on the label since it was filed
        bucket = self._by_key[key]
        bucket.discard(vid)
        if not bucket:
            del self._by_key[key]

    def add_edge(self, i, j):
        self.vertices[i].succs.add(j)
        self.vertices[j].preds.add(i)

    def remove_edge(self, i, j):
        self.vertices[i].succs.discard(j)
        self.vertices[j].preds.discard(i)

    def remove_vertex(self, i):
        self._unfile(i)
        v = self.vertices.pop(i)
        for p in list(v.preds):
            self.vertices[p].succs.discard(i)
        for s in list(v.succs):
            self.vertices[s].preds.discard(i)

    def has_edge(self, i, j):
        return i in self.vertices and j in self.vertices[i].succs

    def labeled(self):
        return [v for v in self.vertices.values() if v.kind == "label"]

    def intermediate_faces(self):
        faces = []
        for v in self.labeled():
            for s in sorted(v.succs):
                if self.vertices[s].kind == "label":
                    faces.append((v.vid, s))
        return faces

    def find_by_label(self, target):
        """Vids whose label equals `target` up to the order of sum terms,
        ascending."""
        return sorted(self._by_key.get(canonical(target), ()))


def build_line_graph(g):
    """Line graph of a differentiation graph, with meta sources and sinks."""
    lg = LineGraph()
    by_edge = {}
    for e in g.edges:
        label = UNIT if e.label == UNIT_LABEL else Sym(e.label)
        by_edge[e.id] = lg.add_vertex(label)
    for a in g.edges:
        for b in g.out_edges(a.dst):
            lg.add_edge(by_edge[a.id], by_edge[b.id])
    for r in g.roots:
        s = lg.add_vertex(None, "source", r)
        lg.sources[r] = s
        for e in g.out_edges(r):
            lg.add_edge(s, by_edge[e.id])
    for t in g.terminals:
        s = lg.add_vertex(None, "sink", t)
        lg.sinks[t] = s
        for e in g.in_edges(t):
            lg.add_edge(by_edge[e.id], s)
    return lg


def _mult_flag(a, b):
    return 0 if isinstance(a, _Unit) or isinstance(b, _Unit) else 1


def _face_step(kind, i, j, ops, vid, created=False):
    """The step of a rewrite of face (i, j) that wrote `vid`."""
    new, old = ((vid,), ()) if created else ((), (vid,))
    return EliminationStep(kind, (i, j), ops, created=new, updated=old, mult=_mult_flag(*ops))


def _require_labeled(lg, *vids):
    for vid in vids:
        if vid not in lg.vertices:
            raise FaceError(f"no vertex {vid}")
        if lg.vertices[vid].kind != "label":
            raise FaceError("faces touching meta vertices cannot be eliminated")


def _twins(lg, preds, succs, skip):
    """Yield, ascending, the vids of the labeled vertices not in `skip`
    whose predecessors are `preds` and successors `succs`, a live labeled
    vertex's and so not empty.  Such a vertex succeeds every vertex of
    `preds`, so only the successors of the one with the fewest are looked
    at.  The candidates are fixed before the first yield, so the caller may
    remove a vertex yielded."""
    p = min(preds, key=lambda p: len(lg.vertices[p].succs))
    for vid in sorted(lg.vertices[p].succs):
        w = lg.vertices[vid]
        if w.kind == "label" and vid not in skip and w.preds == preds and w.succs == succs:
            yield vid


def _merge(lg, i, k):
    """Fold the label of `k` into `i` and remove `k`."""
    lg.relabel(i, add(lg.vertices[i].label, lg.vertices[k].label))
    lg.remove_vertex(k)
    return EliminationStep("merge", updated=(i,), removed=(k,))


def _cut(lg, v, side, others):
    """Remove the arcs between `v` and `others` on its p (predecessor) or s
    (successor) side."""
    for o in sorted(others):
        if side == "p":
            lg.remove_edge(o, v)
        else:
            lg.remove_edge(v, o)


def _fill(lg, i, j, label):
    """Drop face (i, j) and carry its flows, P_i to S_j, on one vertex
    labeled `label`: `i` when `j` is its only successor, else `j` when `i`
    is its only predecessor, else a new vertex.  Returns the step kind and
    the vertex written."""
    vi, vj = lg.vertices[i], lg.vertices[j]
    if vi.succs == {j}:
        kind, v = "fillin-reuse-i", i
    elif vj.preds == {i}:
        kind, v = "fillin-reuse-j", j
    else:
        kind, v = "fillin", lg.add_vertex(label)
    lg.remove_edge(i, j)
    if v in (i, j):
        lg.relabel(v, label)
    if v != i:  # a reused i keeps its predecessors
        for p in sorted(vi.preds):
            lg.add_edge(p, v)
    if v != j:  # a reused j keeps its successors
        for s in sorted(vj.succs):
            lg.add_edge(v, s)
    return kind, v


def _cleanup(lg, affected):
    """Dead-vertex removal and duplicate merging, cascaded to fixpoint."""
    steps = []
    queue = deque(sorted(set(affected)))
    while queue:
        i = queue.popleft()
        v = lg.vertices.get(i)
        if v is None or v.kind != "label":
            continue
        if not v.preds or not v.succs:
            neighbors = sorted((v.preds | v.succs) - {i})
            lg.remove_vertex(i)
            steps.append(EliminationStep("remove-isolated", removed=(i,)))
            queue.extend(n for n in neighbors if n in lg.vertices)
            continue
        for j in _twins(lg, v.preds, v.succs, (i,)):
            steps.append(_merge(lg, i, j))
            queue.append(i)
    return steps


def eliminate_face(lg, i, j):
    """Eliminate the intermediate face (i, j); returns the recorded steps."""
    _require_labeled(lg, i, j)
    if not lg.has_edge(i, j):
        raise FaceError(f"face ({i}, {j}) not present")
    vi, vj = lg.vertices[i], lg.vertices[j]
    ops = (vi.label, vj.label)
    product = prod(*ops)
    # the lowest-vid other vertex with the flows P_i and S_j absorbs the product
    v = next(_twins(lg, vi.preds, vj.succs, (i, j)), None)
    if v is not None:
        lg.relabel(v, add(lg.vertices[v].label, product))
        lg.remove_edge(i, j)
        step = _face_step("absorb", i, j, ops, v)
    else:
        kind, v = _fill(lg, i, j, product)
        step = _face_step(kind, i, j, ops, v, created=kind == "fillin")
    return [step] + _cleanup(lg, [i, j, v])


# ---------------------------------------------------------------------------
# extended subset/superset rewrites

# Each name reads op-side-relation: the flows of the partner `k` on that side
# (p: predecessors, s: successors) are a subset or superset of the reference
# flows, and equal on the other side.
EXTENDED_RULES = (
    "absorb-s-subset",
    "absorb-p-subset",
    "fillin-s-superset",
    "fillin-p-superset",
    "merge-p-superset",
    "merge-s-superset",
)


def extended_rewrite(lg, rule, i, j=None, k=None):
    """Subset/superset variants of absorption, fillin and merge.

    A rule record is ``(rule, i, j, k)`` for the absorb and fillin rules,
    with (i, j) the face and `k` the partner vertex, and ``(rule, i, k)``
    for the merge rules.  The reference flows are the face's, P_i and S_j,
    for absorb and fillin, and `i`'s own for merge.  Conditions are checked
    exactly as stated; when the subset or superset degenerates to equality
    the plain rule applies instead.  The operator is responsible for
    invoking a variant only where the remaining flows keep the accumulated
    values intact (the interior-split reading).
    """
    if rule not in EXTENDED_RULES:
        raise FaceError(f"unknown rule {rule}")
    op, side, relation = rule.split("-")
    if op == "merge":
        j = i  # k is compared with i's own flows
    _require_labeled(lg, i, j, k)
    if k in (i, j):
        raise FaceError(f"{rule} needs a partner other than its face")
    if op != "merge" and not lg.has_edge(i, j):
        raise FaceError(f"face ({i}, {j}) not present")
    vi, vj, vk = lg.vertices[i], lg.vertices[j], lg.vertices[k]
    ref = {"p": vi.preds, "s": vj.succs}
    own = {"p": vk.preds, "s": vk.succs}
    other = "s" if side == "p" else "p"
    small, big = (own[side], ref[side]) if relation == "subset" else (ref[side], own[side])
    if own[other] != ref[other] or not small <= big:
        raise FaceError(f"{rule} condition violated")
    if own[side] == ref[side]:
        return [_merge(lg, i, k)] if op == "merge" else eliminate_face(lg, i, j)

    ops = (vi.label, vj.label)
    v = k  # the vertex written, unless a fill-in writes another
    if op == "merge":
        lg.relabel(i, add(vi.label, vk.label))
        _cut(lg, k, side, ref[side])
        step = EliminationStep("extended-merge-superset", updated=(i, k))
    elif op == "absorb":
        lg.relabel(k, add(vk.label, prod(*ops)))
        _cut(lg, i if side == "p" else j, side, own[side])
        step = _face_step("extended-absorb-subset", i, j, ops, k)
    else:
        kind, v = _fill(lg, i, j, add(prod(*ops), vk.label))
        _cut(lg, k, side, ref[side])
        step = _face_step("extended-fillin-superset", i, j, ops, v, created=kind == "fillin")
    return [step] + _cleanup(lg, [i, j, k, v])


# ---------------------------------------------------------------------------
# driving an elimination


def resolve_vertex(lg, spec, defs=None, expanded=None):
    """Find the labeled vertex currently holding a value.

    `spec` is an expression or a symbol name; the names of `defs` in it
    stand for their definitions, expanded through `defs` with `expanded` as
    the memo of :func:`~jacfact.expr.expand_expr`.
    """
    if isinstance(spec, str):
        spec = Sym(spec)
    elif not isinstance(spec, Expr):
        raise FaceError(f"cannot resolve {spec!r}")
    # without definitions there is nothing to substitute
    target = expand_expr(spec, defs, expanded) if defs else spec
    hits = lg.find_by_label(target)
    if not hits:
        raise FaceError(f"no vertex labeled {format_expr(target)}")
    return hits[0]


def run_elimination(lg, order, defs=None):
    """Apply a face order; returns the full trace.

    Order entries are (a, b) face pairs or extended rule records (see
    :func:`extended_rewrite`); :func:`resolve_vertex` resolves every
    operand, expanding the names of `defs` once per name per order.  An
    order from :func:`~jacfact.relations.safe_elimination_order` names the
    set's references, so it replays only with ``defs=s.def_map``.
    """
    trace, expanded = [], {}
    for entry in order:
        if entry and entry[0] in EXTENDED_RULES:
            rule, *args = entry
            merge = rule.startswith("merge-")
            want = 2 if merge else 3
            if len(args) != want:
                raise FaceError(f"{rule} takes {want} operands, got {len(args)}")
            ids = [resolve_vertex(lg, a, defs, expanded) for a in args]
            if merge:
                ids.insert(1, None)  # a merge record names no face, only i and k
            trace.extend(extended_rewrite(lg, rule, *ids))
            continue
        a, b = entry
        i = resolve_vertex(lg, a, defs, expanded)
        j = resolve_vertex(lg, b, defs, expanded)
        trace.extend(eliminate_face(lg, i, j))
    return trace


def trace_mult_count(trace):
    return sum(step.mult for step in trace)


def readout_jacobian(lg):
    """Entries after a complete elimination: per (root, terminal), the sum of
    labels of vertices wired to that source and sink."""
    remaining = lg.intermediate_faces()
    if remaining:
        raise IncompleteElimination(f"{len(remaining)} intermediate faces remain")
    src_of = {vid: r for r, vid in lg.sources.items()}
    sink_of = {vid: t for t, vid in lg.sinks.items()}
    out = {}
    for v in lg.labeled():
        for p in sorted(v.preds):
            for s in sorted(v.succs):
                pair = (src_of[p], sink_of[s])
                out[pair] = add(out[pair], v.label) if pair in out else v.label
    return out


def line_graph_dot(lg):
    lines = ["digraph linegraph {"]
    for vid, v in lg.vertices.items():
        if v.kind == "label":
            lines.append(f'  n{vid} [label="{format_expr(v.label)}"];')
        else:
            shape = "invtriangle" if v.kind == "source" else "triangle"
            lines.append(f'  n{vid} [label="{v.graph_vertex}", shape={shape}];')
    for vid, v in lg.vertices.items():
        for s in sorted(v.succs):
            lines.append(f"  n{vid} -> n{s};")
    lines.append("}")
    return "\n".join(lines) + "\n"
