"""Directed line graph and the face-elimination engine.

Every edge of the underlying graph becomes a labeled vertex; two vertices are
joined when their edges meet head-to-tail, so each intermediate graph vertex
induces a complete bipartite subgraph.  Meta source/sink vertices stand for
the roots and terminals and are never eliminated.  Eliminating a face is one
multiplication; absorption, fillin (with in-place reuse when a side has a
single neighbor), merging of duplicate vertices, and removal of dead vertices
follow the classical rules, plus the subset/superset extended rewrites.

Replaying a recorded trace on the initial line graph reproduces the final
one; the sum of per-step multiplication flags is the cost of the run.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .expr import UNIT, Expr, Sym, _Unit, _canonical_form, add, canonical, expand_expr, format_expr, prod
from .graph import UNIT_LABEL


class FaceError(ValueError):
    pass


class IncompleteElimination(FaceError):
    pass


@dataclass(eq=False)
class LGVertex:
    vid: int
    label: object  # Expr for labeled vertices, None for meta
    kind: str  # 'label', 'source', 'sink'
    graph_vertex: str = None
    preds: set = field(default_factory=set)
    succs: set = field(default_factory=set)


@dataclass
class EliminationStep:
    kind: str
    face: tuple = None  # (vid, vid)
    operands: tuple = None  # labels of the face, formatted by record()
    created: tuple = ()
    updated: tuple = ()
    removed: tuple = ()
    mult: int = 0

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
        for j in _successors_of_all(lg, v.preds):
            w = lg.vertices[j]
            if j != i and w.kind == "label" and w.preds == v.preds and w.succs == v.succs:
                lg.relabel(i, add(v.label, w.label))
                lg.remove_vertex(j)
                steps.append(EliminationStep("merge", updated=(i,), removed=(j,)))
                queue.append(i)
    return steps


def _successors_of_all(lg, preds):
    """Ascending vids that may have every vertex of `preds` (not empty) as a
    predecessor: the successors of the one with the fewest."""
    p = min(preds, key=lambda p: len(lg.vertices[p].succs))
    return sorted(lg.vertices[p].succs)


def _find_absorber(lg, vi, vj):
    """The lowest-vid labeled vertex other than `vi` and `vj` with the
    predecessors of `vi` and the successors of `vj`."""
    if vi.preds:
        candidates = [lg.vertices[k] for k in _successors_of_all(lg, vi.preds)]
    else:
        candidates = lg.labeled()
    for k in candidates:
        if k.kind != "label" or k is vi or k is vj:
            continue
        if k.preds == vi.preds and k.succs == vj.succs:
            return k
    return None


def eliminate_face(lg, i, j):
    """Eliminate the intermediate face (i, j); returns the recorded steps."""
    for vid in (i, j):
        if vid not in lg.vertices:
            raise FaceError(f"no vertex {vid}")
        if lg.vertices[vid].kind != "label":
            raise FaceError("faces touching meta vertices cannot be eliminated")
    if not lg.has_edge(i, j):
        raise FaceError(f"face ({i}, {j}) not present")
    vi, vj = lg.vertices[i], lg.vertices[j]
    product = prod(vi.label, vj.label)
    ops = (vi.label, vj.label)
    mult = _mult_flag(vi.label, vj.label)
    steps = []
    absorber = _find_absorber(lg, vi, vj)
    if absorber is not None:
        lg.relabel(absorber.vid, add(absorber.label, product))
        lg.remove_edge(i, j)
        steps.append(
            EliminationStep("absorb", (i, j), ops, updated=(absorber.vid,), mult=mult)
        )
        affected = [i, j, absorber.vid]
    elif vi.succs == {j}:
        lg.remove_edge(i, j)
        lg.relabel(i, product)
        for s in sorted(vj.succs):
            lg.add_edge(i, s)
        steps.append(EliminationStep("fillin-reuse-i", (i, j), ops, updated=(i,), mult=mult))
        affected = [i, j]
    elif vj.preds == {i}:
        lg.remove_edge(i, j)
        lg.relabel(j, product)
        for p in sorted(vi.preds):
            lg.add_edge(p, j)
        steps.append(EliminationStep("fillin-reuse-j", (i, j), ops, updated=(j,), mult=mult))
        affected = [i, j]
    else:
        k = lg.add_vertex(product)
        for p in sorted(vi.preds):
            lg.add_edge(p, k)
        for s in sorted(vj.succs):
            lg.add_edge(k, s)
        lg.remove_edge(i, j)
        steps.append(EliminationStep("fillin", (i, j), ops, created=(k,), mult=mult))
        affected = [i, j, k]
    steps.extend(_cleanup(lg, affected))
    return steps


# ---------------------------------------------------------------------------
# extended subset/superset rewrites


def extended_rewrite(lg, rule, i, j=None, k=None):
    """Subset/superset variants of absorption, fillin and merge.

    Conditions are checked exactly as stated; when the subset or superset
    degenerates to equality the plain rule applies instead.  The operator is
    responsible for invoking a variant only where the remaining flows keep
    the accumulated values intact (the interior-split reading).
    """
    if rule in ("merge-p-superset", "merge-s-superset"):
        vi, vk = lg.vertices[i], lg.vertices[k]
        if rule == "merge-p-superset":
            if not (vk.preds >= vi.preds and vk.succs == vi.succs):
                raise FaceError("merge-p-superset condition violated")
            if vk.preds == vi.preds:
                lg.relabel(i, add(vi.label, vk.label))
                lg.remove_vertex(k)
                return [EliminationStep("merge", updated=(i,), removed=(k,))]
            lg.relabel(i, add(vi.label, vk.label))
            for p in sorted(vi.preds):
                lg.remove_edge(p, k)
        else:
            if not (vk.preds == vi.preds and vk.succs >= vi.succs):
                raise FaceError("merge-s-superset condition violated")
            if vk.succs == vi.succs:
                lg.relabel(i, add(vi.label, vk.label))
                lg.remove_vertex(k)
                return [EliminationStep("merge", updated=(i,), removed=(k,))]
            lg.relabel(i, add(vi.label, vk.label))
            for s in sorted(vi.succs):
                lg.remove_edge(k, s)
        steps = [EliminationStep("extended-merge-superset", updated=(i, k))]
        steps.extend(_cleanup(lg, [i, k]))
        return steps

    if not lg.has_edge(i, j):
        raise FaceError(f"face ({i}, {j}) not present")
    vi, vj, vk = lg.vertices[i], lg.vertices[j], lg.vertices[k]
    product = prod(vi.label, vj.label)
    ops = (vi.label, vj.label)
    mult = _mult_flag(vi.label, vj.label)

    if rule == "absorb-s-subset":
        if not (vk.preds == vi.preds and vk.succs <= vj.succs):
            raise FaceError("absorb-s-subset condition violated")
        if vk.succs == vj.succs:
            return eliminate_face(lg, i, j)
        lg.relabel(k, add(vk.label, product))
        for s in sorted(vk.succs):
            lg.remove_edge(j, s)
        steps = [EliminationStep("extended-absorb-subset", (i, j), ops,
                                 updated=(k,), mult=mult)]
        steps.extend(_cleanup(lg, [i, j, k]))
        return steps

    if rule == "absorb-p-subset":
        if not (vk.preds <= vi.preds and vk.succs == vj.succs):
            raise FaceError("absorb-p-subset condition violated")
        if vk.preds == vi.preds:
            return eliminate_face(lg, i, j)
        lg.relabel(k, add(vk.label, product))
        for p in sorted(vk.preds):
            lg.remove_edge(p, i)
        steps = [EliminationStep("extended-absorb-subset", (i, j), ops,
                                 updated=(k,), mult=mult)]
        steps.extend(_cleanup(lg, [i, j, k]))
        return steps

    if rule in ("fillin-s-superset", "fillin-p-superset"):
        if rule == "fillin-s-superset":
            if not (vk.preds == vi.preds and vk.succs >= vj.succs):
                raise FaceError("fillin-s-superset condition violated")
            if vk.succs == vj.succs:
                return eliminate_face(lg, i, j)
            shrink = lambda: [lg.remove_edge(k, s) for s in sorted(vj.succs & vk.succs)]
        else:
            if not (vk.preds >= vi.preds and vk.succs == vj.succs):
                raise FaceError("fillin-p-superset condition violated")
            if vk.preds == vi.preds:
                return eliminate_face(lg, i, j)
            shrink = lambda: [lg.remove_edge(p, k) for p in sorted(vi.preds & vk.preds)]
        combined = add(product, vk.label)
        if len(vi.succs) > 1 and len(vj.preds) > 1:
            new = lg.add_vertex(combined)
            for p in sorted(vi.preds):
                lg.add_edge(p, new)
            for s in sorted(vj.succs):
                lg.add_edge(new, s)
            shrink()
            lg.remove_edge(i, j)
            steps = [EliminationStep("extended-fillin-superset", (i, j), ops,
                                     created=(new,), mult=mult)]
            affected = [i, j, k, new]
        elif len(vi.succs) == 1:
            lg.remove_edge(i, j)
            lg.relabel(i, combined)
            for s in sorted(vj.succs):
                lg.add_edge(i, s)
            shrink()
            steps = [EliminationStep("extended-fillin-superset", (i, j), ops,
                                     updated=(i,), mult=mult)]
            affected = [i, j, k]
        else:  # |P_j| == 1
            lg.remove_edge(i, j)
            lg.relabel(j, combined)
            for p in sorted(vi.preds):
                lg.add_edge(p, j)
            shrink()
            steps = [EliminationStep("extended-fillin-superset", (i, j), ops,
                                     updated=(j,), mult=mult)]
            affected = [i, j, k]
        steps.extend(_cleanup(lg, affected))
        return steps

    raise FaceError(f"unknown rule {rule}")


# ---------------------------------------------------------------------------
# driving an elimination


def resolve_vertex(lg, spec, defs=None):
    """Find the labeled vertex currently holding a value.

    `spec` is a vertex id, an expression, or a symbol name; names that match
    a definition resolve to the definition's expanded expression.
    """
    if isinstance(spec, int):
        if spec not in lg.vertices:
            raise FaceError(f"no vertex {spec}")
        return spec
    if isinstance(spec, str):
        spec = Sym(spec)
    elif not isinstance(spec, Expr):
        raise FaceError(f"cannot resolve {spec!r}")
    # without definitions there is nothing to substitute
    target = expand_expr(spec, defs) if defs else spec
    hits = lg.find_by_label(target)
    if not hits:
        raise FaceError(f"no vertex labeled {format_expr(target)}")
    return hits[0]


def run_elimination(lg, order, defs=None, allow_extended=False):
    """Apply a face order; returns the full trace.

    Order entries are (a, b) pairs resolved by value, or explicit rule
    records ``(rule, ...)`` when extended rewrites are allowed.
    """
    trace = []
    for entry in order:
        if allow_extended and entry and isinstance(entry[0], str) and entry[0].startswith(
            ("absorb-", "fillin-", "merge-")
        ):
            rule, *args = entry
            ids = [resolve_vertex(lg, a, defs) for a in args]
            trace.extend(extended_rewrite(lg, rule, *ids))
            continue
        a, b = entry
        i = resolve_vertex(lg, a, defs)
        j = resolve_vertex(lg, b, defs)
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
