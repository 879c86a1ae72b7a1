import random

import pytest

from jacfact import linegraph
from jacfact.expr import UNIT, Sym, atom, canonical, canonical_text, fma_cost, format_expr, parse_expr
from jacfact.factorize import plan
from jacfact.graph import DiffGraph, Edge, parse_graph
from jacfact.linegraph import (
    FaceError,
    IncompleteElimination,
    LineGraph,
    build_line_graph,
    eliminate_face,
    extended_rewrite,
    line_graph_dot,
    readout_jacobian,
    resolve_vertex,
    run_elimination,
    trace_mult_count,
)
from jacfact.oracle import bauer_eval, check_equiv, draw_trials
from jacfact.relations import safe_elimination_order
from jacfact.structure import contract

from conftest import lg_value, load_graph, random_layered_dag


def test_fig1a_line_graph_is_k32():
    g = load_graph("fig1a")
    lg = build_line_graph(g)
    labeled = lg.labeled()
    assert len(labeled) == 5
    assert len(_scan_faces(lg)) == 6
    uppers = {v.vid for v in labeled if format_expr(v.label) in ("e3", "e4", "e5")}
    lowers = {v.vid for v in labeled if format_expr(v.label) in ("e1", "e2")}
    for u in uppers:
        assert {s for s in lg.vertices[u].succs if lg.vertices[s].kind == "label"} == lowers


def test_single_edge_line_graph():
    g = parse_graph("e e1 a b\n")
    lg = build_line_graph(g)
    assert len(lg.labeled()) == 1
    v = lg.labeled()[0]
    assert {lg.vertices[p].kind for p in v.preds} == {"source"}
    assert {lg.vertices[s].kind for s in v.succs} == {"sink"}
    assert readout_jacobian(lg)[("a", "b")] == Sym("e1")


def test_fig9a_line_graph_size(fig9a):
    lg = build_line_graph(fig9a)
    assert len(lg.labeled()) == len(fig9a.edges) == 20


def test_biclique_per_intermediate(fig4b):
    lg = build_line_graph(fig4b)
    by_label = {format_expr(v.label): v for v in lg.labeled()}
    for v in ("v2", "v3", "v5", "v7", "v8"):
        ins = [by_label[e.label] for e in fig4b.in_edges(v)]
        outs = [by_label[e.label] for e in fig4b.out_edges(v)]
        for a in ins:
            assert {o.vid for o in outs} <= a.succs


def test_two_edge_chain_elimination():
    g = parse_graph("e e1 a b\ne e2 b c\n")
    lg = build_line_graph(g)
    i = resolve_vertex(lg, "e1")
    j = resolve_vertex(lg, "e2")
    steps = eliminate_face(lg, i, j)
    assert steps[0].kind == "fillin-reuse-i"
    assert not lg.intermediate_faces()
    assert readout_jacobian(lg)[("a", "c")] == parse_expr("e1*e2")
    assert trace_mult_count(steps) == 1


def test_chain_block_elimination_sequence(fig4b):
    # the staged sequence: chains first, then the shared block emerges
    lg = build_line_graph(fig4b)
    run_elimination(lg, [("e3", "e7"), ("e6", "e10")])
    labels = {format_expr(v.label) for v in lg.labeled()}
    assert "e3*e7" in labels and "e6*e10" in labels
    run_elimination(lg, [(parse_expr("e3*e7"), "e11"), ("e8", "e11")])
    labels = {format_expr(v.label) for v in lg.labeled()}
    assert "e3*e7*e11" in labels and "e8*e11" in labels
    run_elimination(lg, [("e9", "e12"), (parse_expr("e6*e10"), "e12")])
    labels = {format_expr(v.label) for v in lg.labeled()}
    assert "e8*e11+e9*e12" in labels and "e6*e10*e12" in labels
    merged = [v for v in lg.labeled() if format_expr(v.label) == "e8*e11+e9*e12"]
    assert len(merged) == 1
    preds = {format_expr(lg.vertices[p].label) for p in merged[0].preds}
    assert preds == {"e4", "e5"}
    succs = {lg.vertices[s].kind for s in merged[0].succs}
    assert succs == {"sink"}


def test_eliminate_face_errors(fig4b):
    lg = build_line_graph(fig4b)
    i = resolve_vertex(lg, "e1")
    j = resolve_vertex(lg, "e12")
    with pytest.raises(FaceError, match="not present"):
        eliminate_face(lg, i, j)
    src = next(vid for vid, v in lg.vertices.items() if v.kind == "source" and v.graph_vertex == "v1")
    with pytest.raises(FaceError, match="meta"):
        eliminate_face(lg, src, i)
    with pytest.raises(FaceError):
        resolve_vertex(lg, "zz")


def test_readout_requires_completion(fig4b):
    lg = build_line_graph(fig4b)
    with pytest.raises(IncompleteElimination, match="^14 intermediate faces remain$"):
        readout_jacobian(lg)


def _eliminate_randomly(lg, rng):
    """Total face elimination in `rng`'s order; returns the trace."""
    trace = []
    while True:
        faces = lg.intermediate_faces()
        if not faces:
            return trace
        trace += eliminate_face(lg, *rng.choice(faces))


def test_random_orders_match_oracle():
    rng = random.Random(5)
    for _ in range(20):
        g = random_layered_dag(rng, max_vertices=8, max_edges=12)
        lg = build_line_graph(g)
        _eliminate_randomly(lg, rng)
        assert check_equiv(g, readout_jacobian(lg), trials=5).ok


def test_trace_replay_deterministic(fig4a):
    def run():
        lg = build_line_graph(fig4a)
        trace = run_elimination(
            lg, [("e1", "e3"), ("e2", "e4"), ("e5", "e7"), ("e6", "e8"),
                 (parse_expr("e1*e3+e2*e4"), parse_expr("e5*e7+e6*e8"))],
        )
        return lg, trace

    lg1, t1 = run()
    lg2, t2 = run()
    assert [s.record() for s in t1] == [s.record() for s in t2]
    assert {v.vid: format_expr(v.label) for v in lg1.labeled()} == {
        v.vid: format_expr(v.label) for v in lg2.labeled()
    }
    assert trace_mult_count(t1) == 5
    assert check_equiv(fig4a, readout_jacobian(lg1)).ok


def test_unit_labels_multiply_free():
    g = parse_graph("e e1 a b\ne u1 b c 1\n")
    lg = build_line_graph(g)
    unit = resolve_vertex(lg, "1")  # a name resolves as its atom, 1 included
    assert unit == resolve_vertex(lg, parse_expr("1")) and lg.vertices[unit].label is UNIT
    trace = run_elimination(lg, [("e1", parse_expr("1"))])
    assert trace_mult_count(trace) == 0
    assert readout_jacobian(lg)[("a", "c")] == Sym("e1")


@pytest.mark.parametrize("label", ["1", "e1"])
def test_atom_is_the_one_label_convention(label):
    assert atom(label).name == label
    assert (atom(label) is UNIT) == (label == "1")
    g = parse_graph(f"e x a b {label}\n")
    (v,) = build_line_graph(g).labeled()
    (ce,) = contract(g).edges
    assert v.label is ce.expr is atom(label)


def test_dot_output(fig4a):
    lg = build_line_graph(fig4a)
    dot = line_graph_dot(lg)
    assert dot.count('label="e') == 8
    assert "invtriangle" in dot and "triangle" in dot


# ---------------------------------------------------------------------------
# extended rewrites on hand-built states


def _value_snapshot(lg, labels, seed=3):
    return lg_value(lg, draw_trials(labels, seed, 1))


def _build(vertspec, edges, sources, sinks):
    lg = LineGraph()
    ids = {}
    for name, label in vertspec.items():
        ids[name] = lg.add_vertex(parse_expr(label))
    for r in sources:
        ids[r] = lg.add_vertex(None, "source", r)
    for t in sinks:
        ids[t] = lg.add_vertex(None, "sink", t)
    for a, b in edges:
        lg.add_edge(ids[a], ids[b])
    return lg, ids


def test_extended_absorb_s_subset():
    # k runs alongside (i, j) with a smaller successor set
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "m1": "d", "m2": "e"},
        [("Y", "i"), ("i", "j"), ("Y", "k"), ("j", "m1"), ("j", "m2"),
         ("k", "m1"), ("m1", "X"), ("m2", "X")],
        ["Y"], ["X"],
    )
    before = _value_snapshot(lg, set("abcde"))
    steps = extended_rewrite(lg, "absorb-s-subset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-absorb-subset"
    assert lg.has_edge(ids["i"], ids["j"])  # face retained
    assert lg.vertices[ids["j"]].succs == {ids["m2"]}  # S_j shrunk
    assert format_expr(lg.vertices[ids["k"]].label) == "c+a*b"
    assert _value_snapshot(lg, set("abcde")) == before


def test_extended_absorb_p_subset():
    # mirror of the s-subset case: k runs alongside (i, j) with fewer predecessors
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "m1": "d", "m2": "e"},
        [("X", "m1"), ("X", "m2"), ("m1", "i"), ("m2", "i"), ("m1", "k"),
         ("i", "j"), ("j", "Y"), ("k", "Y")],
        ["X"], ["Y"],
    )
    before = _value_snapshot(lg, set("abcde"))
    steps = extended_rewrite(lg, "absorb-p-subset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-absorb-subset"
    assert lg.has_edge(ids["i"], ids["j"])  # face retained
    assert lg.vertices[ids["i"]].preds == {ids["m2"]}  # P_i shrunk
    assert format_expr(lg.vertices[ids["k"]].label) == "c+a*b"
    assert _value_snapshot(lg, set("abcde")) == before


def test_extended_absorb_equal_delegates():
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "m1": "d"},
        [("Y", "i"), ("i", "j"), ("Y", "k"), ("j", "m1"), ("k", "m1"), ("m1", "X")],
        ["Y"], ["X"],
    )
    steps = extended_rewrite(lg, "absorb-s-subset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)
    assert steps[0].kind == "absorb"
    assert not lg.has_edge(ids["i"], ids["j"])


def test_extended_fillin_s_superset():
    # k covers more sinks than j; the new vertex absorbs k's share on S_j
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "u": "u", "w": "w", "m1": "d", "m2": "e"},
        [("Y", "i"), ("Y2", "u"), ("i", "j"), ("u", "j"), ("i", "w"),
         ("Y", "k"), ("j", "m1"), ("k", "m1"), ("k", "m2"),
         ("m1", "X"), ("m2", "X2"), ("w", "X2")],
        ["Y", "Y2"], ["X", "X2"],
    )
    labels = set("abcde") | {"u", "w"}
    before = _value_snapshot(lg, labels)
    steps = extended_rewrite(lg, "fillin-s-superset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-fillin-superset"
    created = steps[0].created[0]
    assert format_expr(lg.vertices[created].label) == "a*b+c"
    assert lg.vertices[ids["k"]].succs == {ids["m2"]}  # S_k shrunk by S_j
    assert not lg.has_edge(ids["i"], ids["j"])
    assert _value_snapshot(lg, labels) == before


def test_extended_fillin_p_superset():
    # mirror of the s-superset case: k has more sources than i
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "u": "u", "w": "w", "m1": "d", "m2": "e"},
        [("j", "Y"), ("u", "Y2"), ("i", "j"), ("i", "u"), ("w", "j"),
         ("k", "Y"), ("m1", "i"), ("m1", "k"), ("m2", "k"),
         ("X", "m1"), ("X2", "m2"), ("X2", "w")],
        ["X", "X2"], ["Y", "Y2"],
    )
    labels = set("abcde") | {"u", "w"}
    before = _value_snapshot(lg, labels)
    steps = extended_rewrite(lg, "fillin-p-superset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-fillin-superset"
    created = steps[0].created[0]
    assert format_expr(lg.vertices[created].label) == "a*b+c"
    assert lg.vertices[ids["k"]].preds == {ids["m2"]}  # P_k shrunk by P_i
    assert not lg.has_edge(ids["i"], ids["j"])
    assert _value_snapshot(lg, labels) == before


def test_extended_merge_p_superset():
    lg, ids = _build(
        {"i": "a", "k": "b", "m": "m", "q": "q"},
        [("Y", "i"), ("Y", "k"), ("Y2", "q"), ("q", "k"),
         ("i", "m"), ("k", "m"), ("m", "X")],
        ["Y", "Y2"], ["X"],
    )
    labels = {"a", "b", "m", "q"}
    before = _value_snapshot(lg, labels)
    steps = extended_rewrite(lg, "merge-p-superset", ids["i"], k=ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-merge-superset"
    assert format_expr(lg.vertices[ids["i"]].label) == "a+b"
    assert ids["Y"] not in lg.vertices[ids["k"]].preds
    assert _value_snapshot(lg, labels) == before


def test_extended_merge_s_superset():
    lg, ids = _build(
        {"i": "a", "k": "b", "m": "m", "q": "q"},
        [("i", "Y"), ("k", "Y"), ("q", "Y2"), ("k", "q"),
         ("m", "i"), ("m", "k"), ("X", "m")],
        ["X"], ["Y", "Y2"],
    )
    labels = {"a", "b", "m", "q"}
    before = _value_snapshot(lg, labels)
    steps = extended_rewrite(lg, "merge-s-superset", ids["i"], k=ids["k"])
    _check_index(lg)
    assert steps[0].kind == "extended-merge-superset"
    assert format_expr(lg.vertices[ids["i"]].label) == "a+b"
    assert ids["Y"] not in lg.vertices[ids["k"]].succs
    assert _value_snapshot(lg, labels) == before


def test_extended_merge_equal_is_plain():
    lg, ids = _build(
        {"i": "a", "k": "b", "m": "m"},
        [("Y", "i"), ("Y", "k"), ("i", "m"), ("k", "m"), ("m", "X")],
        ["Y"], ["X"],
    )
    steps = extended_rewrite(lg, "merge-p-superset", ids["i"], k=ids["k"])
    _check_index(lg)
    assert steps[0].kind == "merge"
    assert ids["k"] not in lg.vertices


def test_extended_condition_violation():
    lg, ids = _build(
        {"i": "a", "j": "b", "k": "c", "m1": "d"},
        [("Y", "i"), ("i", "j"), ("Y2", "k"), ("j", "m1"), ("k", "m1"), ("m1", "X")],
        ["Y", "Y2"], ["X"],
    )
    with pytest.raises(FaceError, match="condition violated"):
        extended_rewrite(lg, "absorb-s-subset", ids["i"], ids["j"], ids["k"])
    _check_index(lg)


# the hand-built states above, per rule: i, j, k are labeled a, b, c (i, k
# labeled a, b for the merge rules)
EXTENDED_STATES = {
    "absorb-s-subset": (
        {"i": "a", "j": "b", "k": "c", "m1": "d", "m2": "e"},
        [("Y", "i"), ("i", "j"), ("Y", "k"), ("j", "m1"), ("j", "m2"),
         ("k", "m1"), ("m1", "X"), ("m2", "X")],
        ["Y"], ["X"],
    ),
    "absorb-p-subset": (
        {"i": "a", "j": "b", "k": "c", "m1": "d", "m2": "e"},
        [("X", "m1"), ("X", "m2"), ("m1", "i"), ("m2", "i"), ("m1", "k"),
         ("i", "j"), ("j", "Y"), ("k", "Y")],
        ["X"], ["Y"],
    ),
    "fillin-s-superset": (
        {"i": "a", "j": "b", "k": "c", "u": "u", "w": "w", "m1": "d", "m2": "e"},
        [("Y", "i"), ("Y2", "u"), ("i", "j"), ("u", "j"), ("i", "w"),
         ("Y", "k"), ("j", "m1"), ("k", "m1"), ("k", "m2"),
         ("m1", "X"), ("m2", "X2"), ("w", "X2")],
        ["Y", "Y2"], ["X", "X2"],
    ),
    "fillin-p-superset": (
        {"i": "a", "j": "b", "k": "c", "u": "u", "w": "w", "m1": "d", "m2": "e"},
        [("j", "Y"), ("u", "Y2"), ("i", "j"), ("i", "u"), ("w", "j"),
         ("k", "Y"), ("m1", "i"), ("m1", "k"), ("m2", "k"),
         ("X", "m1"), ("X2", "m2"), ("X2", "w")],
        ["X", "X2"], ["Y", "Y2"],
    ),
    "merge-p-superset": (
        {"i": "a", "k": "b", "m": "m", "q": "q"},
        [("Y", "i"), ("Y", "k"), ("Y2", "q"), ("q", "k"),
         ("i", "m"), ("k", "m"), ("m", "X")],
        ["Y", "Y2"], ["X"],
    ),
    "merge-s-superset": (
        {"i": "a", "k": "b", "m": "m", "q": "q"},
        [("i", "Y"), ("k", "Y"), ("q", "Y2"), ("k", "q"),
         ("m", "i"), ("m", "k"), ("X", "m")],
        ["X"], ["Y", "Y2"],
    ),
}

# k shares i's predecessors and, for a face, j's successors, else i's own
EQUAL_STATES = {
    "face": (
        {"i": "a", "j": "b", "k": "c", "m1": "d"},
        [("Y", "i"), ("i", "j"), ("Y", "k"), ("j", "m1"), ("k", "m1"), ("m1", "X")],
        ["Y"], ["X"],
    ),
    "merge": (
        {"i": "a", "k": "b", "m": "m"},
        [("Y", "i"), ("Y", "k"), ("i", "m"), ("k", "m"), ("m", "X")],
        ["Y"], ["X"],
    ),
}


def _direct(lg, ids, rule):
    if rule.startswith("merge-"):
        return extended_rewrite(lg, rule, ids["i"], k=ids["k"])
    return extended_rewrite(lg, rule, ids["i"], ids["j"], ids["k"])


def _outcome(lg, steps, vertspec):
    labels = {v.vid: format_expr(v.label) for v in lg.labeled()}
    return [s.record() for s in steps], labels, _value_snapshot(lg, set(vertspec.values()))


@pytest.mark.parametrize("rule", linegraph.EXTENDED_RULES)
def test_extended_record_matches_direct_call(rule):
    spec = EXTENDED_STATES[rule]
    lg, ids = _build(*spec)
    direct = _outcome(lg, _direct(lg, ids, rule), spec[0])
    assert direct[0][0]["kind"].startswith("extended-")
    _check_index(lg)
    record = (rule, "a", "b") if rule.startswith("merge-") else (rule, "a", "b", "c")
    lg, ids = _build(*spec)
    assert _outcome(lg, run_elimination(lg, [record]), spec[0]) == direct
    _check_index(lg)


@pytest.mark.parametrize("rule", linegraph.EXTENDED_RULES)
def test_extended_equal_falls_back_to_plain(rule):
    merge = rule.startswith("merge-")
    lg, ids = _build(*EQUAL_STATES["merge" if merge else "face"])
    steps = _direct(lg, ids, rule)
    _check_index(lg)
    if merge:
        assert [s.kind for s in steps] == ["merge"]
        assert ids["k"] not in lg.vertices
    else:
        assert [s.kind for s in steps] == ["absorb", "remove-isolated", "remove-isolated"]
        assert format_expr(lg.vertices[ids["k"]].label) == "c+a*b"


def test_extended_operand_errors():
    spec = EXTENDED_STATES["absorb-s-subset"]
    lg, ids = _build(*spec)
    before = _value_snapshot(lg, set(spec[0].values()))
    i, j = ids["i"], ids["j"]
    with pytest.raises(FaceError, match="no vertex 999"):
        extended_rewrite(lg, "absorb-s-subset", i, j, 999)
    with pytest.raises(FaceError, match="no vertex"):
        extended_rewrite(lg, "merge-p-superset", i)  # no partner
    with pytest.raises(FaceError, match="meta"):
        extended_rewrite(lg, "absorb-s-subset", i, j, ids["Y"])
    with pytest.raises(FaceError, match="partner other than"):
        extended_rewrite(lg, "merge-s-superset", i, k=i)
    with pytest.raises(FaceError, match="unknown rule"):
        extended_rewrite(lg, "absorb-s-superset", i, j, ids["k"])
    _check_index(lg)
    assert _value_snapshot(lg, set(spec[0].values())) == before


@pytest.mark.parametrize(
    "record, want, got",
    [
        (("absorb-s-subset", "e1", "e2", "e3", "e1"), 3, 4),
        (("absorb-s-subset", "e1", "e2"), 3, 2),
        (("fillin-p-superset", "e1"), 3, 1),
        (("merge-p-superset", "e1", "e2", "e3"), 2, 3),
        (("merge-p-superset", "e1"), 2, 1),
    ],
)
def test_rule_record_operand_count(record, want, got):
    lg = build_line_graph(parse_graph("e e1 a b\ne e2 b c\ne e3 c d\n"))
    before = line_graph_dot(lg)
    with pytest.raises(FaceError, match=f"^{record[0]} takes {want} operands, got {got}$"):
        run_elimination(lg, [record])
    assert line_graph_dot(lg) == before


# ---------------------------------------------------------------------------
# the face and label indexes and the local absorber search against full scans


def _scan_faces(lg):
    """Every arc between two labeled vertices, by a scan of each labeled
    vertex's successors in vid order."""
    faces = []
    for v in lg.labeled():
        for s in sorted(v.succs):
            if lg.vertices[s].kind == "label":
                faces.append((v.vid, s))
    return faces


def _check_index(lg):
    """intermediate_faces() against _scan_faces(), find_by_label against a
    canonical_text() scan of every labeled vertex, and no stale or misfiled
    vid in the label index, before or after the lookups file the vertices
    written since the last one."""
    assert lg.intermediate_faces() == _scan_faces(lg)
    labeled = lg.labeled()
    vids = [v.vid for v in labeled]
    assert vids == sorted(vids)
    filed = [vid for bucket in lg._by_key.values() for vid in bucket]
    assert sorted(filed + list(lg._unfiled)) == vids  # each filed or pending, once
    keys = {v.vid: canonical_text(v.label) for v in labeled}
    for v in labeled:
        assert lg.find_by_label(v.label) == [u for u in vids if keys[u] == keys[v.vid]]
    assert lg.find_by_label(Sym("absent")) == []
    assert not lg._unfiled
    indexed = sorted(vid for bucket in lg._by_key.values() for vid in bucket)
    assert indexed == vids
    for key, bucket in lg._by_key.items():
        assert canonical(key) is key
        assert bucket and all(canonical(lg.vertices[vid].label) is key for vid in bucket)


def _scan_absorber(lg, i, j):
    vi, vj = lg.vertices[i], lg.vertices[j]
    for vid in sorted(lg.vertices):
        k = lg.vertices[vid]
        if k.kind == "label" and vid not in (i, j) and k.preds == vi.preds and k.succs == vj.succs:
            return vid
    return None


def test_arc_writes_keep_set_semantics():
    lg, ids = _build(*EQUAL_STATES["face"])
    lg.add_edge(ids["i"], ids["j"])  # already an arc
    lg.remove_edge(ids["j"], ids["i"])  # never an arc
    lg.remove_edge(ids["Y"], ids["j"])  # never an arc, from a meta vertex
    _check_index(lg)
    i, j, k, m1 = (ids[n] for n in ("i", "j", "k", "m1"))
    assert lg.intermediate_faces() == [(i, j), (j, m1), (k, m1)]


def test_labeled_in_vid_order_after_fillins_and_removals(fig4b):
    rng = random.Random(0)
    lg = build_line_graph(fig4b)
    kinds = set()
    while True:
        faces = lg.intermediate_faces()
        if not faces:
            break
        steps = eliminate_face(lg, *rng.choice(faces))
        kinds.update(step.kind for step in steps)
        vids = [v.vid for v in lg.labeled()]
        assert vids == sorted(vids)
        assert list(lg.vertices) == sorted(lg.vertices)
    assert {"fillin", "remove-isolated"} <= kinds


def test_find_by_label_lists_every_holder_ascending():
    g = parse_graph("e e1 a b x\ne e2 a c x\ne e3 b d y\ne e4 c d y\n")
    lg = build_line_graph(g)
    holders = lg.find_by_label(Sym("x"))
    assert len(holders) == 2 and holders == sorted(holders)
    assert resolve_vertex(lg, "x") == holders[0]
    _check_index(lg)


def test_index_and_absorber_match_full_scans():
    rng = random.Random(11)
    graphs = absorbs = cascades = 0
    while graphs < 20:
        g = random_layered_dag(rng, max_vertices=25, max_edges=40)
        if graphs % 2:  # repeated labels, so several vertices share a key
            g = DiffGraph([Edge(e.id, e.src, e.dst, rng.choice("abc")) for e in g.edges])
        lg = build_line_graph(g)
        if len(g.vertices) < 10 or not lg.intermediate_faces():
            continue
        graphs += 1
        _check_index(lg)
        while True:
            faces = lg.intermediate_faces()
            if not faces:
                break
            i, j = rng.choice(faces)
            want = _scan_absorber(lg, i, j)
            vi, vj = lg.vertices[i], lg.vertices[j]
            assert next(linegraph._twins(lg, vi.preds, vj.succs, (i, j)), None) == want
            steps = eliminate_face(lg, i, j)
            assert (steps[0].kind == "absorb") == (want is not None)
            absorbs += want is not None
            cascades += [s.kind for s in steps].count("remove-isolated") > 1
            _check_index(lg)
        assert check_equiv(g, readout_jacobian(lg), trials=3).ok
    assert absorbs > 20 and cascades > 20


def _dense_layered(width, depth):
    lines = [
        f"e a{n} v{lv}_{i} v{lv + 1}_{j}"
        for n, (lv, i, j) in enumerate(
            (lv, i, j) for lv in range(depth) for i in range(width) for j in range(width)
        )
    ]
    return parse_graph("\n".join(lines) + "\n")


def test_level_chain_replay_canonicalizes_once_per_write_and_lookup(monkeypatch):
    g = _dense_layered(4, 4)
    s = plan(g, "chain").exprset
    order = safe_elimination_order(s)
    calls = {"canonical": 0, "relabel": 0, "find_by_label": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linegraph, "canonical", counted("canonical", linegraph.canonical))
    for name in ("relabel", "find_by_label"):
        monkeypatch.setattr(LineGraph, name, counted(name, getattr(LineGraph, name)))
    lg = build_line_graph(g)
    trace = run_elimination(lg, order, defs=s.def_map)
    assert trace_mult_count(trace) == fma_cost(s) == 192
    assert check_equiv(g, readout_jacobian(lg), trials=3).ok
    assert calls["find_by_label"] == 2 * len(order)
    assert calls["canonical"] <= calls["relabel"] + calls["find_by_label"]


@pytest.mark.parametrize("strategy", ["refs", "pages", "chain"])
@pytest.mark.parametrize("name", ["fig4b", "fig7a", "fig9a", "dense3x3"])
def test_indexes_match_full_scans_through_plan_replays(name, strategy):
    # fig9a's refs and pages orders stop at a FaceError, which must leave
    # both indexes as current as a completed step does
    g = _dense_layered(3, 3) if name == "dense3x3" else load_graph(name)
    s = plan(g, strategy).exprset
    lg = build_line_graph(g)
    _check_index(lg)
    try:
        for entry in safe_elimination_order(s):
            run_elimination(lg, [entry], defs=s.def_map)
            _check_index(lg)
    except FaceError:
        _check_index(lg)
    else:
        assert check_equiv(g, readout_jacobian(lg), trials=3).ok


def test_random_total_elimination_canonicalizes_nothing(monkeypatch):
    calls = {"canonical": 0}

    def counted(e):
        calls["canonical"] += 1
        return canonical(e)

    monkeypatch.setattr(linegraph, "canonical", counted)
    g = _dense_layered(4, 4)
    lg = build_line_graph(g)
    trace = _eliminate_randomly(lg, random.Random(7))
    assert calls["canonical"] == 0
    assert check_equiv(g, readout_jacobian(lg), trials=3).ok
    # the first lookup files every labeled vertex, then looks up its target
    assert resolve_vertex(lg, lg.labeled()[0].label) == lg.labeled()[0].vid
    assert calls["canonical"] == len(lg.labeled()) + 1
    assert {s.kind for s in trace} >= {"absorb", "fillin", "merge", "remove-isolated"}


def test_random_total_elimination_of_dense_4x5():
    g = _dense_layered(4, 5)
    lg = build_line_graph(g)
    assert trace_mult_count(_eliminate_randomly(lg, random.Random(7))) == 4306
    assert check_equiv(g, readout_jacobian(lg), trials=3).ok
