import hashlib
import json
import random

import pytest

from jacfact.graph import DiffGraph, Edge, UNIT_LABEL, depth_levels, parse_graph
from jacfact.oracle import check_equiv
from jacfact.structure import (
    StructureError,
    classify_block,
    contract,
    find_structures,
    segment_cross_level,
)

from conftest import load_graph, random_layered_dag


def _by_kind(structures, kind):
    return [s for s in structures if s.kind == kind]


def test_find_structures_fig4a(fig4a):
    found = find_structures(fig4a)
    blocks = _by_kind(found, "direct-simple-block")
    assert {(b.src, b.sink) for b in blocks} == {("v1", "v4"), ("v4", "v7")}
    chains = _by_kind(found, "indirect-simple-chain")
    assert ("v1", "v7") in {(c.src, c.sink) for c in chains}
    # blocks come before the chain that contains them
    order = [(s.src, s.sink) for s in found]
    assert order.index(("v1", "v4")) < order.index(("v1", "v7"))


def test_find_structures_fig4b(fig4b):
    found = find_structures(fig4b)
    chains = _by_kind(found, "direct-simple-chain")
    assert {(c.src, c.sink) for c in chains} == {("v2", "v7"), ("v3", "v8")}
    complexes = _by_kind(found, "complex-block")
    assert [(c.src, c.sink) for c in complexes] == [("v1", "v9")]


def test_find_structures_diamond():
    g = parse_graph("e e1 a b\ne e2 a c\ne e3 b d\ne e4 c d\n")
    found = find_structures(g)
    assert [s.kind for s in found if s.kind.endswith("block")] == [
        "direct-simple-block"
    ]


def test_classify_block_fig4a(fig4a):
    assert classify_block(fig4a, "v1", "v4").kind == "direct-simple-block"
    assert classify_block(fig4a, "v1", "v7").kind == "indirect-simple-chain"


def test_classify_block_chain_and_edge():
    g = load_graph("fig10a")
    assert classify_block(g, "v-4", "v13").kind == "direct-simple-chain"
    single = parse_graph("e e1 a b\n")
    assert classify_block(single, "a", "b").kind == "edge"
    with pytest.raises(StructureError, match="no chain or block"):
        classify_block(g, "v10", "v13")


def test_classify_block_complex(fig4b):
    assert classify_block(fig4b, "v1", "v9").kind == "complex-block"
    # v5..v9 is not a block here: v7 and v8 have incoming edges from outside
    with pytest.raises(StructureError):
        classify_block(fig4b, "v5", "v9")


def test_complex_block_survives_a_later_chain():
    # once the complex block a -> b is substituted, the chain x -> h absorbs
    # the chain b -> h: that chain's record must go, not the block's
    g = parse_graph(
        "e e0 x a\ne e1 a p\ne e2 a q\ne e3 p q\ne e4 p b\ne e5 q b\n"
        "e e6 b c\ne e7 c d\ne e8 d f\ne e9 d g\ne e10 f h\ne e11 g h\n"
    )
    found = [(s.kind, s.src, s.sink, sorted(s.edges)) for s in find_structures(g)]
    assert found == [
        ("direct-simple-chain", "d", "h", ["e10", "e8"]),
        ("direct-simple-chain", "d", "h", ["e11", "e9"]),
        ("direct-simple-block", "d", "h", ["e10", "e11", "e8", "e9"]),
        ("complex-block", "a", "b", ["e1", "e2", "e3", "e4", "e5"]),
        ("complex-chain", "x", "h", sorted(f"e{i}" for i in range(12))),
    ]
    assert classify_block(g, "a", "b").kind == "complex-block"


def test_block_materializes_after_split(fig4b):
    # after the backward pass splits v7/v8, the region below v5 is isolated
    from jacfact.factorize import factorize_backward

    split = factorize_backward(fig4b)
    names = [v for v in split.vertices if v.startswith("v5")]
    assert len(names) == 2
    for copy in names:
        assert classify_block(split, copy, "v9").kind == "direct-simple-block"


def test_structure_validates_definitions(fig4a, fig4b):
    for g in (fig4a, fig4b):
        for s in find_structures(g):
            if s.kind == "direct-simple-chain":
                interior = s.vertices - {s.src, s.sink}
                for v in interior:
                    assert len(g.in_edges(v)) == 1 and len(g.out_edges(v)) == 1
            if s.kind.endswith("simple-block"):
                interior = s.vertices - {s.src, s.sink}
                for v in interior:
                    for e in g.in_edges(v) + g.out_edges(v):
                        assert e.src in s.vertices and e.dst in s.vertices


def test_recognition_idempotent(fig4a):
    found = find_structures(fig4a)
    inner = [s for s in found if s.kind == "direct-simple-block"]
    edges = [e for e in fig4a.edges if e.id not in set().union(*[s.edges for s in inner])]
    for i, s in enumerate(inner):
        edges.append(Edge(f"sub{i}", s.src, s.sink, f"sub{i}"))
    reduced = DiffGraph(edges)
    again = find_structures(reduced)
    outer_first = {(s.src, s.sink, s.kind) for s in found}
    for s in again:
        if s.kind == "direct-simple-chain" and (s.src, s.sink) == ("v1", "v7"):
            # the enclosing chain was already reported (as indirect) first time
            assert ("v1", "v7", "indirect-simple-chain") in outer_first


def test_segment_fig5a():
    g = load_graph("fig5a")
    seg = segment_cross_level(g)
    levels, cross = depth_levels(seg)
    assert cross == set()
    assert "v1.1" in seg.vertices
    hops = [e for e in seg.edges if e.id.startswith("e5")]
    assert [(h.src, h.dst, h.label) for h in hops] == [
        ("v1", "v1.1", UNIT_LABEL),
        ("v1.1", "v4", "e5"),
    ]
    assert check_equiv(g, seg, trials=20).ok


def test_segment_noop():
    g = load_graph("fig4a")
    assert segment_cross_level(g) is g


def test_segment_preserves_values_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_layered_dag(rng)
        seg = segment_cross_level(g)
        _, cross = depth_levels(seg)
        assert not cross
        assert check_equiv(g, seg, trials=5, seed=3).ok


def _contraction_text(g):
    from jacfact.expr import format_expr

    c = contract(g)
    cedges = [
        [ce.src, ce.dst, ce.kind, ce.simple, ce.direct, ce.seq, ce.record_idx,
         None if ce.expr is None else format_expr(ce.expr),
         sorted(ce.vmembers), sorted(ce.emembers)]
        for ce in c.edges
    ]
    return json.dumps([cedges, [r.record() for r in c.records],
                       [s.record() for s in find_structures(g)]])


def _contraction_graphs():
    from conftest import dense_layered

    graphs = {f"dense{w}x{d}": dense_layered(w, d) for w, d in ((2, 6), (3, 4), (4, 4))}
    for seed in (101, 103, 105, 106, 110):
        graphs[f"dag{seed}"] = random_layered_dag(random.Random(seed), 25, 40)
    return graphs


# Recorded from the contraction whose sweeps rebuilt the CEdge list once per
# merged group and per collapsed run.
CONTRACTION_DIGESTS = {
    'dag101': '9de644d5d1785a8eacc6224765c6b3e9a13385ad0aa23a86cdc82756c59a4c0e',
    'dag103': 'cb12ee988534a9b23bbabadfaf384555fa68551cb392d1c3ba4e465f45f8d145',
    'dag105': '93a4d95e73f73698970b85f56dbe4f86691c5397313e977c3f2b8e68cc46d8e1',
    'dag106': '499c5df1609d8811ed48f3cbfdd38b24e6d3fc79f63197b1403769f1a7121293',
    'dag110': 'b2d20eb1ae6c6eac276588eb75f99669c0b919c94b28fdeeb11083a04ae3fe5b',
    'dense2x6': 'ad9ff0301b8ca810e815d355c01fe48e18eb7bb9b1579aeb88841a36b8219006',
    'dense3x4': '847bcd64dc7037907f82dc561e5c3a2f66cfaf55e3edc1e8c2fc80a9f918ca4f',
    'dense4x4': 'e3985dcd871fd11f8ecceeeb0e4de4b77321226eade10313b7d29fa101766b98',
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_DIGESTS))
def test_contraction_matches_recorded_digest(name):
    text = _contraction_text(_contraction_graphs()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == CONTRACTION_DIGESTS[name]
