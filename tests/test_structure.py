import hashlib
import json
import random

import pytest

from jacfact.graph import DiffGraph, Edge, UNIT_LABEL, depth_levels, parse_graph
from jacfact.oracle import check_equiv
from jacfact.recognize import (
    _direct,
    _structures,
    find_structures,
    find_stuck_blocks,
    substitute_stuck_block,
)
from jacfact.structure import _Contraction, segment_cross_level

from conftest import FIXTURES, dense_layered, load_graph, parts_faults, random_layered_dag


def _by_kind(structures, kind):
    return [s for s in structures if s.kind == kind]


def _outermost(g, src, sink):
    """The outermost structure recorded for the pair, or None."""
    found = [s for s in find_structures(g) if (s.src, s.sink) == (src, sink)]
    return found[-1] if found else None


def test_find_structures_fig4a(fig4a):
    found = find_structures(fig4a)
    blocks = _by_kind(found, "direct-simple-block")
    assert {(b.src, b.sink) for b in blocks} == {("v1", "v4"), ("v4", "v7")}
    chains = _by_kind(found, "indirect-simple-chain")
    assert ("v1", "v7") in {(c.src, c.sink) for c in chains}
    # blocks come before the chain that contains them
    order = [(s.src, s.sink) for s in found]
    assert order.index(("v1", "v4")) < order.index(("v1", "v7"))


def test_structures_compare_by_fields(fig4a, fig4b):
    assert find_structures(fig4a) == find_structures(load_graph("fig4a"))
    assert find_structures(fig4a) != find_structures(fig4b)


def test_cedge_move_takes_the_parts_at_that_end():
    # a chain a->b->c whose last part is a block of b->c and b->m->c
    c = _Contraction(DiffGraph([Edge("e1", "a", "b", "x"), Edge("e2", "b", "c", "y"),
                                Edge("e3", "b", "m", "z"), Edge("e4", "m", "c", "w")]).edges)
    c.run()
    (chain,) = c.live
    chain.move("dst", "d")
    first, block = chain.parts
    assert (chain.src, chain.dst, first.dst, block.src, block.dst) == ("a", "d", "b", "b", "d")
    edge, run = block.parts
    assert (edge.dst, run.dst, [(p.src, p.dst) for p in run.parts]) == ("d", "d", [("b", "m"), ("m", "d")])
    assert chain.emembers == {"e1", "e2", "e3", "e4"} and chain.seq == 0


class _GradedContraction(_Contraction):
    """The contraction, grading every substitute by the recursive definition
    of a simple structure: an edge is simple, a chain or block is simple
    when each of its parts is, and a stuck block is not."""

    def __init__(self, edges):
        self.simple = {}  # substitute CEdge -> grade
        super().__init__(edges)

    def _all_simple(self, parts):
        return all(c.kind == "edge" or self.simple[c] for c in parts)

    def _chain(self, run):
        ce = super()._chain(run)
        self.simple[ce] = self._all_simple(run)
        return ce

    def _block(self, group):
        ce = super()._block(group)
        self.simple[ce] = self._all_simple(ce.parts)
        return ce

    def substitute_stuck_block(self, a, b, region):
        substitute_stuck_block(self, a, b, region)
        self.simple[max(self.live, key=lambda ce: ce.made)] = False


def test_a_substitute_has_an_expression_exactly_when_it_is_simple():
    graphs = [load_graph(p.stem) for p in sorted(FIXTURES.glob("*.graph"))]
    graphs += [random_layered_dag(random.Random(seed), 25, 40) for seed in range(40)]
    grades = []
    for g in graphs:
        c = _GradedContraction(g.edges)
        while True:  # as find_structures runs it
            c.run()
            stuck = find_stuck_blocks(c, g.topo_order)
            if not stuck:
                break
            c.substitute_stuck_block(*stuck[0][1:])
        assert _structures(c.live, g) == find_structures(g)
        assert all(ce.expr is not None for ce in c.live if ce.kind == "edge")
        for ce, simple in c.simple.items():
            assert (ce.expr is not None) == simple
        grades += c.simple.values()
    assert True in grades and False in grades


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
    assert _outermost(fig4a, "v1", "v4").kind == "direct-simple-block"
    assert _outermost(fig4a, "v1", "v7").kind == "indirect-simple-chain"


def test_classify_block_chain_and_edge():
    g = load_graph("fig10a")
    assert _outermost(g, "v-4", "v13").kind == "direct-simple-chain"
    # a bare edge is no structure
    assert _outermost(parse_graph("e e1 a b\n"), "a", "b") is None
    assert _outermost(g, "v10", "v13") is None


def test_classify_block_complex(fig4b):
    assert _outermost(fig4b, "v1", "v9").kind == "complex-block"
    # v5..v9 is not a block here: v7 and v8 have incoming edges from outside
    assert _outermost(fig4b, "v5", "v9") is None


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
    assert _outermost(g, "a", "b").kind == "complex-block"


def test_parallel_merge_forms_a_complex_block():
    # the complex chain a -> c runs parallel to the edge e7, so the two
    # merge into a block that is complex because one branch is
    g = parse_graph(
        "e e1 a m1\ne e2 a m2\ne e3 m1 b\ne e4 m2 b\ne e5 m1 m2\n"
        "e e6 b c\ne e7 a c\n"
    )
    found = [(s.kind, s.src, s.sink, sorted(s.edges)) for s in find_structures(g)]
    assert found == [
        ("complex-block", "a", "b", ["e1", "e2", "e3", "e4", "e5"]),
        ("complex-chain", "a", "c", ["e1", "e2", "e3", "e4", "e5", "e6"]),
        ("complex-block", "a", "c", ["e1", "e2", "e3", "e4", "e5", "e6", "e7"]),
    ]


def test_block_materializes_after_split(fig4b):
    # after the backward pass splits v7/v8, the region below v5 is isolated
    from jacfact.factorize import factorize_backward

    split = factorize_backward(fig4b)
    names = [v for v in split.vertices if v.startswith("v5")]
    assert len(names) == 2
    for copy in names:
        assert _outermost(split, copy, "v9").kind == "direct-simple-block"


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

    c = _Contraction(g.edges)
    c.run()
    cedges = [
        [ce.src, ce.dst, ce.kind, ce.expr is not None, _direct(ce), ce.seq, ce.made,
         None if ce.expr is None else format_expr(ce.expr),
         sorted({v for eid in ce.emembers for v in (g.edge(eid).src, g.edge(eid).dst)}
                - {ce.src, ce.dst}),
         sorted(ce.emembers)]
        for ce in c.edges
    ]
    return json.dumps([cedges, [r.record() for r in _structures(c.live, g)],
                       [s.record() for s in find_structures(g)]])


def _contraction_graphs():
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


def test_segment_hop_ids_skip_taken_ids():
    # the cross-level edge e1 would name its unit hop e1.1, an id in use
    g = parse_graph("e e1 a c\ne e1.1 a b\ne e2 b c\n")
    seg = segment_cross_level(g)
    assert [(e.id, e.src, e.dst, e.label) for e in seg.edges] == [
        ("e1.2", "a", "a.1", UNIT_LABEL),
        ("e1", "a.1", "c", "e1"),
        ("e1.1", "a", "b", "e1.1"),
        ("e2", "b", "c", "e2"),
    ]
    assert check_equiv(g, seg, trials=20).ok


def test_substitutes_keep_their_parts():
    graphs = [load_graph(p.stem) for p in sorted(FIXTURES.glob("*.graph"))]
    graphs += [random_layered_dag(random.Random(seed), 25, 40) for seed in range(40)]
    graphs += [dense_layered(w, d) for w, d in ((2, 6), (3, 4), (4, 4))]
    kinds = set()
    for g in graphs:
        c = _Contraction(g.edges)
        c.run()  # as contract runs it
        assert parts_faults(c.live, g) == []
        while True:  # as find_structures runs it
            stuck = find_stuck_blocks(c, g.topo_order)
            if not stuck:
                break
            substitute_stuck_block(c, *stuck[0][1:])
            c.run()
        assert parts_faults(c.live, g) == []
        todo = list(c.live)
        while todo:
            ce = todo.pop()
            todo += ce.parts
            kinds.update((ce.kind, p.kind, ce.expr is None) for p in ce.parts)
    # the corpus nests chains in blocks and blocks in chains, and has stuck blocks
    assert {("block", "chain", False), ("chain", "block", False), ("block", "edge", True)} <= kinds
