import random

import pytest

from jacfact.factorize import _active_pairs
from jacfact.graph import (
    DiffGraph,
    Edge,
    GraphError,
    GraphParseError,
    Names,
    classify_vertices,
    count_paths,
    depth_levels,
    enumerate_paths,
    format_graph,
    parse_graph,
    region_edges,
    rt_degrees,
)
from jacfact.structure import segment_cross_level

from conftest import FIXTURES, dense_layered, load_graph, random_layered_dag


def test_edge_is_a_value():
    e = Edge("e1", "a", "b", "x")
    assert e == Edge("e1", "a", "b", "x")
    assert e != Edge("e1", "a", "b", "y") and e != ("e1", "a", "b", "x")
    assert hash(e) == hash(("e1", "a", "b", "x"))  # set and dict order depend on it
    assert repr(e) == "Edge(id='e1', src='a', dst='b', label='x')"


def test_parse_fig1a_partition():
    g = load_graph("fig1a")
    y, z, x = classify_vertices(g)
    assert y == ("v4", "v5", "v6")
    assert x == ("v1", "v2")
    assert z == ("v3",)


def test_parse_single_edge():
    g = parse_graph("e e1 a b\n")
    assert g.roots == ("a",) and g.terminals == ("b",)
    assert g.edge("e1").label == "e1"


def test_parse_errors():
    with pytest.raises(GraphParseError, match="cycle"):
        parse_graph("e e1 a b\ne e2 b a\n")
    with pytest.raises(GraphParseError, match="duplicate edge id"):
        parse_graph("e e1 a b\ne e1 b c\n")
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("edge oops\n")


def test_format_round_trip():
    text = "e e1 v1 v2\ne e2 v1 v4 w\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    assert format_graph(parse_graph(format_graph(g))) == format_graph(g)


def test_classify_fig4a_fig9a(fig4a, fig9a):
    y, z, x = classify_vertices(fig4a)
    assert y == ("v1",) and x == ("v7",)
    assert set(z) == {"v2", "v3", "v4", "v5", "v6"}
    y, _, x = classify_vertices(fig9a)
    assert set(y) == {"v0", "v-1", "v-2", "v-3"}
    assert set(x) == {"v10", "v11", "v12", "v13"}


def test_enumerate_paths_counts(fig4a, fig4b):
    assert len(enumerate_paths(fig4a, "v1", "v7")) == 4
    assert len(enumerate_paths(fig4b, "v1", "v9")) == 6
    assert enumerate_paths(fig4a, "v1", "v1") == []
    assert enumerate_paths(fig4a, "v7", "v1") == []


def test_enumerate_paths_deterministic(fig4b):
    paths = enumerate_paths(fig4b, "v1", "v9")
    assert paths == sorted(paths)
    with pytest.raises(GraphError, match="unknown vertex"):
        enumerate_paths(fig4b, "nope", "v9")


def test_reachability_names_an_unknown_vertex(fig4b):
    for walk in (fig4b.reachable_from, fig4b.reaching):
        with pytest.raises(GraphError, match="^unknown vertex nope$"):
            walk("nope")


def test_enumerate_paths_long_chain():
    n = 1500
    g = DiffGraph(Edge(f"e{i}", f"v{i}", f"v{i + 1}", f"e{i}") for i in range(n))
    assert enumerate_paths(g, "v0", f"v{n}") == [tuple(f"e{i}" for i in range(n))]
    assert enumerate_paths(g, f"v{n}", "v0") == []


def _brute_region(g, src, sink, avoid):
    """Edge ids on the enumerated src-to-sink paths whose interior vertices
    avoid `avoid`."""
    dst = {e.id: e.dst for e in g.edges}
    keep = set()
    for path in enumerate_paths(g, src, sink):
        if not any(dst[eid] in avoid for eid in path[:-1]):
            keep.update(path)
    return [e.id for e in g.edges if e.id in keep]


def _brute_set_region(g, srcs, sinks, avoid):
    """The union of the brute-force pair regions over srcs x sinks, each
    avoiding the other ends as well as `avoid`."""
    keep = set()
    for src in srcs:
        for sink in sinks:
            keep.update(_brute_region(g, src, sink, set(avoid) | set(srcs) | set(sinks)))
    return [e.id for e in g.edges if e.id in keep]


def test_region_edges_match_path_enumeration():
    rng = random.Random(7)
    checked = nonempty = 0
    for _ in range(30):
        g = random_layered_dag(rng, 12, 20)
        verts = sorted(g.vertices)
        for src in verts:
            for sink in verts:
                for avoid in (set(), set(rng.sample(verts, min(3, len(verts)))), set(verts) - {src, sink}, {src, sink}):
                    got = [e.id for e in region_edges(g, [src], [sink], avoid)]
                    assert got == _brute_region(g, src, sink, avoid), (format_graph(g), src, sink, avoid)
                    checked += 1
                    nonempty += bool(got)
        sides = [g.roots, g.terminals]
        for _ in range(6):
            sides.append(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
        sides += [[v] for v in verts]
        for srcs in sides:
            for sinks in (g.terminals, g.roots, rng.sample(verts, min(3, len(verts)))):
                for s, t in ((srcs, sinks), (sinks, srcs)):
                    avoid = set(rng.sample(verts, rng.randint(0, 2)))
                    got = [e.id for e in region_edges(g, s, t, avoid)]
                    assert got == _brute_set_region(g, s, t, avoid), (format_graph(g), s, t, avoid)
                    checked += 1
                    nonempty += bool(got)
        assert region_edges(g, g.roots, g.terminals) == list(g.edges)
        with pytest.raises(GraphError, match="unknown vertex nope"):
            region_edges(g, ["nope"], [verts[0]])
        with pytest.raises(GraphError, match="unknown vertex nope"):
            region_edges(g, g.roots, [verts[0], "nope"])
    assert nonempty > checked // 10  # the regions are not mostly empty


def test_depth_levels_fig5a():
    g = load_graph("fig5a")
    levels, cross = depth_levels(g)
    assert levels == {"v1": 0, "v2": 1, "v3": 1, "v4": 2}
    assert cross == {"e5"}


def test_depth_levels_chain():
    g = parse_graph("e e1 a b\ne e2 b c\n")
    levels, cross = depth_levels(g)
    assert levels == {"a": 0, "b": 1, "c": 2}
    assert cross == set()


def test_depth_levels_fig9a(fig9a):
    levels, cross = depth_levels(fig9a)
    assert max(levels.values()) == 6
    assert all(levels[t] == 6 for t in fig9a.terminals)
    # terminal-incoming edges that skip levels
    assert {"e15", "e16"} <= cross


def test_levels_are_least_fixpoint(fig9a):
    levels, _ = depth_levels(fig9a)
    terminals = set(fig9a.terminals)
    for v in fig9a.vertices:
        preds = fig9a.in_edges(v)
        expected = 0 if not preds else 1 + max(levels[e.src] for e in preds)
        if v in terminals:
            assert levels[v] >= expected
        else:
            assert levels[v] == expected
    for e in fig9a.edges:
        assert levels[e.dst] > levels[e.src]


def test_rt_degrees_fig9a(fig9a):
    rt = rt_degrees(fig9a)
    assert rt["v1"] == (2, 4)
    assert rt["v2"] == (3, 4)
    assert rt["v5"] == (4, 4)
    assert rt["v9"] == (4, 2)
    for r in fig9a.roots:
        assert rt[r][0] == 0
    for t in fig9a.terminals:
        assert rt[t][1] == 0


def test_reach_bits_match_dfs_and_active_pairs_match_path_counts():
    rng = random.Random(12)
    graphs = [random_layered_dag(rng) for _ in range(40)] + [dense_layered(3, 4)]
    graphs += [load_graph(p.stem) for p in sorted(FIXTURES.glob("*.graph"))]
    for g in graphs:
        roots, terminals = g.roots, g.terminals
        down, up = g.reach_bits
        assert set(down) == set(up) == g.vertices
        for v in g.vertices:
            above = {v} | g.reaching(v)
            below = {v} | g.reachable_from(v)
            assert down[v] == sum(1 << k for k, y in enumerate(roots) if y in above)
            assert up[v] == sum(1 << k for k, x in enumerate(terminals) if x in below)
        assert _active_pairs(g) == [
            (y, x) for y in roots for x in terminals if count_paths(g, y, x) > 0
        ]


def test_path_count_matches_levelwise_matrix_product():
    import random

    rng = random.Random(7)
    for _ in range(25):
        g = random_layered_dag(rng)
        seg = segment_cross_level(g)
        levels, cross = depth_levels(seg)
        assert not cross
        depth = max(levels.values())
        order = sorted(seg.vertices)
        counts = {}
        for y in seg.roots:
            for x in seg.terminals:
                counts[(y, x)] = len(enumerate_paths(seg, y, x))
        # multiply adjacency matrices level by level
        by_level = {l: sorted(v for v in order if levels[v] == l) for l in range(depth + 1)}
        mat = {(v, v): 1 for v in by_level[0]}
        frontier = by_level[0]
        for l in range(depth):
            nxt = {}
            for (y, v), c in mat.items():
                for e in seg.out_edges(v):
                    nxt[(y, e.dst)] = nxt.get((y, e.dst), 0) + c
            keep = {}
            for (y, v), c in nxt.items():
                keep[(y, v)] = c
            mat = keep
        for y in seg.roots:
            for x in seg.terminals:
                assert counts[(y, x)] == mat.get((y, x), 0)
                assert counts[(y, x)] == count_paths(seg, y, x)


def _sorted_queue_topo_order(g):
    """Topological order as first defined: the queue of available vertices
    is re-sorted after every pop and the least one is taken."""
    indeg = {v: len(g.in_edges(v)) for v in g.vertices}
    queue = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        added = []
        for e in g.out_edges(v):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                added.append(e.dst)
        if added:
            queue = sorted(queue + added)
    return tuple(order)


def test_topo_order_matches_sorted_queue_definition():
    import random

    graphs = [random_layered_dag(random.Random(seed), 30, 60) for seed in range(100)]
    graphs += [dense_layered(w, d) for w, d in ((2, 4), (2, 8), (3, 4), (4, 5))]
    graphs += [load_graph(p.stem) for p in sorted(FIXTURES.glob("*.graph"))]
    for g in graphs:
        assert g.topo_order == _sorted_queue_topo_order(g)


def test_names_hands_out_free_names_once():
    names = Names({"a", "a.1", "a.3", "b"})
    assert names.fresh("c") == "c"  # the bare name when free
    assert names.fresh("b") == "b.1"
    assert [names.fresh("a") for _ in range(3)] == ["a.2", "a.4", "a.5"]
    assert names.fresh("c") == "c.1"  # "c" is taken now
    from_two = Names({"x.2"}, start=2)
    assert [from_two.fresh("x") for _ in range(3)] == ["x", "x.3", "x.4"]


def test_names_search_resumes_per_base():
    class Probes(set):
        count = 0

        def __contains__(self, name):
            Probes.count += 1
            return super().__contains__(name)

    names = Names({"v"})
    names.taken = Probes(names.taken)
    handed = [names.fresh("v") for _ in range(200)]
    assert handed == [f"v.{n}" for n in range(1, 201)]
    assert Probes.count <= 2 * len(handed)  # not one probe per earlier copy
