import random

import pytest
from hypothesis import given, settings, strategies as st

from jacfact.convert import expr_to_graph, graph_to_expr
from jacfact.expr import (
    Sym,
    add,
    canonical,
    expand_refs,
    fma_cost,
    format_expr,
    prod,
)
from jacfact.exprparse import parse_expr
from jacfact.factorize import factorize_backward, factorize_forward, plan, plan_pages
from jacfact.graph import DiffGraph, Edge, classify_vertices, depth_levels, rt_degrees
from jacfact.oracle import check_equiv
from jacfact.relations import classify_relations

from conftest import load_exprset, random_layered_dag, transpose
from test_known_defects import _corpus

_sym = st.sampled_from("abcdefgh")


def _exprs(depth):
    if depth == 0:
        return _sym.map(Sym)
    sub = _exprs(depth - 1)
    return st.one_of(
        _sym.map(Sym),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: prod(*fs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: add(*ts)),
    )


@given(_exprs(3))
@settings(max_examples=60)
def test_graph_round_trip_identity(e):
    g = expr_to_graph(e)
    assert graph_to_expr(g) is e


@given(_exprs(3))
@settings(max_examples=60)
def test_format_never_reorders_products(e):
    def product_orders(x, acc):
        if isinstance(x, Sym):
            return
        for sub in getattr(x, "factors", ()) + getattr(x, "terms", ()):
            product_orders(sub, acc)
        if hasattr(x, "factors"):
            acc.append([format_expr(f) for f in x.factors])

    before, after = [], []
    product_orders(e, before)
    product_orders(parse_expr(format_expr(e)), after)
    assert before == after


def test_partition_property():
    rng = random.Random(2)
    for _ in range(50):
        g = random_layered_dag(rng)
        y, z, x = classify_vertices(g)
        assert set(y) | set(z) | set(x) == g.vertices
        assert not (set(y) & set(z)) and not (set(y) & set(x)) and not (set(z) & set(x))


def test_rt_degrees_match_dfs():
    rng = random.Random(3)
    for _ in range(50):
        g = random_layered_dag(rng)
        roots, terminals = set(g.roots), set(g.terminals)
        assert rt_degrees(g) == {
            v: (len(g.reaching(v) & roots), len(g.reachable_from(v) & terminals))
            for v in g.vertices
        }


def test_levels_monotone_along_edges():
    rng = random.Random(4)
    for _ in range(50):
        g = random_layered_dag(rng)
        levels, _ = depth_levels(g)
        for e in g.edges:
            assert levels[e.dst] > levels[e.src]


def test_expand_refs_never_cheaper():
    for name in ("eq1", "eq5", "sec5set"):
        s = load_exprset(name)
        assert fma_cost(expand_refs(s)) >= fma_cost(s)


def test_plan_pages_on_random_graphs_value_preserving():
    rng = random.Random(6)
    for _ in range(25):
        g = random_layered_dag(rng, max_vertices=9, max_edges=14)
        _, s, _ = plan_pages(g)
        assert check_equiv(g, s, trials=5, seed=1).ok


def test_direct_occurrences_count_cost_on_planned_sets():
    rng = random.Random(8)
    for _ in range(15):
        g = random_layered_dag(rng, max_vertices=8, max_edges=12)
        _, s, _ = plan_pages(g)
        table = classify_relations(s)
        direct = sum(1 for occs in table.values() for o in occs if o.kind == "direct")
        assert direct == fma_cost(s)


def _strategy_costs(g):
    return {k: fma_cost(plan(g, k).exprset) for k in ("backward", "forward", "refs", "pages")}


def test_costs_invariant_under_edge_order_renaming_and_reversal():
    # pages picks pivots and breaks ties by vertex name, so renaming can
    # change its cost (i = 56 here); the other three do not depend on names
    named = ("backward", "forward", "refs")
    for i in range(60):
        g = random_layered_dag(random.Random(7000 + i), max_vertices=15, max_edges=27)
        rng = random.Random(i)
        costs = _strategy_costs(g)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        assert _strategy_costs(DiffGraph(shuffled)) == costs, i
        names = sorted(g.vertices)
        rename = dict(zip(names, rng.sample(names, len(names))))
        renamed = _strategy_costs(DiffGraph(
            Edge(e.id, rename[e.src], rename[e.dst], e.label) for e in g.edges
        ))
        assert [renamed[k] for k in named] == [costs[k] for k in named], i
        assert fma_cost(plan(g.reversed(), "backward").exprset) == costs["forward"], i


def test_forward_is_backward_on_the_reversed_graph():
    # reversing every edge transposes the Jacobian: forward's graph is
    # backward's on the reversed graph, turned back, up to edge order
    for name, g in _corpus():
        forward = {(e.id, e.src, e.dst, e.label) for e in factorize_forward(g).edges}
        mirrored = factorize_backward(g.reversed()).reversed().edges
        assert {(e.id, e.src, e.dst, e.label) for e in mirrored} == forward, name


@pytest.mark.parametrize("strategy", ["backward", "refs", "chain"])
def test_transposed_plans_of_the_reversed_graph_verify(strategy):
    # reversing every edge transposes the Jacobian, so a plan for the
    # reversed graph, transposed, must verify against the graph; backward's
    # is forward's plan.  The oracle's field commutes, so this checks values
    # and pairs, not factor order.  Half of each band of the ledger's corpus
    # and every fixture.
    for name, g in _corpus():
        if name.startswith("b") and int(name.rpartition(".")[2]) >= 50:
            continue
        s = transpose(plan(g.reversed(), strategy).exprset)
        assert check_equiv(g, s, trials=10).ok, name
