import pytest

from jacfact.convert import expr_to_graph, graph_to_expr
from jacfact.expr import equivalent_form, format_expr
from jacfact.exprparse import parse_expr
from jacfact.graph import parse_graph
from jacfact.oracle import bauer_eval, draw_trials, eval_expr
from jacfact.structure import ComplexBlockError, StructureError

from conftest import load_exprset, load_graph


def test_fig4a_gives_eq1(fig4a):
    e = graph_to_expr(fig4a)
    assert format_expr(e) == "(e1*e3+e2*e4)*(e5*e7+e6*e8)"


def test_fig4b_is_complex(fig4b):
    with pytest.raises(ComplexBlockError) as err:
        graph_to_expr(fig4b)
    assert err.value.src == "v1" and err.value.sink == "v9"


def test_chain_gives_product():
    g = parse_graph("e ea a b\ne eb b c\n")
    assert format_expr(graph_to_expr(g)) == "ea*eb"


def test_multi_root_requires_endpoints(fig9a):
    with pytest.raises(StructureError):
        graph_to_expr(fig9a)
    e = graph_to_expr(fig9a, "v-2", "v13")
    assert format_expr(e) == "e18*e4*e9*e16"


def test_eq1_to_graph_shape():
    e = load_exprset("eq1").entries[0][1]
    g = expr_to_graph(e)
    assert len(g.vertices) == 7
    assert len(g.edges) == 8
    assert graph_to_expr(g) == e


def test_eq3_to_graph_duplicates():
    e = load_exprset("eq3").entries[0][1]
    g = expr_to_graph(e)
    assert len(g.vertices) == 14
    assert len(g.edges) == 18
    labels = sorted(edge.label for edge in g.edges)
    assert labels.count("e11") == 3 and labels.count("e12") == 3
    assert graph_to_expr(g) == e


def test_round_trip_exprs():
    for text in (
        "ea*eb",
        "a+b+c",
        "a*(b+c)+d*(e+f*g)",
        "(a*b+c)*(d+e*f)",
    ):
        e = parse_expr(text)
        g = expr_to_graph(e)
        assert graph_to_expr(g) is e
        g2 = expr_to_graph(graph_to_expr(g))
        assert len(g2.vertices) == len(g.vertices)
        assert len(g2.edges) == len(g.edges)


def test_unit_terms_round_trip():
    e = parse_expr("a+1")
    g = expr_to_graph(e)
    assert equivalent_form(graph_to_expr(g), e)


def test_expr_eval_matches_bauer(fig4a, fig4b):
    from jacfact.graph import enumerate_paths
    from jacfact.oracle import PRIME

    for g, src, sink in ((fig4a, "v1", "v7"), (fig4b, "v1", "v5")):
        e = graph_to_expr(g, src, sink)
        labels = {edge.label for edge in g.edges}
        for seed in range(100):
            batch = draw_trials(labels, seed, 1)
            total = 0
            for path in enumerate_paths(g, src, sink):
                term = 1
                for eid in path:
                    term = term * batch[g.edge(eid).label][0] % PRIME
                total = (total + term) % PRIME
            assert eval_expr(e, batch) == [total]
            if (src, sink) == ("v1", "v7"):
                assert bauer_eval(g, batch)[(src, sink)] == [total]


def test_edge_ids_skip_taken_ids():
    # the second `a` would get the id a.2, which the label a.2 already holds
    e = parse_expr("a.2*x + a*y + a*z")
    g = expr_to_graph(e)
    ids = {edge.id: edge.label for edge in g.edges if edge.label.startswith("a")}
    assert ids == {"a.2": "a.2", "a": "a", "a.3": "a"}
    assert equivalent_form(graph_to_expr(g), e)
