import pytest

from jacfact import factorize
from jacfact.convert import graph_to_expr
from jacfact.expr import ExprSet, equivalent_form, fma_cost, format_expr, format_exprset, free_symbols
from jacfact.factorize import (
    FactorizationError,
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    plan,
    plan_pages,
)
from jacfact.graph import count_paths, depth_levels, format_graph, parse_graph
from jacfact.localjac import accumulate, best_accumulation_order, left_assoc, level_chain, right_assoc
from jacfact.oracle import check_equiv
from jacfact.pages import Page, _pivots, _replace_simple_structures, merge_pages, transcript_json
from jacfact.recognize import find_structures
from jacfact.structure import region_expr

from conftest import fig4b_labeled_s1, load_exprset, load_graph, sets_match_up_to_naming
from test_digests import GRAPH_FIXTURES, _seeded_graphs


def test_backward_fig4b_gives_eq3(fig4b):
    out = factorize_backward(fig4b)
    assert len(out.vertices) == 14 and len(out.edges) == 18
    e = graph_to_expr(out)
    assert equivalent_form(e, load_exprset("eq3").entries[0][1])
    assert check_equiv(fig4b, out).ok
    assert not [s for s in find_structures(out) if s.kind.startswith("complex")]


def test_backward_leaves_simple_graphs_alone(fig4a):
    assert factorize_backward(fig4a).edges == fig4a.edges
    diamond = parse_graph("e e1 a b\ne e2 a c\ne e3 b d\ne e4 c d\n")
    assert factorize_backward(diamond).edges == diamond.edges


def test_forward_fig4b_gives_eq4(fig4b):
    out = factorize_forward(fig4b)
    e = graph_to_expr(out)
    assert equivalent_form(e, load_exprset("eq4").entries[0][1])
    assert fma_cost(e) == 12
    assert check_equiv(fig4b, out).ok
    assert not [s for s in find_structures(out) if s.kind.startswith("complex")]


def test_forward_chain_unchanged():
    chain = parse_graph("e e1 a b\ne e2 b c\n")
    assert factorize_forward(chain).edges == chain.edges


def test_with_refs_fig4b(fig4b):
    out, s = factorize_with_refs(fig4b)
    assert [name for name, _ in s.defs] == ["s1"]
    assert format_expr(s.def_map["s1"]) == "e8*e11+e9*e12"
    assert fma_cost(s) == 10
    assert check_equiv(fig4b, s).ok
    # the graph holds two reference edges labeled s1, as in the split figure
    ref_edges = [e for e in out.edges if e.label == "s1"]
    assert len(ref_edges) == 2
    assert {e.dst for e in ref_edges} == {"v9"}


def test_with_refs_no_shared_subblocks(fig4a):
    out, s = factorize_with_refs(fig4a)
    assert s.defs == []
    assert equivalent_form(s.entries[0][1], load_exprset("eq1").entries[0][1])


def test_refs_cost_matches_matrix_chain_orders(fig4b):
    chain = level_chain(fig4b)
    _, back = factorize_with_refs(fig4b, "backward")
    _, fwd = factorize_with_refs(fig4b, "forward")
    _, cost_rl = accumulate(chain, right_assoc(4))
    _, cost_lr = accumulate(chain, left_assoc(4))
    assert fma_cost(back) == cost_rl == 10
    assert fma_cost(fwd) == cost_lr == 10


def test_plan_pages_step1_refs():
    g = load_graph("fig10a")
    page = Page(0, g, ExprSet())
    transcript = []
    _replace_simple_structures(page, transcript)
    replaced = {
        (r["args"]["src"], r["args"]["sink"]): r["args"]["expr"] for r in transcript
    }
    assert replaced == {
        ("v2", "v7"): "e3*e7",
        ("v3", "v8"): "e6*e10",
        ("v-4", "v13"): "e21*e22",
    }


def test_pivots_fig9a_after_step1(fig9a):
    page = Page(0, fig9a, ExprSet())
    _replace_simple_structures(page, [])
    assert _pivots(page.graph, depth_levels(page.graph)[0]) == ("v5", "v5")


def test_pivots_fig10_follow_the_rule():
    # with the extra root edge into v1, v3 collects all four roots and sits
    # closer to them than v5, so the selection rule picks it
    g = load_graph("fig10a")
    page = Page(0, g, ExprSet())
    _replace_simple_structures(page, [])
    assert _pivots(page.graph, depth_levels(page.graph)[0]) == ("v3", "v5")


def test_plan_pages_fig10_first_split():
    g = load_graph("fig10a")
    pages, s, transcript = plan_pages(g)
    splits = [r for r in transcript if r["op"] == "split-page"]
    assert splits
    first = splits[0]["args"]
    assert set(first["roots"]) == {"v0", "v-1", "v-2", "v-3"}
    assert set(first["terminals"]) == {"v10", "v11", "v12", "v13"}
    # the other side holds the v-4 -> v13 pair on its own
    assert ("v-4", "v13") in dict(s.entries)
    assert format_expr(dict(s.entries)[("v-4", "v13")]) == "e21*e22"
    assert check_equiv(g, s).ok


def test_plan_pages_fig9a_matches_displayed_set(fig9a):
    _, s, _ = plan_pages(fig9a)
    ok, why = sets_match_up_to_naming(s, load_exprset("sec5set"))
    assert ok, why
    assert check_equiv(fig9a, s).ok


def test_plan_pages_budget_boundary(fig9a, monkeypatch):
    # fig9a takes 34 page steps: a budget of 34 plans it, one fewer refuses
    monkeypatch.setattr("jacfact.factorize._MAX_PASSES", 34)
    plan_pages(fig9a)
    monkeypatch.setattr("jacfact.factorize._MAX_PASSES", 33)
    with pytest.raises(FactorizationError, match="page planning did not settle"):
        plan_pages(fig9a)


def test_plan_pages_single_pair(fig4a):
    pages, s, _ = plan_pages(fig4a)
    assert len(s.entries) == 1
    assert equivalent_form(s.entries[0][1], load_exprset("eq1").entries[0][1])
    assert fma_cost(s) == 5


def test_plan_pages_covers_all_pairs(fig9a):
    _, s, _ = plan_pages(fig9a)
    assert len(s.entry_map()) == 16  # 4 roots x 4 terminals


def test_merge_pages_dedups_refs(fig9a):
    pages, merged, _ = plan_pages(fig9a)
    again = merge_pages(pages)
    assert format_expr(again.entry_map()[("v-2", "v13")]) == format_expr(
        merged.entry_map()[("v-2", "v13")]
    )
    names = [n for n, _ in again.defs]
    assert len(names) == len(set(names))


def test_plan_pages_value_preserved_everywhere():
    for name in ("fig4a", "fig4b", "fig5a", "fig7a", "fig9a", "fig10a"):
        g = load_graph(name)
        _, s, _ = plan_pages(g)
        assert check_equiv(g, s).ok, name


def test_pages_only_hold_input_vertices():
    # pages are cut from their parent's graph and compressed, never grown,
    # so a page's pairs name the input's vertices as they are
    for name, g in sorted(_seeded_graphs().items()):
        pages, _, _ = plan_pages(g)
        for page in pages:
            assert page.graph.vertices <= g.vertices, (name, page.pid)


def test_backward_multi_root_value_preserved(fig9a):
    out = factorize_backward(fig9a)
    assert check_equiv(fig9a, out).ok
    out = factorize_forward(fig9a)
    assert check_equiv(fig9a, out).ok


def test_named_structure_id_skips_an_edge_id():
    # the chain r1-a-t1 is named s1, and the edge r2-t2 already has the id s1
    g = parse_graph("e e1 r1 a\ne e2 a t1\ne s1 r2 t2 x\n")
    page = Page(0, g, ExprSet())
    _replace_simple_structures(page, [])
    assert [(e.id, e.src, e.dst, e.label) for e in page.graph.edges] == [
        ("s1", "r2", "t2", "x"),
        ("s1.1", "r1", "t1", "s1"),
    ]
    _, s, _ = plan_pages(g)
    assert check_equiv(g, s).ok


def test_reference_names_skip_input_labels():
    g = parse_graph(fig4b_labeled_s1())
    _, refs = factorize_with_refs(g)
    _, pages, _ = plan_pages(g)
    for s in (refs, pages):
        assert "s1" not in s.def_map
        assert check_equiv(g, s).ok
    # with nothing to avoid, the numbering is unchanged
    _, plain = factorize_with_refs(load_graph("fig4b"))
    assert [name for name, _ in plain.defs] == ["s1"]


@pytest.mark.parametrize("name", GRAPH_FIXTURES)
def test_plan_gives_what_the_strategy_functions_give(name):
    g = load_graph(name)
    for strategy, run in (("backward", factorize_backward), ("forward", factorize_forward)):
        p, out, s = plan(g, strategy), run(g), ExprSet()
        for y in out.roots:  # the reference: each connected pair's region expression
            for x in out.terminals:
                if count_paths(out, y, x):
                    s.add_entry(y, x, region_expr(out, y, x))
        assert (format_graph(p.graph), format_exprset(p.exprset)) == (format_graph(out), format_exprset(s))
    p, (out, s) = plan(g, "refs"), factorize_with_refs(g)
    assert (format_graph(p.graph), format_exprset(p.exprset)) == (format_graph(out), format_exprset(s))
    p, (pages, s, transcript) = plan(g, "pages"), plan_pages(g)
    assert format_exprset(p.exprset) == format_exprset(s)
    assert transcript_json(p.transcript) == transcript_json(transcript)
    assert [format_graph(q.graph) for q in p.pages] == [format_graph(q.graph) for q in pages]
    chain = level_chain(g)
    _, cost = best_accumulation_order(chain, bound=len(chain))
    s = plan(g, "chain").exprset
    assert fma_cost(s) == cost and check_equiv(g, s).ok


def test_plan_rejects_an_unknown_strategy(fig4b):
    with pytest.raises(ValueError, match="'best'"):
        plan(fig4b, "best")


def test_plan_works_out_the_backward_set_on_first_read(fig9a, monkeypatch):
    calls = []

    def counted(g, y, x):
        calls.append((y, x))
        return region_expr(g, y, x)

    monkeypatch.setattr(factorize, "region_expr", counted)
    p = plan(fig9a, "backward")
    assert calls == []
    assert p.exprset is p.exprset and len(calls) == 16
