"""Acceptance suite: every criterion runs standalone at its stated tolerance
and reports one pass/fail line (run with -s to see them)."""
import random

import pytest

from jacfact.cli import main as cli_main
from jacfact.convert import expr_to_graph, graph_to_expr
from jacfact.expr import (
    Sym,
    UNIT,
    _Unit,
    canonical,
    equivalent_form,
    fma_cost,
    format_expr,
)
from jacfact.factorize import (
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    plan_pages,
)
from jacfact.graph import DiffGraph, depth_levels
from jacfact.linegraph import (
    build_line_graph,
    eliminate_face,
    readout_jacobian,
    run_elimination,
    trace_mult_count,
)
from jacfact.localjac import (
    LocalJacobian,
    accumulate,
    best_accumulation_order,
    left_assoc,
    level_chain,
    right_assoc,
)
from jacfact.oracle import check_equiv
from jacfact.relations import face_key, safe_elimination_order
from jacfact.structure import segment_cross_level

from conftest import (
    FIXTURES,
    enumerate_parenthesizations,
    lg_value,
    load_exprset,
    load_graph,
    random_layered_dag,
    sets_match_up_to_naming,
)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}")
    assert ok, detail


def test_criterion_1_cost_reproduction():
    c1 = fma_cost(load_exprset("eq1"))
    c2 = fma_cost(load_exprset("eq2"))
    report(1, c1 == 5 and c2 == 12, f"nested form costs {c1} (want 5), "
           f"expanded form costs {c2} (want 12)")


def test_criterion_2_line_graph_bicliques():
    g = load_graph("fig1a")
    lg = build_line_graph(g)
    labeled = lg.labeled()
    edges = sum(
        1 for v in labeled for s in v.succs if lg.vertices[s].kind == "label"
    )
    ok = len(labeled) == 5 and edges == 6
    rng = random.Random(20240)
    checked = 0
    for _ in range(100):
        rg = random_layered_dag(rng, max_vertices=12, max_edges=18)
        rlg = build_line_graph(rg)
        by_label_id = {}
        for e in rg.edges:
            hits = [v for v in rlg.labeled() if v.label == Sym(e.label)]
            by_label_id[e.id] = [v for v in hits][0] if len(hits) == 1 else None
        ids = {e.id: v for e, v in zip(rg.edges, rlg.labeled())}
        for v in rg.vertices:
            ins = rg.in_edges(v)
            outs = rg.out_edges(v)
            if not ins or not outs:
                continue
            for a in ins:
                succs = ids[a.id].succs
                for b in outs:
                    if ids[b.id].vid not in succs:
                        ok = False
            checked += 1
    report(2, ok, f"starter line graph is K(3,2) with 5 vertices/6 edges; "
           f"{checked} intermediate vertices over 100 random DAGs all induce "
           f"complete bicliques")


def test_criterion_3_factorization_equivalence():
    fixtures = ("fig4a", "fig4b", "fig5a", "fig7a", "fig9a")
    failures = []
    for name in fixtures:
        g = load_graph(name)
        outputs = {
            "backward": factorize_backward(g),
            "forward": factorize_forward(g),
            "refs": factorize_with_refs(g)[1],
            "pages": plan_pages(g)[1],
        }
        for mode, artifact in outputs.items():
            rep = check_equiv(g, artifact, trials=100, seed=0)
            if not rep.ok:
                failures.append((name, mode, rep.mismatches[:1]))
    report(3, not failures, f"backward/forward/refs/pages on {len(fixtures)} "
           f"fixtures, 100 field trials each, zero mismatches"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_expression_reproduction():
    fig4b = load_graph("fig4b")
    back = graph_to_expr(factorize_backward(fig4b))
    fwd = graph_to_expr(factorize_forward(fig4b))
    ok_back = equivalent_form(back, load_exprset("eq3").entries[0][1])
    ok_fwd = equivalent_form(fwd, load_exprset("eq4").entries[0][1])
    _, pages_set, _ = plan_pages(load_graph("fig9a"))
    ok_pages, why = sets_match_up_to_naming(pages_set, load_exprset("sec5set"))
    report(4, ok_back and ok_fwd and ok_pages,
           f"backward AST matches the nested expansion ({ok_back}), forward "
           f"AST matches its mirror ({ok_fwd}), page set matches the "
           f"multi-root worked example up to naming ({ok_pages}: {why})")


def _count_products_by_hand(chain, tree):
    """Independent cost oracle: walk the association tree and count nonzero,
    non-unit entry pairs of each matrix product directly."""

    def run(t):
        if isinstance(t, int):
            m = chain[t]
            return dict(m.entries), m.rows, m.cols, 0
        (le, lrows, lcols, lc) = run(t[0])
        (re_, rrows, rcols, rc) = run(t[1])
        count = lc + rc
        out = {}
        for (r, m), a in le.items():
            for c in rcols:
                b = re_.get((m, c))
                if b is None:
                    continue
                if not (isinstance(a, _Unit) or isinstance(b, _Unit)):
                    count += 1
                out[(r, c)] = Sym("x")  # only the pattern matters
        return out, lrows, rcols, count

    return run(tree)[3]


def test_criterion_5_matrix_chain_costs():
    fig4b = load_graph("fig4b")
    chain = level_chain(fig4b)
    s_lr, cost_lr = accumulate(chain, left_assoc(4))
    s_rl, cost_rl = accumulate(chain, right_assoc(4))
    hand_lr = _count_products_by_hand(chain, left_assoc(4))
    hand_rl = _count_products_by_hand(chain, right_assoc(4))
    shared = format_expr(s_rl.def_map.get("s2", UNIT))
    ok = (
        cost_lr == 10 and cost_rl == 10
        and hand_lr == 10 and hand_rl == 10
        and shared == "e8*e11+e9*e12"
    )
    report(5, ok, f"left-to-right costs {cost_lr} (hand count {hand_lr}), "
           f"right-to-left costs {cost_rl} (hand count {hand_rl}), shared "
           f"entry {shared}")


def test_criterion_6_elimination_order_fidelity():
    s = load_exprset("sec5set")
    fig9a = load_graph("fig9a")
    page = DiffGraph(
        [e for e in fig9a.edges if e.id not in ("e0", "e17", "e1", "e2")]
    )
    order = safe_elimination_order(s)
    first = [(face_key(a), face_key(b)) for a, b in order[:2]]
    lg = build_line_graph(page)
    trace = run_elimination(lg, order, defs=s.def_map)
    mults = trace_mult_count(trace)
    entries = readout_jacobian(lg)
    rep = check_equiv(s, entries, trials=100, seed=0)
    ok = (
        first == [("e8", "e11"), ("e9", "e12")]
        and mults == fma_cost(s)
        and rep.ok
    )
    report(6, ok, f"order starts with {first}, replay uses {mults} "
           f"multiplications (set costs {fma_cost(s)}), readout matches "
           f"the set on 100 trials ({rep.ok})")


def test_criterion_7_cycle_detection(capsys):
    from jacfact.relations import CircularDependencyError, build_dep_graph, detect_cycles

    cyc = load_exprset("cyclic8")
    cycles = detect_cycles(build_dep_graph(cyc))
    code = cli_main(
        ["eliminate", str(FIXTURES / "fig9a.graph"),
         "--from-exprset", str(FIXTURES / "cyclic8.exprs")]
    )
    capsys.readouterr()
    with capsys.disabled():
        report(7, len(cycles) == 1 and code == 4,
               f"exactly one cycle reported ({len(cycles)}), safe order exits "
               f"with code 4 ({code})")


def _random_simple_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return Sym(f"q{rng.randrange(30)}")
    kids = [_random_simple_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        from jacfact.expr import prod

        return prod(*kids)
    from jacfact.expr import add

    return add(*kids)


def _random_pattern_chain(rng):
    n = rng.randint(2, 6)
    dims = [rng.randint(1, 3) for _ in range(n + 1)]
    chain = []
    k = 0
    for step in range(n):
        rows = [f"r{step}_{i}" for i in range(dims[step])]
        cols = [f"r{step + 1}_{i}" for i in range(dims[step + 1])]
        entries = {}
        for r in rows:
            for c in cols:
                roll = rng.random()
                if roll < 0.3:
                    continue  # structural zero
                k += 1
                entries[(r, c)] = UNIT if roll < 0.45 else Sym(f"p{k}")
        for i, r in enumerate(rows):  # keep the chain conformable end to end
            c = cols[i % len(cols)]
            if (r, c) not in entries:
                k += 1
                entries[(r, c)] = Sym(f"p{k}")
        chain.append(LocalJacobian(tuple(rows), tuple(cols), entries))
    return chain


def test_criterion_8_property_suite():
    rng = random.Random(20248)
    order_fail = seg_fail = trip_fail = dp_fail = 0
    for i in range(200):
        g = random_layered_dag(rng, max_vertices=10, max_edges=16)
        # (a) any total face-elimination order reads out the oracle value
        lg = build_line_graph(g)
        while True:
            faces = lg.intermediate_faces()
            if not faces:
                break
            eliminate_face(lg, *rng.choice(faces))
        if not check_equiv(g, readout_jacobian(lg), trials=3, seed=i).ok:
            order_fail += 1
        # (b) segmentation preserves values
        seg = segment_cross_level(g)
        if depth_levels(seg)[1] or not check_equiv(g, seg, trials=3, seed=i).ok:
            seg_fail += 1
        # (c) graph <-> expression round trips on simple structures
        e = _random_simple_expr(rng, 3)
        eg = expr_to_graph(e)
        back = graph_to_expr(eg)
        again = expr_to_graph(back)
        if back != e or len(again.vertices) != len(eg.vertices) or len(
            again.edges
        ) != len(eg.edges):
            trip_fail += 1
        # (d) interval DP equals exhaustive minimum for chains of length <= 6
        chain = _random_pattern_chain(rng)
        _, dp_cost = best_accumulation_order(chain)
        brute = min(
            accumulate(chain, t)[1]
            for t in enumerate_parenthesizations(len(chain))
        )
        if dp_cost != brute:
            dp_fail += 1
    ok = order_fail == seg_fail == trip_fail == dp_fail == 0
    report(8, ok, f"200 random layered DAGs: elimination-order failures "
           f"{order_fail}, segmentation failures {seg_fail}, round-trip "
           f"failures {trip_fail}, chain-DP failures {dp_fail}")
