import itertools
import random

import pytest

from jacfact.expr import Sym, UNIT, fma_cost, format_expr, parse_expr
from jacfact.graph import GraphError, parse_graph
from jacfact.linegraph import build_line_graph, run_elimination, trace_mult_count
from jacfact.localjac import (
    JacobianError,
    LocalJacobian,
    accumulate,
    best_accumulation_order,
    extract_local_jacobian,
    left_assoc,
    level_chain,
    right_assoc,
)
from jacfact.oracle import check_equiv
from jacfact.relations import safe_elimination_order

from conftest import (
    dense_layered,
    enumerate_parenthesizations,
    fig4b_labeled_s1,
    load_graph,
    random_layered_dag,
)


def test_extract_row_vector(fig4b):
    a = extract_local_jacobian(fig4b, ["v1"], ["v2", "v3"])
    assert a.entries == {("v1", "v2"): Sym("e1"), ("v1", "v3"): Sym("e2")}


def test_extract_sparse_matrix(fig4b):
    b = extract_local_jacobian(fig4b, ["v2", "v3"], ["v4", "v5", "v6"])
    assert len(b.entries) == 4
    assert b.entry("v2", "v6") is None and b.entry("v3", "v4") is None
    assert b.entry("v2", "v4") == Sym("e3")


def test_extract_single_pair():
    g = parse_graph("e e1 a b\n")
    j = extract_local_jacobian(g, ["a"], ["b"])
    assert j.entries == {("a", "b"): Sym("e1")}
    with pytest.raises(JacobianError):
        extract_local_jacobian(g, ["b"], ["a"])


def test_extract_names_first_nonconformable_pair_in_row_major_order():
    g = parse_graph("e e1 q x\ne e2 p y\n")
    with pytest.raises(JacobianError, match="^column q precedes row x$"):
        extract_local_jacobian(g, ["x", "y"], ["p", "q"])


def test_dump_format(fig4b):
    a = extract_local_jacobian(fig4b, ["v1"], ["v2", "v3"])
    dump = a.dump()
    assert dump.splitlines()[0] == "J v1 | v2 v3"
    assert "entry v1 v2 = e1" in dump


def test_accumulate_costs_and_sharing(fig4b):
    chain = level_chain(fig4b)
    s_lr, cost_lr = accumulate(chain, left_assoc(4))
    s_rl, cost_rl = accumulate(chain, right_assoc(4))
    assert cost_lr == 10 and cost_rl == 10
    assert format_expr(s_lr.def_map["s2"]) == "e1*e4+e2*e5"
    assert format_expr(s_rl.def_map["s2"]) == "e8*e11+e9*e12"
    assert check_equiv(s_lr, s_rl).ok
    assert check_equiv(fig4b, s_lr).ok


def test_accumulate_all_orders_same_value(fig4b):
    chain = level_chain(fig4b)
    results = []
    for tree in enumerate_parenthesizations(4):
        s, cost = accumulate(chain, tree)
        results.append((s, cost))
    base = results[0][0]
    for s, _ in results[1:]:
        assert check_equiv(base, s, trials=10).ok
    assert min(c for _, c in results) == 10


def test_accumulate_trivial_chain():
    a = LocalJacobian(("r",), ("m",), {("r", "m"): Sym("a")})
    b = LocalJacobian(("m",), ("c",), {("m", "c"): Sym("b")})
    s, cost = accumulate([a, b], (0, 1))
    assert cost == 1
    assert format_expr(s.entry_map()[("r", "c")]) == "a*b"


@pytest.mark.parametrize("order", [left_assoc, right_assoc])
def test_accumulate_deep_chain(order):
    # 1500 1x1 local Jacobians, unit but for the first and the last
    n = 1500
    chain = [
        LocalJacobian((f"v{i}",), (f"v{i + 1}",), {(f"v{i}", f"v{i + 1}"): Sym(f"e{i}") if i in (0, n - 1) else UNIT})
        for i in range(n)
    ]
    s, cost = accumulate(chain, order(n))
    assert cost == 1
    assert format_expr(s.entry_map()[("v0", f"v{n}")]) == f"e0*e{n - 1}"


def test_accumulate_non_conformable():
    a = LocalJacobian(("r",), ("m",), {("r", "m"): Sym("a")})
    b = LocalJacobian(("x",), ("c",), {("x", "c"): Sym("b")})
    with pytest.raises(JacobianError):
        accumulate([a, b], (0, 1))


def test_unit_entries_cost_nothing():
    a = LocalJacobian(("r",), ("m",), {("r", "m"): UNIT})
    b = LocalJacobian(("m",), ("c",), {("m", "c"): Sym("b")})
    s, cost = accumulate([a, b], (0, 1))
    assert cost == 0
    assert s.entry_map()[("r", "c")] == Sym("b")


def test_best_order_fig4a(fig4a):
    chain = level_chain(fig4a)
    tree, cost = best_accumulation_order(chain)
    assert tree == ((0, 1), (2, 3))
    assert cost == 5
    bad = accumulate(chain, ((0, (1, 2)), 3))
    assert bad[1] > 5


def test_best_order_1x1_chain_flat():
    mats = [
        LocalJacobian((f"a{i}",), (f"a{i+1}",), {(f"a{i}", f"a{i+1}"): Sym(f"m{i}")})
        for i in range(5)
    ]
    costs = {accumulate(mats, t)[1] for t in enumerate_parenthesizations(5)}
    assert costs == {4}
    _, best = best_accumulation_order(mats)
    assert best == 4


def test_best_order_bound():
    mats = [
        LocalJacobian((f"a{i}",), (f"a{i+1}",), {(f"a{i}", f"a{i+1}"): Sym(f"m{i}")})
        for i in range(13)
    ]
    with pytest.raises(JacobianError, match="bound"):
        best_accumulation_order(mats)


def test_fig7_non_depth_grouping():
    g = load_graph("fig7a")
    ja = extract_local_jacobian(g, ["v1", "v11"], ["v2", "v3", "v12", "v13"])
    jb = extract_local_jacobian(g, ["v2", "v3", "v12", "v13"], ["v4", "v14"])
    s, cost = accumulate([ja, jb], (0, 1))
    entries = s.entry_map()
    assert format_expr(entries[("v1", "v4")]) == "e1*e3+e2*e4"
    assert format_expr(entries[("v11", "v14")]) == "e11*e13+e12*e14"
    assert cost == 4


def test_dp_matches_bruteforce_on_fig_chains(fig4a, fig4b):
    for chain in (level_chain(fig4a), level_chain(fig4b)):
        _, dp_cost = best_accumulation_order(chain)
        brute = min(
            accumulate(chain, t)[1] for t in enumerate_parenthesizations(len(chain))
        )
        assert dp_cost == brute


@pytest.mark.parametrize(
    "rows, cols", [(["nope"], ["v2"]), (["v1"], ["nope"])], ids=["row", "column"]
)
def test_extract_names_an_unknown_vertex(fig4b, rows, cols):
    with pytest.raises(GraphError, match="^unknown vertex nope$"):
        extract_local_jacobian(fig4b, rows, cols)


@pytest.mark.parametrize("order", [left_assoc(4), right_assoc(4)])
def test_accumulate_names_skip_input_labels(order):
    g = parse_graph(fig4b_labeled_s1())
    s, cost = accumulate(level_chain(g), order)
    assert "s1" not in s.def_map and cost == 10
    assert check_equiv(g, s).ok


def _reference_order(chain):
    """The interval DP costing every split by a full pattern product (0 zero,
    1 unit, 2 general), ties to the least split: what
    `best_accumulation_order` must return."""
    def pattern(m):
        return m.rows, m.cols, {k: 1 if e is UNIT else 2 for k, e in m.entries.items()}

    def product(a, b):
        rows, mid, pa = a
        mid_b, cols, pb = b
        if mid != mid_b:
            raise JacobianError("chain is not conformable")
        out, cost = {}, 0
        for (r, m), x in pa.items():
            for c in cols:
                y = pb.get((m, c))
                if y is None:
                    continue
                cost += x == 2 and y == 2
                out[(r, c)] = 2 if (r, c) in out else (1 if x == y == 1 else 2)
        return (rows, cols, out), cost

    n = len(chain)
    if n == 1:
        return 0, 0
    pats = {(i, i): pattern(m) for i, m in enumerate(chain)}
    best = {(i, i): (0, i) for i in range(n)}
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            options = []
            for k in range(i, j):
                combined, join = product(pats[(i, k)], pats[(k + 1, j)])
                options.append((best[(i, k)][0] + best[(k + 1, j)][0] + join, k, combined))
            cost, k, pats[(i, j)] = min(options, key=lambda o: (o[0], o[1]))
            best[(i, j)] = (cost, (best[(i, k)][1], best[(k + 1, j)][1]))
    return best[(0, n - 1)][1], best[(0, n - 1)][0]


def _diamond_chain(count):
    lines = []
    for d in range(count):
        for side in "lr":
            lines += [f"e {side}{d}a c{d} m{d}{side}\n", f"e {side}{d}b m{d}{side} c{d + 1}\n"]
    return parse_graph("".join(lines))


def _random_chain(rng, n, max_dim, unit_share=0.25, zero_share=0.3):
    """A conformable chain of n random sparse factors; every row of a
    factor keeps one entry, so no product is all zero."""
    dims = [rng.randint(1, max_dim) for _ in range(n + 1)]
    chain, k = [], 0
    for step in range(n):
        rows = tuple(f"r{step}_{i}" for i in range(dims[step]))
        cols = tuple(f"r{step + 1}_{i}" for i in range(dims[step + 1]))
        entries = {}
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                if j != i % len(cols) and rng.random() < zero_share:
                    continue
                k += 1
                entries[(r, c)] = UNIT if rng.random() < unit_share else Sym(f"p{k}")
        chain.append(LocalJacobian(rows, cols, entries))
    return chain


def _dp_corpus():
    rng = random.Random(2021)
    for _ in range(120):
        g = random_layered_dag(rng, max_vertices=rng.randint(10, 40), max_edges=60, max_levels=8)
        yield level_chain(g)
    for width, depth in [(2, 8), (3, 5), (4, 4), (2, 4), (3, 3), (5, 2)]:
        yield level_chain(dense_layered(width, depth))
    for count in range(4, 13):
        yield level_chain(_diamond_chain(count))
    for _ in range(100):
        yield _random_chain(rng, rng.randint(2, 10), 4)
    for _ in range(80):  # 1x1 chains, often with unit entries
        yield _random_chain(rng, rng.randint(1, 14), 1, unit_share=rng.random())


def test_best_order_matches_reference_dp():
    corpus = list(_dp_corpus())
    assert len(corpus) >= 300 and max(len(c) for c in corpus) >= 24
    for chain in corpus:
        assert best_accumulation_order(chain, bound=len(chain)) == _reference_order(chain)


def test_best_order_rejects_a_non_conformable_1x1_chain():
    mats = [
        LocalJacobian(("a",), ("b",), {("a", "b"): Sym("m0")}),
        LocalJacobian(("x",), ("c",), {("x", "c"): Sym("m1")}),
    ]
    with pytest.raises(JacobianError, match="^chain is not conformable$"):
        best_accumulation_order(mats)


def test_plain_chain_of_1500_edges_runs_end_to_end():
    n = 1500
    g = parse_graph("".join(f"e c{k} p{k} p{k + 1}\n" for k in range(n)))
    chain = level_chain(g)
    assert len(chain) == n
    tree, cost = best_accumulation_order(chain, bound=len(chain))
    assert cost == n - 1
    node = tree
    for k in range(n - 1):  # right-associated, walked: `==` would recurse 1500 deep
        assert node[0] == k
        node = node[1]
    assert node == n - 1
    s, acc_cost = accumulate(chain, tree)
    assert acc_cost == fma_cost(s) == n - 1
    assert check_equiv(g, s).ok
    trace = run_elimination(build_line_graph(g), safe_elimination_order(s), defs=s.def_map)
    assert trace_mult_count(trace) == n - 1
