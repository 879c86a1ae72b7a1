import itertools
import random

import pytest

from jacfact.expr import Sym, UNIT, fma_cost, format_expr, parse_expr
from jacfact.graph import GraphError, parse_graph
from jacfact.localjac import (
    JacobianError,
    LocalJacobian,
    accumulate,
    best_accumulation_order,
    extract_local_jacobian,
    left_assoc,
    right_assoc,
)
from jacfact.oracle import check_equiv

from conftest import enumerate_parenthesizations, fig4b_labeled_s1, load_graph


def _fig4b_chain(fig4b):
    return [
        extract_local_jacobian(fig4b, ["v1"], ["v2", "v3"]),
        extract_local_jacobian(fig4b, ["v2", "v3"], ["v4", "v5", "v6"]),
        extract_local_jacobian(fig4b, ["v4", "v5", "v6"], ["v7", "v8"]),
        extract_local_jacobian(fig4b, ["v7", "v8"], ["v9"]),
    ]


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
    chain = _fig4b_chain(fig4b)
    s_lr, cost_lr = accumulate(chain, left_assoc(4))
    s_rl, cost_rl = accumulate(chain, right_assoc(4))
    assert cost_lr == 10 and cost_rl == 10
    assert format_expr(s_lr.def_map["s2"]) == "e1*e4+e2*e5"
    assert format_expr(s_rl.def_map["s2"]) == "e8*e11+e9*e12"
    assert check_equiv(s_lr, s_rl).ok
    assert check_equiv(fig4b, s_lr).ok


def test_accumulate_all_orders_same_value(fig4b):
    chain = _fig4b_chain(fig4b)
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
    chain = [
        extract_local_jacobian(fig4a, ["v1"], ["v2", "v3"]),
        extract_local_jacobian(fig4a, ["v2", "v3"], ["v4"]),
        extract_local_jacobian(fig4a, ["v4"], ["v5", "v6"]),
        extract_local_jacobian(fig4a, ["v5", "v6"], ["v7"]),
    ]
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
    for chain in (
        [
            extract_local_jacobian(fig4a, ["v1"], ["v2", "v3"]),
            extract_local_jacobian(fig4a, ["v2", "v3"], ["v4"]),
            extract_local_jacobian(fig4a, ["v4"], ["v5", "v6"]),
            extract_local_jacobian(fig4a, ["v5", "v6"], ["v7"]),
        ],
        _fig4b_chain(fig4b),
    ):
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
    s, cost = accumulate(_fig4b_chain(g), order)
    assert "s1" not in s.def_map and cost == 10
    assert check_equiv(g, s).ok
