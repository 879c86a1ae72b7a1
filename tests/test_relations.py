import itertools
import random
import subprocess
import sys

import pytest

from jacfact import relations
from jacfact.convert import expr_to_graph
from jacfact.expr import CyclicReferenceError, ExprSet, fma_cost
from jacfact.exprparse import parse_expr, parse_exprset
from jacfact.graph import DiffGraph, parse_graph
from jacfact.linegraph import build_line_graph, readout_jacobian, run_elimination, trace_mult_count
from jacfact.oracle import check_equiv
from jacfact.relations import (
    CircularDependencyError,
    DepGraph,
    RelationError,
    build_dep_graph,
    classify_relations,
    detect_cycles,
    face_key,
    lemma1_audit,
    safe_elimination_order,
)

from conftest import load_exprset, load_graph, random_exprset


def table_json(table):
    return {
        f"{a} | {b}": [o.record() for o in occs] for (a, b), occs in sorted(table.items())
    }


@pytest.fixture
def sec5():
    return load_exprset("sec5set")


def _occs(table, pair):
    return table.get(pair, [])


def test_classify_direct_and_indirect_e4_e8(sec5):
    table = classify_relations(sec5)
    occs = _occs(table, ("e4", "e8"))
    kinds = {(o.kind, o.site, o.witness) for o in occs}
    assert ("direct", "J[v-2,v12]", None) in kinds
    assert ("indirect-right", "s5", "e11") in kinds


def test_classify_single_direct():
    s = parse_exprset("J[y,x] = a*b\n")
    table = classify_relations(s)
    assert [(o.kind, o.site) for o in table[("a", "b")]] == [("direct", "J[y,x]")]


def test_classify_indirect_left(sec5):
    table = classify_relations(sec5)
    occs = _occs(table, ("e8", "e15"))
    # direct in J[v-3,v12] = e19*e5*e8*e15, indirect behind (s1+e4*e8)
    assert {(o.kind, o.witness) for o in occs} == {
        ("indirect-left", "e4"),
        ("direct", None),
    }
    # witness-less indirect through the bare s1 term
    occs = _occs(table, ("e18", "s1"))
    assert ("indirect-right", None) in {(o.kind, o.witness) for o in occs}


def test_classify_exhaustive_direct_count(sec5):
    table = classify_relations(sec5)
    direct = sum(
        1 for occs in table.values() for o in occs if o.kind == "direct"
    )
    assert direct == fma_cost(sec5) == 26
    for name in ("eq1", "eq2", "eq5"):
        s = load_exprset(name)
        t = classify_relations(s)
        d = sum(1 for occs in t.values() for o in occs if o.kind == "direct")
        assert d == fma_cost(s)


def test_table_json(sec5):
    j = table_json(classify_relations(sec5))
    assert "e4 | e8" in j


def test_lemma1_zero_violations(sec5):
    assert lemma1_audit(sec5) == []


def test_lemma1_flags_reducible_set():
    s = parse_exprset("J[y,x1] = a*(b+c)\nJ[y,x2] = d*(a*b+e)\n")
    violations = lemma1_audit(s)
    assert len(violations) == 1
    assert violations[0]["pair"] == ["a", "b"]


def test_lemma1_direct_only_clean():
    s = parse_exprset("J[y,x] = a*b*c\nJ[y,x2] = a*b*d\n")
    assert lemma1_audit(s) == []


def test_dep_graph_edges(sec5):
    d = build_dep_graph(sec5)
    assert ("e8", "e11") in d.succ[("e4", "e8")]
    assert ("e9", "e12") in d.succ[("e4", "e9")]
    assert set(d.succ[("e18", "e4")]) == {("e4", "s4"), ("e4", "e8")}
    assert d.succ[("e8", "e11")] == {}
    assert d.succ[("e9", "e12")] == {}
    assert detect_cycles(d) == []
    dot = d.to_dot()
    assert '"e4,e8" -> "e8,e11"' in dot


def test_dep_graph_direct_only_empty():
    s = parse_exprset("J[y,x] = a*b*c\n")
    d = build_dep_graph(s)
    assert d.edges == []
    assert detect_cycles(d) == []


def test_mirrored_dependency():
    s = parse_exprset("J[y,x1] = (d+w*a)*b\nJ[y,x2] = a*b*c\n")
    d = build_dep_graph(s)
    edges = [(x, y, m) for x, y, m in d.edges]
    assert (("a", "b"), ("w", "a"), True) in edges


def test_cycle_example_has_one_cycle():
    cyc = load_exprset("cyclic8")
    d = build_dep_graph(cyc)
    cycles = detect_cycles(d)
    assert len(cycles) == 1
    assert len(cycles[0]) == 8
    with pytest.raises(CircularDependencyError) as err:
        safe_elimination_order(cyc)
    assert err.value.cycles == cycles


def test_safe_order_starts_with_free_faces(sec5):
    order = safe_elimination_order(sec5)
    keys = [(face_key(a), face_key(b)) for a, b in order]
    assert keys[0] == ("e8", "e11")
    assert keys[1] == ("e9", "e12")
    assert len(order) == fma_cost(sec5)


def test_safe_order_replays_exactly(sec5, fig9a):
    page = DiffGraph(
        [e for e in fig9a.edges if e.id not in ("e0", "e17", "e1", "e2")]
    )
    order = safe_elimination_order(sec5)
    lg = build_line_graph(page)
    trace = run_elimination(lg, order, defs=sec5.def_map)
    assert trace_mult_count(trace) == fma_cost(sec5) == 26
    entries = readout_jacobian(lg)
    assert set(entries) == set(sec5.entry_map())
    assert check_equiv(sec5, entries).ok


def test_safe_order_replays_shuffled_definitions(sec5, fig9a):
    page = DiffGraph(
        [e for e in fig9a.edges if e.id not in ("e0", "e17", "e1", "e2")]
    )
    for seed in range(30):
        defs = list(sec5.defs)
        random.Random(seed).shuffle(defs)
        s = ExprSet(defs, list(sec5.entries))
        lg = build_line_graph(page)
        trace = run_elimination(lg, safe_elimination_order(s), defs=s.def_map)
        assert trace_mult_count(trace) == fma_cost(s) == 26
        assert check_equiv(s, readout_jacobian(lg)).ok


def test_safe_order_reference_cycle_is_a_cyclic_reference():
    s = parse_exprset("s1 = s2*a\ns2 = s1*b\nJ[r,t] = s1\n")
    with pytest.raises(CyclicReferenceError, match="^cyclic reference: s2 -> s1 -> s2$"):
        safe_elimination_order(s)


def test_safe_order_direct_only_topological():
    s = parse_exprset("J[y,x] = a*b*c\n")
    order = safe_elimination_order(s)
    keys = [(face_key(l), face_key(r)) for l, r in order]
    assert keys == [("a", "b"), ("a*b", "c")]  # left-to-right accumulation


def test_safe_order_eq5_replay(fig4b):
    s = load_exprset("eq5")
    order = safe_elimination_order(s)
    lg = build_line_graph(fig4b)
    trace = run_elimination(lg, order, defs=s.def_map)
    assert trace_mult_count(trace) == fma_cost(s) == 10
    assert check_equiv(s, readout_jacobian(lg)).ok


def test_safe_order_eq1_replay(fig4a):
    s = load_exprset("eq1")
    order = safe_elimination_order(s)
    lg = build_line_graph(fig4a)
    trace = run_elimination(lg, order, defs=s.def_map)
    assert trace_mult_count(trace) == 5
    assert check_equiv(s, readout_jacobian(lg)).ok


def test_deep_entry_plans_and_replays():
    # J[v1,v2] = a0*(b0*d0+a1*(b1*d1+...+c*e)), nested 2000 deep: two
    # multiplications per level and one for c*e
    n = 2000
    text = "".join(f"a{k}*(b{k}*d{k}+" for k in range(n)) + "c*e" + ")" * n
    e = parse_expr(text)
    assert e == parse_expr(text) and hash(e) == hash(parse_expr(text))
    assert e != parse_expr(text.replace("c*e", "e*c"))
    s = parse_exprset(f"J[v1,v2] = {text}\n")
    g = expr_to_graph(e)
    assert (g.roots, g.terminals) == (("v1",), ("v2",))
    assert classify_relations(s)[("a0", "b0")][0].kind == "indirect-right"
    lg = build_line_graph(g)
    trace = run_elimination(lg, safe_elimination_order(s), defs=s.def_map)
    assert trace_mult_count(trace) == fma_cost(s) == 2 * n + 1
    assert check_equiv(g, s).ok
    assert check_equiv(g, readout_jacobian(lg), trials=3).ok


def test_safe_order_deep_reference_chain():
    # s_i = s_{i-1}*e_i+e_i: every face names s_{i-1} as the set spells it,
    # so planning expands no name
    n = 1000
    lines = ["s0 = e0"] + [f"s{i} = s{i - 1}*e{i}+e{i}" for i in range(1, n + 1)]
    s = parse_exprset("\n".join(lines) + f"\nJ[a,b] = s{n}*z\n")
    assert len(safe_elimination_order(s)) == fma_cost(s) == n + 1


def test_safe_order_stuck_on_a_face_queued_behind_its_head():
    # c*s0 puts (c, c) before s0's leading c*b, so every (c, c) face waits
    # until no (c, b) face is left; J's own c*b comes after its c*c faces
    s = parse_exprset("s0 = c*b*c+a\nJ[q,x] = c*c*c*c*b*c*s0\n")
    with pytest.raises(RelationError) as err:
        safe_elimination_order(s)
    assert type(err.value) is RelationError
    assert str(err.value) == "no safe order; stuck on faces [('c', 'c')]"


def _ref_schedule(queues, left, deps_of, key):
    """The scan the heap scheduler replaces: at every step, the head of
    least `key` among all heads whose pair depends on no pair with faces
    `left`."""
    order = []
    while queues:
        heads = [
            q[0] for q in queues.values()
            if not any(left[need] for need in deps_of.get(q[0].pair, ()))
        ]
        if not heads:
            break
        best = min(heads, key=key)
        queue = queues[best.site]
        queue.popleft()
        if not queue:
            del queues[best.site]
        left[best.pair] -= 1
        order.append(best.face)
    return order


def _order_or_error(s):
    try:
        return safe_elimination_order(s)
    except RelationError as exc:
        return repr(exc)


def test_scheduler_matches_the_scan(monkeypatch):
    names = ("cyclic8", "eq1", "eq2", "eq3", "eq4", "eq5", "sec5set")
    sets = [load_exprset(n) for n in names]
    sets += [random_exprset(random.Random(seed)) for seed in range(3000)]
    got = [_order_or_error(s) for s in sets]
    monkeypatch.setattr(relations, "_schedule", _ref_schedule)
    assert got == [_order_or_error(s) for s in sets]
    # sets with dependency edges, sets that get stuck and circular sets
    assert sum(bool(build_dep_graph(s).edges) for s in sets) > 400
    assert sum(isinstance(o, str) and "stuck" in o for o in got) > 80
    assert sum(isinstance(o, str) and "circular" in o for o in got) > 100


def test_cycles_empty_iff_safe_order_succeeds(sec5):
    assert detect_cycles(build_dep_graph(sec5)) == []
    safe_elimination_order(sec5)  # does not raise


def _brute_force_cycles(nodes, edges):
    """Every elementary cycle, found by trying each ordering of the nodes
    after its least node."""
    cycles = []
    for start in nodes:
        later = [n for n in nodes if n > start]
        for k in range(len(later) + 1):
            for rest in itertools.permutations(later, k):
                cyc = (start, *rest)
                if all((a, b) in edges for a, b in zip(cyc, cyc[1:] + cyc[:1])):
                    cycles.append(cyc)
    return sorted(cycles)


def test_detect_cycles_matches_brute_force():
    found = 0
    for seed in range(300):
        rng = random.Random(seed)
        nodes = [(f"e{i}", f"e{rng.randrange(9)}") for i in range(rng.randint(1, 7))]
        density = rng.uniform(0.1, 0.6)
        edges = {(a, b) for a in nodes for b in nodes if rng.random() < density}
        dep_edges = [(a, b, False) for a, b in sorted(edges)]
        # a face pair may also carry a mirrored edge
        dep_edges += [(a, b, True) for a, b in sorted(edges) if rng.random() < 0.3]
        d = DepGraph(set(nodes), dep_edges)
        assert {n: set(ws) for n, ws in d.succ.items()} == {
            n: {b for a, b in edges if a == n} for n in nodes
        }
        want = _brute_force_cycles(sorted(nodes), edges)
        assert detect_cycles(d) == want
        found += len(want)
    assert found > 1000


def test_import_leaves_networkx_unloaded():
    code = "import sys, jacfact; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
