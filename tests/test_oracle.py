import random

import pytest

from jacfact.expr import (
    CyclicReferenceError,
    Prod,
    Sum,
    Sym,
    base_symbols,
    expand_expr,
    expand_refs,
    parse_exprset,
)
from jacfact.graph import (
    UNIT_LABEL,
    DiffGraph,
    Edge,
    PathGuardExceeded,
    enumerate_paths,
    parse_graph,
)
from jacfact.oracle import (
    PRIME,
    Instantiation,
    OracleError,
    SupportMismatch,
    bauer_eval,
    check_equiv,
    draw_trials,
    eval_exprset,
    instantiate,
)

from conftest import load_exprset, load_graph, random_layered_dag


def test_instantiate_deterministic():
    a = instantiate({"e1", "e2", "e3"}, seed=42)
    b = instantiate({"e3", "e2", "e1"}, seed=42)
    assert a.values == b.values
    c = instantiate({"e1", "e2", "e3"}, seed=43)
    assert a.values != c.values


def test_instantiate_nonzero_distinct():
    inst = instantiate({f"e{i}" for i in range(8)}, seed=42)
    vals = list(inst.values.values())
    assert len(vals) == 8
    assert all(2 <= v <= PRIME - 2 for v in vals)
    assert len(set(vals)) == 8


def test_unit_label_maps_to_one():
    inst = instantiate({"e1", "1"}, seed=0)
    assert inst["1"] == 1
    assert "1" not in inst.values


def test_bauer_counts_paths_with_unit_labels(fig4a, fig4b):
    ones = Instantiation({e.label: 1 for e in fig4a.edges}, seed=0)
    assert bauer_eval(fig4a, ones)[("v1", "v7")] == 4
    ones_b = Instantiation({e.label: 1 for e in fig4b.edges}, seed=0)
    assert bauer_eval(fig4b, ones_b)[("v1", "v9")] == 6


def test_bauer_single_edge():
    g = parse_graph("e e1 a b\n")
    inst = instantiate({"e1"}, seed=5)
    assert bauer_eval(g, inst)[("a", "b")] == inst["e1"]


def test_check_equiv_eq1_eq2():
    assert check_equiv(load_exprset("eq1"), load_exprset("eq2")).ok


def test_check_equiv_graph_vs_exprsets(fig4b):
    assert check_equiv(fig4b, load_exprset("eq3")).ok
    assert check_equiv(fig4b, load_exprset("eq4")).ok
    assert check_equiv(fig4b, load_exprset("eq5")).ok


def test_check_equiv_detects_perturbation():
    eq1 = load_exprset("eq1")
    bad = parse_exprset("J[v1,v7] = (e2*e3+e2*e4)*(e5*e7+e6*e8)\n")
    report = check_equiv(eq1, bad)
    assert not report.ok
    pair, seed, lhs, rhs = report.mismatches[0]
    assert pair == ("v1", "v7") and lhs != rhs
    assert report.to_json()["mismatches"]


def test_check_equiv_support_mismatch(fig4a):
    other = parse_exprset("J[v1,v6] = e1\n")
    with pytest.raises(SupportMismatch):
        check_equiv(fig4a, other)


@pytest.mark.parametrize("trials", [0, -3])
def test_check_equiv_needs_a_trial(fig4a, fig4b, trials):
    with pytest.raises(OracleError, match="at least one trial"):
        check_equiv(fig4a, fig4b, trials=trials)


def test_check_equiv_rejects_a_negative_seed(fig4a):
    # Random(-k) is Random(k), so seeds -50 .. 49 would draw 51 distinct trials
    with pytest.raises(OracleError, match="seed of at least 0, not -50"):
        check_equiv(fig4a, fig4a, seed=-50)


def _reference_columns(labels, seed, trials):
    """``randrange(2, PRIME - 1)`` per sorted non-unit label, trial by trial."""
    keys = sorted(set(labels) - {UNIT_LABEL})
    columns = {label: [] for label in keys}
    for t in range(trials):
        rng = random.Random(seed + t)
        for label in keys:
            columns[label].append(rng.randrange(2, PRIME - 1))
    return columns


def test_draw_trials_match_randrange():
    rng = random.Random(17)
    cases = [([], 3, 5), (["1"], 0, 2), (["b", "a", "b", "1", "a"], 9, 4)]
    cases.append(([f"e{i}" for i in range(1500)], 123, 3))
    for _ in range(40):
        labels = [rng.choice(["1", "e1", "x"]) + str(rng.randrange(60)) for _ in range(rng.randrange(30))]
        cases.append((labels + ["1"] * rng.randrange(2), rng.randrange(10**6), rng.randint(1, 8)))
    for labels, seed, trials in cases:
        batch = draw_trials(labels, seed, trials)
        assert batch.size == trials
        assert batch.columns == _reference_columns(labels, seed, trials)
        for t in range(trials):
            values = instantiate(labels, seed + t).values
            assert values == {label: col[t] for label, col in batch.columns.items()}


class _FirstBitsRejected(random.Random):
    """A generator whose first draw after seeding is bits that
    ``randrange(2, PRIME - 1)`` rejects; later draws are ``random.Random``'s."""

    def seed(self, *args, **kwargs):
        self.forced = True
        super().seed(*args, **kwargs)

    def getrandbits(self, k):
        if self.forced:
            self.forced = False
            return PRIME - 3
        return super().getrandbits(k)


def test_draws_fall_back_to_randrange_on_rejected_bits(monkeypatch):
    labels = ["c", "a", "1", "b"]
    want = _reference_columns(labels, 40, 6)
    # randrange draws past the rejected bits, so its values are random.Random's
    assert _FirstBitsRejected(40).randrange(2, PRIME - 1) == want["a"][0]
    monkeypatch.setattr(random, "Random", _FirstBitsRejected)
    assert draw_trials(labels, 40, 6).columns == want
    assert instantiate(labels, 45).values == {label: col[5] for label, col in want.items()}


def test_eval_exprset_defs_once():
    s = load_exprset("eq5")
    inst = instantiate({f"e{i}" for i in range(1, 13)}, seed=9)
    entries = eval_exprset(s, inst)
    assert set(entries) == {("v1", "v9")}


# ---------------------------------------------------------------------------
# cross-checks against brute force


def brute_path_sums(g, inst):
    """Bauer's rule by enumerating every root-to-terminal path."""
    out = {}
    for y in g.roots:
        for x in g.terminals:
            paths = enumerate_paths(g, y, x)
            if not paths:
                continue
            total = 0
            for path in paths:
                term = 1
                for eid in path:
                    term = term * inst[g.edge(eid).label] % PRIME
                total = (total + term) % PRIME
            out[(y, x)] = total
    return out


def _with_unit_edges(g):
    """The same graph with every third edge relabeled to the unit label."""
    return DiffGraph(
        Edge(e.id, e.src, e.dst, UNIT_LABEL if i % 3 == 2 else e.label)
        for i, e in enumerate(g.edges)
    )


def test_bauer_matches_path_enumeration():
    checked = 0
    for seed in range(120):
        g = random_layered_dag(random.Random(seed), max_vertices=14, max_edges=24)
        if len(g.vertices) < 9:
            continue
        for graph in (g, _with_unit_edges(g)):
            inst = instantiate({e.label for e in graph.edges}, seed)
            assert bauer_eval(graph, inst) == brute_path_sums(graph, inst)
        checked += 1
    assert checked >= 40


def test_bauer_guard_names_first_pair_over_limit():
    # (r0, t0) and (r0, t1) have one path each, (r1, t0) 8 and (r1, t1) 9
    lines = ["e a r0 t1", "e b r0 t0", "e c r1 t1", "e g k3 t1"]
    for i in range(3):
        src, dst = ("r1" if i == 0 else f"k{i}"), f"k{i + 1}"
        lines += [f"e u{i} {src} m{i}", f"e v{i} {src} w{i}",
                  f"e x{i} m{i} {dst}", f"e z{i} w{i} {dst}"]
    lines.append("e f k3 t0")
    g = parse_graph("\n".join(lines) + "\n")
    inst = instantiate({e.label for e in g.edges}, 0)
    assert len(bauer_eval(g, inst, guard=9)) == 4
    with pytest.raises(PathGuardExceeded, match="^more than 8 paths between r1 and t1$"):
        bauer_eval(g, inst, guard=8)
    with pytest.raises(PathGuardExceeded, match="^more than 7 paths between r1 and t0$"):
        bauer_eval(g, inst, guard=7)


def _ref_eval(e, values):
    """Recursive scalar evaluation of a reference-free expression."""
    if isinstance(e, Sym):
        return values[e.name]
    if isinstance(e, Prod):
        out = 1
        for f in e.factors:
            out = out * _ref_eval(f, values) % PRIME
        return out
    if isinstance(e, Sum):
        return sum(_ref_eval(t, values) for t in e.terms) % PRIME
    return 1


def test_check_equiv_mismatches_match_per_trial_loop():
    # both pairs differ in every trial; (v1,v7) is listed first, sorts last
    lhs = load_exprset("eq1")
    lhs.add_entry("v1", "v2", Sym("e1"))
    bad = parse_exprset(
        "J[v1,v7] = (e2*e3+e2*e4)*(e5*e7+e6*e8)\n"
        "J[v1,v2] = e2*e1\n"
    )
    labels = base_symbols(lhs) | base_symbols(bad)
    expected = []
    for t in range(30):
        inst = instantiate(labels, 11 + t)
        va = {p: _ref_eval(e, inst.values) for p, e in expand_refs(lhs).entry_map().items()}
        vb = {p: _ref_eval(e, inst.values) for p, e in expand_refs(bad).entry_map().items()}
        for pair in sorted(va):
            if va[pair] != vb[pair]:
                expected.append((pair, 11 + t, va[pair], vb[pair]))
    report = check_equiv(lhs, bad, trials=30, seed=11)
    assert len(expected) == 60
    assert report.mismatches == expected


class _ThreeValues(random.Random):
    """Labels instantiate to 2, 3 or 4, so unequal sums agree in some trials."""

    def getrandbits(self, k):
        return super().getrandbits(k) % 3


def test_check_equiv_mismatches_in_some_trials_match_per_trial_loop(monkeypatch):
    monkeypatch.setattr(random, "Random", _ThreeValues)
    lhs = parse_exprset("J[r,t1] = a*b\nJ[r,t2] = a+c\nJ[r,t3] = c\nJ[r,t4] = a*(b+c)\nJ[q,t1] = b\n")
    rhs = parse_exprset("J[r,t1] = b*a\nJ[r,t2] = b+c\nJ[r,t3] = c\nJ[r,t4] = a*b+a*c\nJ[q,t1] = a\n")
    expected = []
    for t in range(40):
        inst = instantiate({"a", "b", "c"}, 7 + t)
        va = {p: _ref_eval(e, inst.values) for p, e in lhs.entry_map().items()}
        vb = {p: _ref_eval(e, inst.values) for p, e in rhs.entry_map().items()}
        for pair in sorted(va):
            if va[pair] != vb[pair]:
                expected.append((pair, 7 + t, va[pair], vb[pair]))
    report = check_equiv(lhs, rhs, trials=40, seed=7)
    differing = {pair for pair, *_ in expected}
    assert differing == {("r", "t2"), ("q", "t1")}
    assert 2 < len(expected) < 2 * 40
    assert report.mismatches == expected


def test_eval_exprset_reports_cycles_like_expand_expr():
    s = parse_exprset("s1 = e1*s3\ns3 = e2+s4\ns4 = e3*s3\nJ[a,b] = s1\n")
    with pytest.raises(CyclicReferenceError) as want:
        expand_expr(s.defs[0][1], s.def_map)
    inst = instantiate({"e1", "e2", "e3"}, 0)
    with pytest.raises(CyclicReferenceError) as got:
        eval_exprset(s, inst)
    assert str(got.value) == str(want.value) == "cyclic reference: s3 -> s4 -> s3"


def test_eval_exprset_deep_reference_chain():
    n = 3000
    lines = ["s0 = e0"] + [f"s{i} = s{i - 1}*e{i}+e{i}" for i in range(1, n)]
    s = parse_exprset("\n".join(lines) + f"\nJ[a,b] = s{n - 1}\n")
    inst = instantiate({f"e{i}" for i in range(n)}, 4)
    v = inst["e0"]
    for i in range(1, n):
        v = (v * inst[f"e{i}"] + inst[f"e{i}"]) % PRIME
    assert eval_exprset(s, inst) == {("a", "b"): v}


def test_eval_exprset_equal_subterms_match_recursive_evaluation():
    # equal subterms parsed apart are one node; they share one column
    pool = ["e1*(e2+e3)", "e4+e5*e6", "(e1+e2)*(e3+e4*e5)", "e4*e5", "e4+e5", "s1", "e7", "1"]
    rng = random.Random(5)
    lines = ["s1 = e2*(e1+e3)", "s2 = (e1*(e2+e3))*s1+e4+e5*e6"]
    for k in range(40):
        parts = [rng.choice(pool + ["s2"]) for _ in range(rng.randint(1, 4))]
        body = "*".join(f"({p})" for p in parts) if k % 2 else "+".join(parts)
        lines.append(f"J[r{k % 5},t{k % 3}] = {body}")
    s = parse_exprset("\n".join(lines) + "\n")
    labels = {f"e{i}" for i in range(1, 8)}
    got = eval_exprset(s, draw_trials(labels, 3, 20))
    for t in range(20):
        inst = instantiate(labels, 3 + t)
        want = {}
        for pair, e in expand_refs(s).entries:
            v = _ref_eval(e, inst.values)
            want[pair] = (want[pair] + v) % PRIME if pair in want else v
        assert {pair: col[t] for pair, col in got.items()} == want


def test_eval_exprset_reads_a_name_as_its_label_until_defined():
    # s1 is evaluated before s2 is defined, so its s2*a reads the label s2;
    # the entry's s2*a, the same node, reads the definition
    s = parse_exprset("s1 = s2*a\ns2 = b\nJ[r,t] = s1+s2*a\n")
    inst = Instantiation({"a": 3, "b": 5, "s2": 7}, 0)
    assert eval_exprset(s, inst) == {("r", "t"): 7 * 3 + 5 * 3}
