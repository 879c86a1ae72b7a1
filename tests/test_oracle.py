import random
import time

import pytest

from jacfact import oracle
from jacfact.expr import (
    CyclicReferenceError,
    ExprSet,
    Prod,
    Sum,
    Sym,
    base_symbols,
    expand_expr,
    expand_refs,
    prod,
    reference_order,
)
from jacfact.exprparse import parse_exprset
from jacfact.factorize import factorize_backward, factorize_forward
from jacfact.graph import (
    UNIT_LABEL,
    DiffGraph,
    Edge,
    enumerate_paths,
    parse_graph,
)
from jacfact.linegraph import build_line_graph, eliminate_face, readout_jacobian
from jacfact.oracle import (
    PRIME,
    OracleError,
    SupportMismatch,
    Trials,
    bauer_eval,
    check_equiv,
    draw_trials,
    eval_exprset,
    instantiate,
    sweep_costs,
)

from conftest import dense_layered, load_exprset, load_graph, random_exprset, random_layered_dag


def test_instantiate_deterministic():
    a = instantiate({"e1", "e2", "e3"}, seed=42)
    b = instantiate({"e3", "e2", "e1"}, seed=42)
    assert a == b
    c = instantiate({"e1", "e2", "e3"}, seed=43)
    assert a != c


def test_instantiate_nonzero_distinct():
    vals = list(instantiate({f"e{i}" for i in range(8)}, seed=42).values())
    assert len(vals) == 8
    assert all(2 <= v <= PRIME - 2 for v in vals)
    assert len(set(vals)) == 8


def test_unit_label_maps_to_one():
    assert "1" not in instantiate({"e1", "1"}, seed=0)
    batch = draw_trials({"e1", "1"}, 0, 3)
    assert "1" not in batch.columns
    assert batch["1"] == [1, 1, 1]


def test_bauer_counts_paths_with_unit_labels(fig4a, fig4b):
    ones = Trials({e.label: [1] for e in fig4a.edges}, 1)
    assert bauer_eval(fig4a, ones)[("v1", "v7")] == [4]
    ones_b = Trials({e.label: [1] for e in fig4b.edges}, 1)
    assert bauer_eval(fig4b, ones_b)[("v1", "v9")] == [6]


def test_bauer_single_edge():
    g = parse_graph("e e1 a b\n")
    batch = draw_trials({"e1"}, 5, 1)
    assert bauer_eval(g, batch)[("a", "b")] == batch["e1"]


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


def test_check_equiv_dict_with_a_mismatch_reports_like_its_entry_set():
    g = random_layered_dag(random.Random(4), max_vertices=12, max_edges=20)
    rng = random.Random(4)
    lg = build_line_graph(g)
    while True:
        faces = lg.intermediate_faces()
        if not faces:
            break
        eliminate_face(lg, *rng.choice(faces))
    readout = readout_jacobian(lg)
    assert len(readout) > 2
    victim = sorted(readout)[1]
    readout[victim] = prod(readout[victim], Sym(sorted(e.label for e in g.edges)[0]))
    as_set = ExprSet(entries=list(readout.items()))
    report = check_equiv(g, readout, trials=20, seed=9)
    assert {pair for pair, *_ in report.mismatches} == {victim}
    assert report.mismatches == check_equiv(g, as_set, trials=20, seed=9).mismatches
    assert report.to_json() == check_equiv(g, as_set, trials=20, seed=9).to_json()
    flipped = check_equiv(readout, g, trials=20, seed=9)
    assert flipped.mismatches == check_equiv(as_set, g, trials=20, seed=9).mismatches
    assert len(flipped.mismatches) == 20


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
            values = instantiate(labels, seed + t)
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
    assert instantiate(labels, 45) == {label: col[5] for label, col in want.items()}


def test_eval_exprset_defs_once():
    s = load_exprset("eq5")
    entries = eval_exprset(s, draw_trials({f"e{i}" for i in range(1, 13)}, 9, 1))
    assert set(entries) == {("v1", "v9")}


# ---------------------------------------------------------------------------
# cross-checks against brute force


def brute_path_sums(g, batch):
    """Bauer's rule by enumerating every root-to-terminal path, for a batch
    of one trial."""
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
                    term = term * batch[g.edge(eid).label][0] % PRIME
                total = (total + term) % PRIME
            out[(y, x)] = [total]
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
            batch = draw_trials({e.label for e in graph.edges}, seed, 1)
            assert bauer_eval(graph, batch) == brute_path_sums(graph, batch)
        checked += 1
    assert checked >= 40


def test_bauer_chain_of_60_diamonds_matches_closed_form():
    # 2^60 paths per entry; the path sum factors into one sum per diamond
    lines = []
    for i in range(60):
        lines += [f"e a{i} n{i} m{i}", f"e b{i} n{i} w{i}",
                  f"e c{i} m{i} n{i + 1}", f"e d{i} w{i} n{i + 1}"]
    g = parse_graph("\n".join(lines) + "\n")
    batch = draw_trials({e.label for e in g.edges}, 3, 20)
    col = batch.columns
    expected = [1] * 20
    for t in range(20):
        for i in range(60):
            term = col[f"a{i}"][t] * col[f"c{i}"][t] + col[f"b{i}"][t] * col[f"d{i}"][t]
            expected[t] = expected[t] * term % PRIME
    assert bauer_eval(g, batch) == {("n0", "n60"): expected}


def _swept(g, batch, side, monkeypatch):
    """`bauer_eval` with its sweep side forced to "down" or "up"."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "sweep_costs", lambda g: (0, 1) if side == "down" else (1, 0))
        return bauer_eval(g, batch)


def _sweep_cases():
    """Seeded DAGs, each also with unit edges, and the backward and forward
    outputs of dense 2x4, dense 3x4 and fig9a."""
    cases = []
    for seed in range(60):
        g = random_layered_dag(random.Random(seed), max_vertices=14, max_edges=24)
        cases += [g, _with_unit_edges(g)]
    for g in (dense_layered(2, 4), dense_layered(3, 4, seed=5), load_graph("fig9a")):
        cases += [factorize_backward(g), factorize_forward(g)]
    return cases


def test_down_and_up_sweeps_agree_with_path_enumeration(monkeypatch):
    for k, g in enumerate(_sweep_cases()):
        labels = {e.label for e in g.edges}
        batch = draw_trials(labels, k, 20)
        down = _swept(g, batch, "down", monkeypatch)
        up = _swept(g, batch, "up", monkeypatch)
        assert list(up.items()) == list(down.items())
        assert bauer_eval(g, batch) == down
        first = {pair: col[:1] for pair, col in down.items()}
        assert brute_path_sums(g, draw_trials(labels, k, 1)) == first


def test_sweep_costs_pick_the_cheaper_side():
    forward = factorize_forward(dense_layered(3, 4))
    assert sweep_costs(forward) == (594, 360)
    assert sweep_costs(factorize_backward(dense_layered(3, 4))) == (360, 594)
    batch = _CountingTrials(draw_trials({e.label for e in forward.edges}, 0, 3))
    bauer_eval(forward, batch)
    assert batch.terms == 360 == len(forward.edges)


class _CountingTrials(Trials):
    """A batch that counts the terms and products of its :meth:`dot` calls
    and checks that each reads reduced columns and returns one."""

    def __init__(self, batch):
        super().__init__(batch.columns, batch.size)
        self.dots = self.terms = self.products = 0

    def dot(self, terms):
        for x, y in terms:
            assert all(0 <= a < PRIME for col in (x, y) if col is not None for a in col)
        self.dots += 1
        self.terms += len(terms)
        self.products += sum(x is not None and y is not None for x, y in terms)
        out = super().dot(terms)
        assert len(out) == self.size and all(0 <= a < PRIME for a in out)
        return out


def test_eval_exprset_calls_dot_once_per_sum_factor_and_pair():
    # r,t repeats three entries and r,u two equal ones; a*b is one node
    s = parse_exprset(
        "s1 = a*b\ns2 = s1+c\n"
        "J[r,t] = s1*c*d\nJ[r,t] = s2+a*b\nJ[r,t] = d\n"
        "J[r,u] = a*b+c\nJ[r,u] = a*b+c\nJ[q,t] = d\n"
    )
    sets = [s] + [random_exprset(random.Random(seed)) for seed in range(40)]
    for s in sets:
        nodes = set()
        todo = [e for _, e in s.defs + s.entries]
        while todo:
            e = todo.pop()
            if isinstance(e, (Prod, Sum)) and e not in nodes:
                nodes.add(e)
                todo += e.factors if isinstance(e, Prod) else e.terms
        want = sum(1 if isinstance(n, Sum) else len(n.factors) - 1 for n in nodes)
        want += len({pair for pair, _ in s.entries})
        batch = _CountingTrials(draw_trials(base_symbols(s), 2, 3))
        eval_exprset(s, batch)
        assert batch.dots == want


def test_a_sweep_reduces_each_reached_vertex_once(monkeypatch):
    for g in _sweep_cases()[::5]:  # seeded DAGs, dense 2x4 backward, fig9a forward
        down_cost, up_cost = sweep_costs(g)
        reached = {
            "down": sum(len(g.reachable_from(y)) for y in g.roots),
            "up": sum(len(g.reaching(x)) for x in g.terminals),
        }
        for side, touched in (("down", down_cost), ("up", up_cost)):
            batch = _CountingTrials(draw_trials({e.label for e in g.edges}, 1, 4))
            _swept(g, batch, side, monkeypatch)
            assert batch.dots == reached[side]
            assert batch.terms == touched
            assert batch.products <= touched


def test_bauer_on_many_components_visits_only_what_each_sweep_reaches():
    # 4000 roots, each reaching one middle vertex and one terminal: 0.1 s,
    # where walking the whole order per root and testing every terminal
    # took 2.9 s on a 2-core x86-64 machine
    n = 4000
    g = parse_graph("".join(f"e a{i} r{i} m{i}\ne b{i} m{i} t{i}\n" for i in range(n)))
    batch = draw_trials({e.label for e in g.edges}, 0, 1)
    start = time.perf_counter()
    out = bauer_eval(g, batch)
    assert time.perf_counter() - start < 1.0
    assert list(out) == sorted((f"r{i}", f"t{i}") for i in range(n))
    assert out[("r7", "t7")] == [batch["a7"][0] * batch["b7"][0] % PRIME]


def test_dot_matches_a_reduced_sum_of_products():
    rng = random.Random(8)
    batch = Trials({}, 5)
    column = lambda: [rng.randrange(PRIME) for _ in range(5)]
    for _ in range(200):
        terms = [
            (rng.choice([None, column()]), rng.choice([None, column()]))
            for _ in range(rng.randint(1, 5))
        ]
        want = [
            sum((1 if x is None else x[t]) * (1 if y is None else y[t]) for x, y in terms) % PRIME
            for t in range(5)
        ]
        assert batch.dot(terms) == want


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
        va = {p: _ref_eval(e, inst) for p, e in expand_refs(lhs).entry_map().items()}
        vb = {p: _ref_eval(e, inst) for p, e in expand_refs(bad).entry_map().items()}
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
        va = {p: _ref_eval(e, inst) for p, e in lhs.entry_map().items()}
        vb = {p: _ref_eval(e, inst) for p, e in rhs.entry_map().items()}
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
    batch = draw_trials({"e1", "e2", "e3"}, 0, 1)
    with pytest.raises(CyclicReferenceError) as got:
        eval_exprset(s, batch)
    assert str(got.value) == str(want.value) == "cyclic reference: s3 -> s4 -> s3"


def test_eval_exprset_deep_reference_chain():
    n = 3000
    lines = ["s0 = e0"] + [f"s{i} = s{i - 1}*e{i}+e{i}" for i in range(1, n)]
    s = parse_exprset("\n".join(lines) + f"\nJ[a,b] = s{n - 1}\n")
    labels = {f"e{i}" for i in range(n)}
    inst = instantiate(labels, 4)
    v = inst["e0"]
    for i in range(1, n):
        v = (v * inst[f"e{i}"] + inst[f"e{i}"]) % PRIME
    assert eval_exprset(s, draw_trials(labels, 4, 1)) == {("a", "b"): [v]}


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
            v = _ref_eval(e, inst)
            want[pair] = (want[pair] + v) % PRIME if pair in want else v
        assert {pair: col[t] for pair, col in got.items()} == want


def test_eval_exprset_reads_a_name_as_its_definition_before_it_is_defined():
    # s1 uses s2 before the set defines it; both s2*a, one node, read the
    # definition b, as expand_refs does, and never the label s2
    s = parse_exprset("s1 = s2*a\ns2 = b\nJ[r,t] = s1+s2*a\n")
    batch = Trials({"a": [3], "b": [5], "s2": [7]}, 1)
    assert eval_exprset(s, batch) == {("r", "t"): [5 * 3 + 5 * 3]}


def test_eval_exprset_matches_expand_refs_with_shuffled_definitions():
    forward = 0
    for seed in range(300):
        s = random_exprset(random.Random(seed))
        batch = draw_trials(base_symbols(s), seed, 3)
        assert eval_exprset(s, batch) == eval_exprset(expand_refs(s), batch)
        forward += reference_order(s) != [name for name, _ in s.defs]
    assert forward > 50
