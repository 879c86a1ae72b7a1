"""The independent checker: values, supports and multiplication counts."""
import checker
import inputs

FIG4A = inputs.fixture_text("fig4a")
EQ1 = inputs.fixture_text("eq1", "exprs")  # (e1*e3+e2*e4)*(e5*e7+e6*e8), 5 mults


def brute_force(g, values):
    """Path enumeration, the textbook definition the sweep must match."""
    out = {}
    for r in g.roots():
        stack = [(r, 1)]
        while stack:
            v, acc = stack.pop()
            if not g.succ[v]:
                out[(r, v)] = (out.get((r, v), 0) + acc) % checker.PRIME
            for _, _, dst, label in g.succ[v]:
                stack.append((dst, acc * values[label] % checker.PRIME))
    return out


def test_path_sum_matches_enumeration():
    for text in [inputs.fixture_text(n) for n in inputs.CLI_FIXTURES]:
        g = checker.parse_graph(text)
        values = checker.random_values({e[3] for e in g.edges}, 7)
        values[checker.UNIT] = 1
        assert checker.path_sum(g, values) == brute_force(g, values)


def test_accepts_a_right_plan_and_counts_it():
    v = checker.judge_exprset(FIG4A, EQ1)
    assert v.ok and v.mults == 5


def test_rejects_a_plan_with_one_dropped_term():
    wrong = EQ1.replace("e1*e3+e2*e4", "e1*e3")
    assert wrong != EQ1
    v = checker.judge_exprset(FIG4A, wrong)
    assert not v.ok and "value differs" in v.reason


def test_rejects_missing_and_spurious_entries():
    assert not checker.judge_exprset(FIG4A, "J[v1,v6] = e1\n").ok
    assert not checker.judge_exprset(FIG4A, EQ1 + "J[v1,v6] = e2*e4*e6\n").ok


def test_rejects_a_miscounted_replay():
    readout = EQ1  # the readout equals the plan
    assert checker.judge_replay(FIG4A, readout, 5, 5).ok
    v = checker.judge_replay(FIG4A, readout, 6, 5)
    assert not v.ok and "counts 6" in v.reason


def test_count_rule():
    count = lambda text: checker.count_mults(checker.parse_expr(text))
    assert count("a") == 0
    assert count("a*b*c") == 2
    assert count("1*a*1") == 0
    assert count("a*(b*c)") == 2
    assert count("(a+b)*(c+d*e)") == 2
    s = checker.parse_exprset("s1 = a*b\nJ[r,t] = s1*c+s1*d\n")
    assert checker.set_mults(s) == 1 + 2  # the definition counts once


def test_count_matches_fma_cost_on_shipped_sets():
    from jacfact.expr import fma_cost, parse_exprset

    for name in ("eq1", "eq2", "eq3", "eq4", "eq5", "sec5set"):
        text = inputs.fixture_text(name, "exprs")
        assert checker.set_mults(checker.parse_exprset(text)) == fma_cost(parse_exprset(text))


def test_factorized_graph_costs_and_complex_blocks():
    diamonds = "".join(
        f"e e{k} {a} {b} x{k}\n"
        for k, (a, b) in enumerate([("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")])
    )
    g = checker.parse_graph(diamonds)
    assert checker.graph_mults(g) == 2  # x0*x2 + x1*x3
    fig4b = checker.parse_graph(inputs.fixture_text("fig4b"))
    assert checker.graph_mults(fig4b) is None  # a complex block


def test_parser_handles_deep_inputs():
    deep = "(" * 3000 + "a" + ")" * 3000
    assert checker.parse_expr(deep) == ("sym", "a")
    long = "*".join(f"c{k}" for k in range(5000))
    assert checker.count_mults(checker.parse_expr(long)) == 4999


def test_parser_rejects_malformed_text():
    for bad in ("a*", "(a", "a)", "a b", "+a"):
        try:
            checker.parse_expr(bad)
        except checker.CheckError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_random_values_are_seeded():
    labels = {"a", "b", "c"}
    assert checker.random_values(labels, 1) == checker.random_values(labels, 1)
    assert checker.random_values(labels, 1) != checker.random_values(labels, 2)
    assert all(2 <= x < checker.PRIME - 1 for x in checker.random_values(labels, 3).values())


def test_line_graph_shape():
    g = checker.parse_graph(FIG4A)
    # 8 edges; v2..v6 join in x out arcs, plus the root's 2 and terminal's 2
    labeled, arcs = checker.line_graph_shape(g)
    assert labeled == 8
    assert arcs == sum(len(g.pred[v]) * len(g.succ[v]) for v in g.vertices) + 2 + 2
