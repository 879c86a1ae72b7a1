"""Seeded generators and the per-workload input record."""
import checker
import inputs

GENERATORS = (inputs.mixed_corpus, inputs.dense_corpus, inputs.cli_corpus)


def texts(ops):
    return [(op.graph, op.strategy, op.text, op.arg) for op in ops]


def test_same_seed_same_inputs():
    for gen in GENERATORS:
        assert texts(gen(3)) == texts(gen(3))


def test_other_seed_other_inputs():
    for gen in (inputs.mixed_corpus, inputs.dense_corpus):
        a, b = gen(3), gen(4)
        assert [op.text for op in a] != [op.text for op in b]
    # the fixtures are shipped, so only their order depends on the seed
    orders = {tuple(op.strategy + op.graph for op in inputs.cli_corpus(s)) for s in range(2)}
    assert len(orders) == 2


def test_work_per_run_is_fixed():
    """Seeds change labels, random DAGs and the op order, never which ops
    a run holds."""
    for gen in GENERATORS:
        shapes = {tuple(sorted((op.graph, op.strategy) for op in gen(s))) for s in range(4)}
        assert len(shapes) == 1


def test_dense_shapes():
    for op in inputs.dense_corpus(1):
        g = checker.parse_graph(op.text)
        w, depth = (int(x) for x in op.graph.removeprefix("dense").split("x"))
        assert len(g.edges) == w * w * depth
        assert len(g.roots()) == w and len(g.terminals()) == w


def test_random_dags_in_band():
    for op in inputs.mixed_corpus(5):
        if not op.graph.startswith("dag"):
            continue
        n = int(op.graph.split(".v")[1])
        g = checker.parse_graph(op.text)
        assert len(g.vertices) == n
        assert n <= sum(checker.path_sum(g).values()) <= 1.75 * n
        assert len(g.roots()) >= 2 and len(g.terminals()) >= 2


def test_input_record():
    ops = inputs.mixed_corpus(1)
    graph_texts = list({op.graph: op.text for op in ops}.values())
    rec = inputs.input_record("mixed-corpus", graph_texts)
    assert rec["graphs"] == len(graph_texts)
    assert rec["edges"][1] == inputs.LONG_CHAIN_EDGES
    assert rec["paths"][1] >= 2 ** max(inputs.DIAMOND_COUNTS)
    for key in ("share_complex_block", "share_multi_root_or_terminal", "share_cross_level"):
        assert 0 < rec[key] < 1
    assert rec["why"]
