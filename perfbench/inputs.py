"""Seeded input generators and the per-workload input record.

Every graph generator takes a `random.Random` and returns graph text in the
library's `e <id> <src> <dst> <label>` format, so the program under test
only ever sees generated text.  The same seed gives the same text.

Structure that decides how much work an op does (dense shapes, diamond
counts, the long chain, the sizes of the random DAGs) is fixed per
workload; the seed draws the random DAGs at those sizes, the label names
and the random elimination orders.  That keeps the work per run comparable
across seeds while the inputs still differ.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

STRATEGIES = ("backward", "forward", "refs", "pages", "chain")
EXPRSET_STRATEGIES = ("refs", "pages", "chain")

# (width, local Jacobians): narrow-deep shapes, then square ones.  The
# cheap 2x4 and 3x3 keep the median op inside a cluster of similar op
# times; with the other shapes alone it falls in the gap between light and
# heavy ops, and moves across it with the seed's random elimination orders.
DENSE_SHAPES = ((2, 4), (2, 6), (2, 8), (3, 5), (3, 3), (3, 4), (4, 4))
DIAMOND_COUNTS = (4, 5, 6, 7, 8)
LONG_CHAIN_EDGES = 1500
# Vertex counts of the random layered DAGs, evenly over 10..40.  Every
# corpus holds one DAG of each size, so seeds change the DAGs but not how
# much work they make.
DAG_SIZES = tuple(10 + round(30 * k / 23) for k in range(24))

CLI_FIXTURES = ("fig10a", "fig1a", "fig4a", "fig4b", "fig5a", "fig7a", "fig9a")
CLI_EXTRA = (("eliminate", "fig4a", "eq1"), ("eliminate", "fig4b", "eq5"), ("verify", "fig4b", "eq3"))


@dataclass
class Op:
    """One timed unit of work: a (graph, strategy) pipeline or a CLI run."""

    graph: str  # name of the input graph
    strategy: str  # a strategy, "eliminate-random" or "cli:<command>"
    text: str  # input graph text
    arg: object = None  # elimination seed, or CLI argv
    exprs: str = None  # expression-set text a CLI op reads


WHY = {
    "cli-fixtures": (
        "every op is a fresh `python -m jacfact.cli` process, so interpreter "
        "start-up and import are paid per op"
    ),
    "mixed-corpus": (
        "typical batch traffic: random multi-root DAGs, diamond chains and one "
        "1500-edge chain through all five strategies; oracle-bound"
    ),
    "dense-layered": (
        "dense w x L layered graphs: factorize split passes, line-graph replay "
        "and the widest plan-quality gap"
    ),
}


def _labels(rng, n, prefix):
    """n distinct label names, shuffled by the seed."""
    names = [f"{prefix}{k}" for k in range(1, n + 1)]
    rng.shuffle(names)
    return names


def _text(edges, labels):
    return "".join(
        f"e e{k} {src} {dst} {lab}\n"
        for k, ((src, dst), lab) in enumerate(zip(edges, labels), start=1)
    )


def dense_layered(rng, width, depth):
    """`depth` dense width x width local Jacobians stacked level by level."""
    edges = [
        (f"v{lv}_{i}", f"v{lv + 1}_{j}")
        for lv in range(depth)
        for i in range(width)
        for j in range(width)
    ]
    return _text(edges, _labels(rng, len(edges), "a"))


def diamond_chain(rng, count):
    """`count` diamonds in series: 2**count paths between the ends."""
    edges = []
    for d in range(count):
        top, bottom = f"c{d}", f"c{d + 1}"
        for side in ("l", "r"):
            mid = f"m{d}{side}"
            edges += [(top, mid), (mid, bottom)]
    return _text(edges, _labels(rng, len(edges), "d"))


def plain_chain(rng, length):
    edges = [(f"p{k}", f"p{k + 1}") for k in range(length)]
    return _text(edges, _labels(rng, len(edges), "c"))


def random_layered_dag(rng, n):
    """Layered DAG with n vertices, several roots and terminals and
    cross-level edges.

    Every non-root vertex gets an in-edge from the level above and every
    non-terminal vertex an out-edge to the level below; extra edges join a
    vertex to one or two levels down.  Draws are repeated until the graph
    has between n and 1.75 n root-terminal paths, the middle half of what
    this generator draws at n vertices, because the oracle's cost grows with
    the path count and one outlier would swing a whole run.
    """
    while True:
        text = _layered_dag(rng, n)
        if n <= sum(checker.path_sum(checker.parse_graph(text)).values()) <= 1.75 * n:
            return text


def _layered_dag(rng, total):
    n_levels = rng.randint(3, 5)
    sizes = [2] + [1] * (n_levels - 2) + [2]
    for _ in range(total - sum(sizes)):
        sizes[rng.randrange(n_levels)] += 1
    levels, n = [], 0
    for size in sizes:
        levels.append([f"n{n + i}" for i in range(size)])
        n += size
    pairs = set()
    for lv in range(1, n_levels):
        for v in levels[lv]:
            pairs.add((rng.choice(levels[lv - 1]), v))
    for lv in range(n_levels - 1):
        for v in levels[lv]:
            if not any(src == v for src, _ in pairs):
                pairs.add((v, rng.choice(levels[lv + 1])))
    for _ in range(total // 3):
        lv = rng.randrange(n_levels - 1)
        down = min(n_levels - 1, lv + rng.choice((1, 1, 2)))
        pairs.add((rng.choice(levels[lv]), rng.choice(levels[down])))
    edges = sorted(pairs)
    return _text(edges, _labels(rng, len(edges), "g"))


def mixed_corpus(seed):
    """[Op] for the mixed-corpus workload: every graph through all strategies."""
    rng = random.Random(f"mixed-corpus:{seed}")
    graphs = []
    for k, n in enumerate(DAG_SIZES):
        graphs.append((f"dag{k}.v{n}", random_layered_dag(rng, n)))
    for count in DIAMOND_COUNTS:
        graphs.append((f"diamonds{count}", diamond_chain(rng, count)))
    graphs.append((f"chain{LONG_CHAIN_EDGES}", plain_chain(rng, LONG_CHAIN_EDGES)))
    return _run_order([Op(name, s, text) for name, text in graphs for s in STRATEGIES], rng)


def dense_corpus(seed):
    """[Op] for the dense-layered workload: every strategy plus one seeded
    random total face elimination per shape."""
    rng = random.Random(f"dense-layered:{seed}")
    ops = []
    for w, depth in DENSE_SHAPES:
        name, text = f"dense{w}x{depth}", dense_layered(rng, w, depth)
        ops += [Op(name, s, text) for s in STRATEGIES]
        ops.append(Op(name, "eliminate-random", text, rng.randrange(2**32)))
    return _run_order(ops, rng)


def _run_order(ops, rng):
    """Ops in a seeded random order.  Ops of one kind then spread over the
    whole run instead of sharing one stretch of it, so a slow spell of the
    machine moves the median and the tail less."""
    rng.shuffle(ops)
    return ops


def cli_corpus(seed):
    """[Op] for the cli-fixtures workload, in run order.

    The fixtures are shipped, so the seed only changes the op order.
    """
    ops = []
    for name in CLI_FIXTURES:
        text = fixture_text(name)
        path = str(FIXTURES / f"{name}.graph")
        ops.append(Op(name, "cli:inspect", text, ["inspect", path]))
        for direction in ("backward", "forward", "refs", "pages"):
            argv = ["factorize", path, "--direction", direction]
            ops.append(Op(name, f"cli:{direction}", text, argv))
        ops.append(Op(name, "cli:dot", text, ["dot", path, "--line-graph"]))
    for cmd, name, exprs in CLI_EXTRA:
        path = str(FIXTURES / f"{name}.graph")
        exprs_path = str(FIXTURES / f"{exprs}.exprs")
        argv = [cmd, path, "--from-exprset", exprs_path] if cmd == "eliminate" else [cmd, path, exprs_path]
        ops.append(Op(name, f"cli:{cmd}", fixture_text(name), argv, fixture_text(exprs, "exprs")))
    return _run_order(ops, random.Random(f"cli-fixtures:{seed}"))


# ---------------------------------------------------------------------------
# input record


def _span(values):
    return [min(values), max(values)] if values else None


def graph_facts(text):
    """Shape facts of one graph, computed by the checker's own parser."""
    g = checker.parse_graph(text)
    levels = checker.depth_levels(g)
    roots, terminals = g.roots(), g.terminals()
    paths = checker.path_sum(g)
    return {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "paths": sum(paths.values()),
        "multi_root_or_terminal": len(roots) > 1 or len(terminals) > 1,
        "cross_level": any(levels[d] - levels[s] > 1 for _, s, d, _ in g.edges),
        "complex_block": checker.graph_mults(g) is None,
    }


def input_record(workload, texts):
    """Ranges and property shares over a workload's graphs."""
    facts = [graph_facts(t) for t in texts]
    n = len(facts)
    return {
        "why": WHY[workload],
        "graphs": n,
        "vertices": _span([f["vertices"] for f in facts]),
        "edges": _span([f["edges"] for f in facts]),
        "paths": _span([f["paths"] for f in facts]),
        "share_complex_block": sum(f["complex_block"] for f in facts) / n,
        "share_multi_root_or_terminal": sum(f["multi_root_or_terminal"] for f in facts) / n,
        "share_cross_level": sum(f["cross_level"] for f in facts) / n,
    }


def fixture_text(name, ext="graph"):
    return (FIXTURES / f"{name}.{ext}").read_text()
