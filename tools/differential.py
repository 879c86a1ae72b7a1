"""One sha256 over the planners' outputs on a fixed corpus, to show that a
change leaves every output byte-identical.

    python3 tools/differential.py [CHECKOUT]

Run it on the parent's and the change's checkouts (`git archive` exports,
say; the default is this one) and compare the two lines it prints.  Only
the library, `src/`, comes from CHECKOUT; the corpus comes from the tool's
own tree, so both sides hash the same graphs.  The corpus is 508 graphs:
`tests/conftest.random_layered_dag(Random(1000*band+i), band, int(1.8*band))`
for band 9, 15, 25 and 40 and i < 100, then every `pages` input of
`perfbench` `mixed-corpus` and `dense-layered` at seeds 1-3 except the
1500-edge chain.  Per graph the hash takes:

- the backward and forward graphs, each with its `plan()` set (one
  `region_expr` per connected pair) and that set's cost;
- the refs graph and set, and the pages set, transcript and page graphs;
- the level chain: each local Jacobian's `dump()`, the DP's tree and cost,
  and the accumulated set;
- the `find_structures` records;
- for the refs, pages and chain sets, the replay through the safe order:
  its multiplication count and readout;
- the text of any error raised in place of an output.
"""
import hashlib
import json
import random
import sys
from pathlib import Path

here = Path(__file__).resolve().parent.parent
root = Path(sys.argv[1]) if len(sys.argv) > 1 else here
sys.path[:0] = [str(root / "src"), str(here / "tests"), str(here / "perfbench")]

import inputs  # perfbench/inputs.py
from conftest import random_layered_dag
from jacfact.expr import fma_cost, format_expr, format_exprset
from jacfact.factorize import plan
from jacfact.graph import format_graph, parse_graph
from jacfact.linegraph import build_line_graph, readout_jacobian, run_elimination, trace_mult_count
from jacfact.localjac import accumulate, best_accumulation_order, level_chain
from jacfact.pages import transcript_json
from jacfact.recognize import find_structures
from jacfact.relations import safe_elimination_order


def corpus():
    for band in (9, 15, 25, 40):
        for i in range(100):
            yield f"b{band}.{i}", random_layered_dag(random.Random(1000 * band + i), band, int(1.8 * band))
    for seed in (1, 2, 3):
        for ops in (inputs.mixed_corpus(seed), inputs.dense_corpus(seed)):
            seen = set()
            for op in ops:
                if op.strategy == "pages" and not op.graph.startswith("chain") and op.graph not in seen:
                    seen.add(op.graph)
                    yield f"s{seed}.{op.graph}", parse_graph(op.text)


def costed(s):
    return f"{format_exprset(s)}cost {fma_cost(s)}"


def factorized(strategy):
    """A backward or forward step: the graph, costed as its plan's set."""
    def step(g):
        p = plan(g, strategy)
        return format_graph(p.graph) + "\n" + costed(p.exprset), None
    return step


def refs(g):
    p = plan(g, "refs")
    return format_graph(p.graph) + "\n" + format_exprset(p.exprset), p.exprset


def pages(g):
    p = plan(g, "pages")
    graphs = [f"page {q.pid}\n{format_graph(q.graph)}" for q in p.pages]
    return "\n".join([format_exprset(p.exprset), transcript_json(p.transcript), *graphs]), p.exprset


def chain(g):
    jacobians = level_chain(g)
    tree, cost = best_accumulation_order(jacobians, bound=len(jacobians))
    s, _ = accumulate(jacobians, tree)
    return "".join(j.dump() for j in jacobians) + f"{tree!r} dp {cost}\n" + costed(s), s


def replay(g, s):
    lg = build_line_graph(g)
    trace = run_elimination(lg, safe_elimination_order(s), defs=s.def_map)
    readout = sorted(readout_jacobian(lg).items())
    return f"count {trace_mult_count(trace)}\n" + "".join(
        f"J[{y},{x}] = {format_expr(e)}\n" for (y, x), e in readout
    )


# each step gives its text and the expression set to replay, or None
STEPS = (
    ("backward", factorized("backward")),
    ("forward", factorized("forward")),
    ("refs", refs),
    ("pages", pages),
    ("chain", chain),
    ("structures", lambda g: (json.dumps([s.record() for s in find_structures(g)]), None)),
)


def error_text(exc):
    """An error's text, which is an output too."""
    return f"error {type(exc).__name__}: {exc}"


def main():
    h, n = hashlib.sha256(), 0
    for name, g in corpus():
        n += 1
        for step, run in STEPS:
            try:
                out, s = run(g)
            except Exception as exc:
                out, s = error_text(exc), None
            h.update(f"{name} {step}\n{out}\n".encode())
            if s is not None:
                try:
                    out = replay(g, s)
                except Exception as exc:
                    out = error_text(exc)
                h.update(f"{name} {step} replay\n{out}\n".encode())
    print(f"{n} graphs {h.hexdigest()}")


if __name__ == "__main__":
    main()
