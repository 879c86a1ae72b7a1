"""One sha256 over the planners' outputs on a fixed corpus, to show that a
change leaves every output byte-identical.

    python3 tools/differential.py [CHECKOUT]

Run it on the parent's and the change's checkouts (`git archive` exports,
say; the default is this one) and compare the two lines it prints.  The
corpus is 508 graphs: `tests/conftest.random_layered_dag(Random(1000*band+i),
band, int(1.8*band))` for band 9, 15, 25 and 40 and i < 100, then every
`pages` input of `perfbench` `mixed-corpus` and `dense-layered` at seeds
1-3 except the 1500-edge chain.  Per graph the hash takes the backward and
forward graphs, the refs graph and set, the pages set, transcript and page
graphs, the `find_structures` records, and the text of any error raised.
"""
import hashlib
import json
import random
import sys
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]

import inputs  # perfbench/inputs.py
from conftest import random_layered_dag
from jacfact.expr import format_exprset
from jacfact.factorize import (
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    plan_pages,
    transcript_json,
)
from jacfact.graph import format_graph, parse_graph
from jacfact.structure import find_structures


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


def refs(g):
    out, s = factorize_with_refs(g)
    return format_graph(out) + "\n" + format_exprset(s)


def pages(g):
    done, s, transcript = plan_pages(g)
    graphs = [f"page {p.pid}\n{format_graph(p.graph)}" for p in done]
    return "\n".join([format_exprset(s), transcript_json(transcript), *graphs])


STEPS = (
    ("backward", lambda g: format_graph(factorize_backward(g))),
    ("forward", lambda g: format_graph(factorize_forward(g))),
    ("refs", refs),
    ("pages", pages),
    ("structures", lambda g: json.dumps([s.record() for s in find_structures(g)])),
)


def main():
    h, n = hashlib.sha256(), 0
    for name, g in corpus():
        n += 1
        for step, run in STEPS:
            try:
                out = run(g)
            except Exception as exc:  # an error's text is an output too
                out = f"error {type(exc).__name__}: {exc}"
            h.update(f"{name} {step}\n{out}\n".encode())
    print(f"{n} graphs {h.hexdigest()}")


if __name__ == "__main__":
    main()
