"""The known planner defects, kept as a ledger of data.

Refs, pages and the level chain each plan every graph of a fixed corpus:
400 seeded layered DAGs, `random_layered_dag(Random(1000*band+i),
band, int(1.8*band))` for band 9, 15, 25 and 40 and i < 100, plus every
graph fixture.  Each plan is verified against its graph with
`check_equiv(trials=20)`, then replayed on the line graph through its safe
elimination order, and the replay's multiplication count is compared with
the plan's `fma_cost`.

`known_defects.json` lists every failing (graph, strategy) with the kind of
its failure, and each strategy's total `fma_cost` over the plans that
verify.  A test fails when a failure appears that the ledger does not list,
when a listed failure passes (the fix deletes its entry), or when a total
rises.  To rewrite the ledger from the code as it is:

    PYTHONPATH=src python tests/test_known_defects.py
"""
import json
import random
from pathlib import Path

import pytest

from jacfact.expr import fma_cost
from jacfact.factorize import plan
from jacfact.linegraph import build_line_graph, readout_jacobian, run_elimination, trace_mult_count
from jacfact.oracle import check_equiv
from jacfact.relations import safe_elimination_order

from conftest import FIXTURES, load_graph, random_layered_dag

LEDGER = Path(__file__).resolve().parent / "known_defects.json"
STRATEGIES = ("refs", "pages", "chain")
# message stems that name a kind of failure; the faces and labels after them vary
STEMS = ("no vertex labeled", "not present", "intermediate faces remain", "entry supports differ")


def _corpus():
    for band in (9, 15, 25, 40):
        for i in range(100):
            yield f"b{band}.{i}", random_layered_dag(random.Random(1000 * band + i), band, int(1.8 * band))
    for path in sorted(FIXTURES.glob("*.graph")):
        yield path.stem, load_graph(path.stem)


def _kind(exc):
    text = str(exc)
    stem = next((s for s in STEMS if s in text), text)
    return f"{type(exc).__name__}: {stem}"


def _failure(g, strategy):
    """The kind of the plan's failure and its cost if it verifies."""
    try:
        s = plan(g, strategy).exprset
        if not check_equiv(g, s, trials=20).ok:
            return "wrong value", None
    except ValueError as exc:
        return _kind(exc), None
    cost = fma_cost(s)
    try:
        lg = build_line_graph(g)
        trace = run_elimination(lg, safe_elimination_order(s), defs=s.def_map)
        readout_jacobian(lg)
    except ValueError as exc:
        return _kind(exc), cost
    count = trace_mult_count(trace)
    return (None if count == cost else f"replay counts {count}"), cost


def observe(strategy):
    """{graph: kind} of the failing plans, and the total cost of those that verify."""
    failures, total = {}, 0
    for name, g in _corpus():
        kind, cost = _failure(g, strategy)
        if kind is not None:
            failures[name] = kind
        total += cost or 0
    return failures, total


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failures_and_costs_match_the_known_defect_ledger(strategy):
    ledger = json.loads(LEDGER.read_text())
    listed, bound = ledger["failures"][strategy], ledger["totals"][strategy]
    failures, total = observe(strategy)
    unlisted = {name: kind for name, kind in failures.items() if listed.get(name) != kind}
    assert unlisted == {}, "failures the ledger does not list"
    assert sorted(set(listed) - set(failures)) == [], "listed failures that pass: delete their entries"
    assert total <= bound, f"the total fma_cost of the {strategy} plans that verify rose"


if __name__ == "__main__":
    seen = {strategy: observe(strategy) for strategy in STRATEGIES}
    LEDGER.write_text(json.dumps({
        "failures": {strategy: f for strategy, (f, _) in seen.items()},
        "totals": {strategy: t for strategy, (_, t) in seen.items()},
    }, indent=1, sort_keys=True) + "\n")
