"""Byte-identity of the CLI and of the library's plans.

Each digest is the sha256 of a text that gathers one input's outputs: for a
fixture, the exit code, stdout and stderr of every subcommand run on it and
the files those runs write; for a seeded DAG, its factorized graphs, plan
texts, page transcripts, local Jacobians and the trace of replaying each
expression-set plan on the line graph.  A change that keeps every output
fixed keeps every digest.
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

from jacfact.cli import main
from jacfact.expr import fma_cost, format_expr, format_exprset
from jacfact.factorize import factorize_backward, factorize_forward, factorize_with_refs, plan_pages
from jacfact.graph import format_graph
from jacfact.linegraph import build_line_graph, readout_jacobian, run_elimination
from jacfact.localjac import accumulate, best_accumulation_order, extract_local_jacobian, level_chain
from jacfact.pages import transcript_json
from jacfact.relations import safe_elimination_order
from jacfact.structure import segment_cross_level

from conftest import FIXTURES, dense_layered, load_graph, random_layered_dag

GRAPH_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.graph"))
# each expression-set fixture with the graph it is an accumulation of
EXPRSET_GRAPH = {
    "cyclic8": "fig9a", "eq1": "fig4a", "eq2": "fig4a", "eq3": "fig4b",
    "eq4": "fig4b", "eq5": "fig4b", "hazard6": "hazard6", "order4": "order4",
    "sec5set": "fig9a", "unit3": "unit3",
}
# the CLI logs by name; a set named like a graph fixture goes by its file name
CLI_LOGS = GRAPH_FIXTURES + sorted(
    f"{name}.exprs" if name in GRAPH_FIXTURES else name for name in EXPRSET_GRAPH
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class _Session:
    """CLI runs in process, logged with the fixture and temporary directories
    written as placeholders so the log does not depend on where they are."""

    def __init__(self, capsys, tmp):
        self.capsys, self.tmp, self.log = capsys, tmp, []

    def _text(self, s):
        return str(s).replace(str(FIXTURES), "<fixtures>").replace(str(self.tmp), "<tmp>")

    def run(self, *args):
        code = main([str(a) for a in args])
        out, err = self.capsys.readouterr()
        self.log.append(f"$ {self._text(' '.join(map(str, args)))}\nexit {code}\n{out}--\n{self._text(err)}")
        return out

    def file(self, path):
        self.log.append(f"> {path.name}\n{path.read_text() if path.exists() else '(absent)'}")


def _graph_log(capsys, tmp, name):
    s = _Session(capsys, tmp)
    g = FIXTURES / f"{name}.graph"
    s.run("inspect", g)
    s.run("inspect", g, "--format", "json")
    s.run("dot", g)
    s.run("dot", g, "--line-graph")
    for direction in ("backward", "forward"):
        s.run("factorize", g, "--direction", direction, "--expr")
    for direction in ("refs", "pages"):
        plan, trace = tmp / f"{direction}.exprs", tmp / f"{direction}.trace"
        extra = ()
        if direction == "pages":
            extra = ("--transcript", tmp / "pages.jsonl", "--pages-out", tmp / "pages.graph")
        plan.write_text(s.run("factorize", g, "--direction", direction, *extra))
        s.run("verify", g, plan)
        s.run("verify", plan, g, "--format", "json", "--seed", "3")
        s.run("eliminate", g, "--from-exprset", plan, "--trace", trace)
        s.file(trace)
    s.file(tmp / "pages.jsonl")
    s.file(tmp / "pages.graph")
    return "\n".join(s.log)


def _exprset_log(capsys, tmp, name):
    s = _Session(capsys, tmp)
    e = FIXTURES / f"{name}.exprs"
    s.run("verify", e, e)
    s.run("verify", e, FIXTURES / f"{EXPRSET_GRAPH[name]}.graph", "--format", "json")
    s.run("dot", e)
    s.run("eliminate", FIXTURES / f"{EXPRSET_GRAPH[name]}.graph", "--from-exprset", e, "--trace", tmp / "t")
    s.file(tmp / "t")
    return "\n".join(s.log)


def _replay(g, s):
    try:
        order = safe_elimination_order(s)
        lg = build_line_graph(g)
        trace = run_elimination(lg, order, defs=s.def_map)
        lines = [json.dumps(step.record(), sort_keys=True) for step in trace]
        readout = readout_jacobian(lg)
        return lines + [f"J[{y},{x}] = {format_expr(e)}" for (y, x), e in sorted(readout.items())]
    except ValueError as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _plan(s):
    return [format_exprset(s), f"cost {fma_cost(s)}"]


def _jacobians(g):
    """The level chain of the segmented graph, accumulated and replayed,
    plus local Jacobians whose columns span two levels, so that a column
    on the next level is a vertex the regions to the level after avoid."""
    seg, chain = segment_cross_level(g), level_chain(g)
    rows = [j.rows for j in chain] + [chain[-1].cols]
    lines = [j.dump() for j in chain]
    for k in range(len(rows) - 2):
        lines.append(extract_local_jacobian(seg, rows[k], rows[k + 1] + rows[k + 2]).dump())
    tree, cost = best_accumulation_order(chain, bound=len(chain))
    s, acc_cost = accumulate(chain, tree)
    lines += [repr(tree), f"dp {cost} accumulate {acc_cost}", *_plan(s), *_replay(seg, s)]
    return lines


def _library_log(g):
    lines = [format_graph(factorize_backward(g)), format_graph(factorize_forward(g))]
    out, s = factorize_with_refs(g)
    lines += [format_graph(out), *_plan(s), *_replay(g, s)]
    pages, s, transcript = plan_pages(g)
    lines += [*_plan(s), transcript_json(transcript), *(format_graph(p.graph) for p in pages), *_replay(g, s)]
    return "\n".join(lines + _jacobians(g))


# seeds whose graphs have several roots, three levels or more, cross-level
# edges and 30 edges or more, plus those of the split engine's golden tests
DAG_SEEDS = (101, 103, 105, 106, 110, 207, 209, 211, 214, 219, 228, 233, 236, 241, 244,
             253, 263, 264, 268, 291, 307, 322, 328, 351, 362)


def _seeded_graphs():
    graphs = {f"dag{seed}": random_layered_dag(random.Random(seed), 25, 40) for seed in DAG_SEEDS}
    graphs.update((f"dense{w}x{d}", dense_layered(w, d, seed=7)) for w, d in ((2, 4), (3, 3), (3, 4)))
    graphs.update((name, load_graph(name)) for name in GRAPH_FIXTURES)
    return graphs


# Recorded when this test was added, from the code of that commit.
CLI_DIGESTS = {
    'cyclic8': 'b45f20db34ab7c8c17f8bfcdca15b51d9f0d618752076c989e8124db879eb259',
    'eq1': '5a2c6dcee2184002b75596b1bfbb086bbedc7e0dceb0588b75c82a14949b1ad3',
    'eq2': '4c7eadec4c3c64ef45519ce3d6ac32e7b0f9c7add21ce8d53fec7cf7b81b2dd8',
    'eq3': '913b519ce92c9be4bd968306b3071cba88ae33102c562a796bdf3ed8bb03f0cc',
    'eq4': '190d75af59c6abc2524cbfc8a31254b973c2cd9c7ae424b250a48f1f3d3d8cc2',
    'eq5': 'c85b1509c0a7f73f8982421d7208806a3b81ce62af34bfe73ec0bec944be6a28',
    'fig10a': 'ae51715781d20bb2b9387a3ef87d23aa9869ebe1cfcf412a9201dcbdfaeedccb',
    'fig1a': '3c0d2fe0f8c951e973b0c4bf9d5f71f15a96342d28ce9123c25b1a1cdbcd4d93',
    'fig4a': 'e82eb315fcc4656e50408162f2d93fcea1a79464ff9b9885f731949e872105d7',
    'fig4b': 'f8945fdefbc56ee03083308b4cee44c2bf55ccc10940f364380db43fab1d3786',
    'fig5a': '151e45c9a7f97f0d6301bcde779a3a09133b808b761346a88b918889bc80e9b0',
    'fig7a': '58b111774785104845027efe5035b1b5afa8509f1219ef99d9c03b7fa9193916',
    'fig9a': '78a82f294ac9fe9d82d04a5664b3f2a533faa560ccda269ff820aac9f72f78e9',
    'hazard6': '936dd0051c4f526a841eb53ae5b054a48ef74f8e5984705165facb3abde2a65d',
    'hazard6.exprs': '70ef38f22810c8ddf46eb9dee5b0c4ce95fc5fb909425c6069169d5b045af1ef',
    'order4': 'd6aaca6446b8ad202313b4c910b6dc04113ddd32360d2134b135deffacbdfb15',
    'order4.exprs': '11ed1c6291e097e13db20d100b21b11521d953b2f5092faeea331c39d741aa08',
    'sec5set': '78567a97411e479c52d8c650e40826c436f1f49774e251c6d927c50f282fc7b0',
    'unit3': '5978093aa3982929b32e31f9792ac52f9495d2d4cb1d6602d85efd3a5f4267e6',
    'unit3.exprs': 'dc2e4392385d03e112e203be2bdcf65d45f9776c6506e1d1e960ad03e0337e2c',
}

LIBRARY_DIGESTS = {
    'dag101': '6f2701edef8731428f447f1ec710944c045cd9dc56540fd46c2f06b05d79c483',
    'dag103': '40ad9747716364fd752f048e09acbbcd75d8b3d15a3fe8fd50a06cebde89f4ad',
    'dag105': 'e18ef5bc848f4af28f97c9c1398e77cde4919244a6eebda2fc91b2369a9468d2',
    'dag106': 'da41c5f57006601ad0e109806d8c60abd2e0a80a790b9ee217bc663e275e8810',
    'dag110': '26a7e08262ed3e309e6f955c9100773b59260de0935e8a904e93c405c3fe5a24',
    'dag207': 'd0ddad3df597b510120cdd1b2b608cfab412be647a46174f2f47cee7d30a2027',
    'dag209': '5d336a13edf457c8ba1230cfe5aafc9bfb1baad19a19389212c54963c11bf516',
    'dag211': '62011f980826d820418a926b0d2f23211c543162326defd5674f3c7f91fe2a59',
    'dag214': 'ed8187199257dfc62f16480bca3555916f6b76dc4a70ae23dcc0c46268cebe6e',
    'dag219': '0949a8b590f0717fa38d33756cfaecbd21ee463ef327cd29422ff310995fc882',
    'dag228': 'a37be992c5696331e1f198b0f2c2be33aaec9abfbd7d0a55a65fd9bb3e12fb06',
    'dag233': '6067542d2d17240574f0135a8faff28ef61a1fade367e0189c61104f35309fcc',
    'dag236': 'f48ae5d574a27de693dbe7f7c13eb50215b61c36475fe4142ba6ebd42861f467',
    'dag241': '1385ad0be7d786eb92369ede05700fca8f78f84c9458a79c5a704aa399b1d924',
    'dag244': '163f00042e37e5e4522100438a77e0a99f2a706a3b51fe06addab08f27698a2b',
    'dag253': '247d25f1626e345e740a928ea6fbba9b3dbbe2656bde85c0d25f792a4da8ce56',
    'dag263': 'ea63e8120299a33f95c6464b40b80dbcba0c4ee43b908c6251f774e4980ca862',
    'dag264': '8ea1114fde3e2af916ca3a322bca343368f9297647d51eae9009cdf41e1533d5',
    'dag268': 'cc59017f31c939e0d55d47033e2a821eaca2651cd5bfe825070b80574b5a98ca',
    'dag291': 'a9ea1baf8cebfc4738e5118227463b03dbddb744f621da7fbd4203336731a3f2',
    'dag307': '3eb5b2608a9f3b964181a909346d9df535d878b619a23e2cfb1d55f1545a52f9',
    'dag322': 'dbf98d0ec31bd6e15f12c5f988796aa0179a89c141814608cdfdfb0a30290ddf',
    'dag328': '342315ad5018ef39dea86f58100ef363897b13865a8110e662f94caba7630d1c',
    'dag351': 'b4e3a2a254e5f0286513faf259dae5902b7fd6083e1c86b02213708f466bf9ec',
    'dag362': 'c50f1195d2ff7b2aecacc973c9ea25325e7a48f9ec8eb4a76bcc0c5db230eed4',
    'dense2x4': '96d32e99f495c97387d87a107c36243248710a709b782e3c83b736cfc75c7765',
    'dense3x3': '16a46ef0a64cbf5d90c847839ca18f899bdc7f45908f1eff0ff46dc09f12b9a0',
    'dense3x4': '3a9c6eb3c4c496233ae95b41f9ff7d3a962795e0346fbd8eb0d35fafdb270c8f',
    'fig10a': '0d556b76b44593b778557a4301dff84aecfc29e9dacf041c33b602145b0fdbca',
    'fig1a': 'a5b4a8d22c0a17dba35c70e0f1d628a236de33c13b7653f02d3eca204e3f63e0',
    'fig4a': '4e96880d4f3cf8b1d221012199fcdbb1629676da31e11f96c2aa3ec5098aef38',
    'fig4b': '883bc62229c04d42381e407c530677157ad833eb9327a54752d0ef761965d6fe',
    'fig5a': 'b2866ece267862914d91e5231c999f6afb91601aba014acdbdc804d950d18618',
    'fig7a': '543dcc5d2ebb56f371eaa8ec44bf2fd4e94df58503e7594ea50ad96443f7ad3c',
    'fig9a': '67d46c91d78704fa8372e6fa19cce0a3697cb844ccdd3259c4432ae3811fcd4c',
    'hazard6': '5a67ec56b66c1536539543c41ef9aed5a1039196e5fc9778227541e59e85a3ac',
    'order4': 'b0942f4d10a84647783176d4815131b79ba29fcb0e4fa2f0574ae2256b5bc87a',
    'unit3': '7070ac14ff15f17fc76a879b695c2bd5859d7e2ce20634c499ec9c761c5aede6',
}


@pytest.mark.parametrize("name", CLI_LOGS)
def test_cli_outputs_match_recorded_digest(capsys, tmp_path, name):
    log = _graph_log if name in GRAPH_FIXTURES else _exprset_log
    assert _digest(log(capsys, tmp_path, name.removesuffix(".exprs"))) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_seeded_graphs()))
def test_library_outputs_match_recorded_digest(name):
    assert _digest(_library_log(_seeded_graphs()[name])) == LIBRARY_DIGESTS[name]

