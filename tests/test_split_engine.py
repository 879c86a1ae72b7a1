"""The incremental split engine against the definitions it replaces.

After every split pass the engine's contracted view and levels must equal a
contraction and a level computation of that pass's graph from scratch; its
outputs must equal digests recorded from the rebuild-per-pass engine; and a
factorization must not rebuild or re-contract the graph once per pass.
"""
import hashlib
import json
import random
from collections import Counter

import pytest

from jacfact import factorize, structure
from jacfact.expr import ExprSet, fma_cost, format_exprset
from jacfact.factorize import (
    SplitGraph,
    _factorize,
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    plan_pages,
    transcript_json,
)
from jacfact.graph import DiffGraph, depth_levels, format_graph
from jacfact.relations import RelationError, safe_elimination_order
from jacfact.structure import contract

from conftest import dense_layered, random_layered_dag


def _view(cedges):
    return [
        (c.src, c.dst, c.kind, c.simple, c.direct, c.expr, c.vmembers, c.emembers)
        for c in sorted(cedges, key=lambda c: c.seq)
    ]


def _check_every_pass(g, direction, refs):
    work = SplitGraph(g, direction)
    prov = {}
    passes = 0
    while True:
        now = work.graph()
        assert _view(ce for at in work.by_src.values() for ce in at) == _view(contract(now, record=False).edges)
        levels, _ = depth_levels(now)
        # terminals keep no level in the engine
        assert work.level == {v: lv for v, lv in levels.items() if now.out_edges(v)}
        if not work.split(refs, prov):
            return passes
        passes += 1


def _differential_graphs():
    graphs = [
        (f"dag{seed}", random_layered_dag(random.Random(seed), 10 + seed % 21, 20 + seed % 21))
        for seed in range(40)
    ]
    graphs += [(f"dense{w}x{d}", dense_layered(w, d)) for w, d in ((2, 4), (2, 6), (3, 4))]
    return graphs


@pytest.mark.parametrize("mode", ["backward", "forward", "refs-backward", "refs-forward"])
def test_view_and_levels_match_a_rebuild_after_every_pass(mode):
    direction = mode.rpartition("-")[2]
    total = 0
    for _, g in _differential_graphs():
        refs = ExprSet() if mode.startswith("refs") else None
        total += _check_every_pass(g, direction, refs)
    assert total > 200  # the corpus really splits


def _order_text(s):
    try:
        return repr(safe_elimination_order(s))
    except RelationError as exc:
        return repr(exc)


def _outputs(g):
    """Every factorization output of `g` as text, per strategy."""
    out = {}
    for direction in ("backward", "forward"):
        fg, prov = _factorize(g, direction)
        out[direction] = format_graph(fg) + json.dumps(sorted(prov.items()))
    fg, s = factorize_with_refs(g)
    out["refs"] = format_graph(fg) + format_exprset(s) + f"cost {fma_cost(s)}\n"
    out["refs-order"] = _order_text(s)
    pages, s, transcript = plan_pages(g)
    out["pages"] = (
        format_exprset(s) + f"cost {fma_cost(s)}\n" + transcript_json(transcript)
        + "".join(format_graph(p.graph) for p in pages)
    )
    out["pages-order"] = _order_text(s)
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.items()}


def _golden_graphs():
    graphs = {f"dense{w}x{d}": dense_layered(w, d, seed=w * 10 + d) for w, d in ((2, 6), (3, 4), (4, 4))}
    for seed in (101, 103, 105, 106, 110):  # seeds whose graphs need splits
        graphs[f"dag{seed}"] = random_layered_dag(random.Random(seed), 25, 40)
    return graphs


# Recorded from the engine that rebuilt and re-contracted the whole graph on
# every split pass.
GOLDEN = {
    'dag101': {
        'backward': '7874f0d113a3b2067fe92ae209ce7d3856ed6693c0dfd5c9ab534fd82f66d16d',
        'forward': '5e5001ac1c580fffa31594b8d3814d72cb7a187f93cc0e81573a6ae3866484f1',
        'refs': 'cf2fa96c7fb4ea4fc30e16f94bfde85d965f29276610036a98496e40db2d12e1',
        'refs-order': '5fed3354d46f233a480be4ea70b02bcd659d8cc56bc7add3252eabaee4acabd5',
        'pages': '2b5499b96e83ac3b17dfc8791085833131a702832dee17daaebf9c3915dd6bac',
        'pages-order': 'da24de9e7a05fbbf0453135a9fe53a4575b63564b0f6a57ffad2069398d5d548',
    },
    'dag103': {
        'backward': '203d3a845f765109c179d8f7cbea6f8c39f294f04e8b41b7de44e7b4d1d2276c',
        'forward': '6951e5f49adc9707133ea69f09b090b4958a813971677844fc2581b13ffcee2e',
        'refs': '9143446dd39bdb9808dbc1b8a432a7bc7b9855cc77feaa4f3515aa215fd7bc6d',
        'refs-order': '42ddb2805c549e05b3e067cd02ffa0cd96ae67f85f657bf8d0364f10272ae6aa',
        'pages': '9873b8883322d39b46cc5b57e988638d818f2b45749c2c5223ec0fb089ec4852',
        'pages-order': '15e3ddd4e7e44702cf42a85a700bf88be27ebc57b95d7c1c6b7b5b3478493fc0',
    },
    'dag105': {
        'backward': 'f9832a1630403d45158b504e71258110b43e943a0cbd58382c1670a4316c9ab5',
        'forward': 'ab9edfe959fee385df86acf7e86f244fdd6499b515071516c6514ba9f43f0944',
        'refs': 'b3ac759207b16dcb69260c9212c2a1b65ad1c4ebecae079a7b18182d9fa94fbb',
        'refs-order': '3fb8a693e63e0f4edbea02bc68ffb9c1c6f0d2d79c691d09a4cc060453acba62',
        'pages': '324da8fa1a288c3f976121f40e83f0f4a14dbaf7f9f1cd580c6490f04256b7fc',
        'pages-order': '2dbdd595bba2d7ae52d889b4f6bcdbcea33c5bc19f7fb854c43a3f94b7d85d29',
    },
    'dag106': {
        'backward': '902a0ca11542986b0df4eef723efe7fba97f8f3b5b864dd2b8b5b963ec44d53d',
        'forward': '45f905a8c2a836a8fc9fb208f23703c1efc44cd4fa5ffd5f06fe3d17f81e0ebc',
        'refs': 'e71584ac8a8944a8ca81b4ae604e0e556d44596a1ea90790f3dec306d6d1a0d0',
        'refs-order': '6382a3561964a03a0577f379cb72ae6648fd399af6dde643054c23fc1ec1da06',
        'pages': 'e06c9edad222b17bdbf739a252e24f390036d1d202774be3129e85aed3ed5b90',
        'pages-order': '8a47425e916f1d0c2187e6e43710622f47039b1220f7ef6ba8b9dd2aa186cd22',
    },
    'dag110': {
        'backward': '073bb6276de57522fb6957ce38692cb5ec36b5971101e67ca05b11ea4a220cdd',
        'forward': 'bbfdac13ead1f9f6db51d500305c6466d57ab5ccd07cfa6da198638a65c033f6',
        'refs': '812ef0fb9bbeb5ff347f4520f31d9be4c22e6b9a06246cf28945f13eb4baf776',
        'refs-order': '2b915b3a98680d8740347955be60820d5d1ca2572d0c397da5eb04456eb1d9c0',
        'pages': '7d93e8d3c234a1a0ce814f42cd53d245b222fe6efa7d591b6120e0d659b5f90c',
        'pages-order': 'd187fdd6771e3b0111afc6939de2f59e33e051b10290dd85c35aa32e8c59c7f3',
    },
    'dense2x6': {
        'backward': '6e9c623a935d544e4a191de3585e69d8177877d8c4149256be2b887dd27323d3',
        'forward': '13b1e4f1ec9b0cbcdd44e6e73f9f9ff7735c17882777c0c895a0db9223134d72',
        'refs': '16acc2adce99875598c3b0b706b1462a78c95952247960e26562162a91ef1d3d',
        'refs-order': '5c48db7c66dd24e3abc2331f58c0692956ad5bad76e3a4c95a4b31908d1d6c1e',
        'pages': 'edc51c6b7bf4ec4bb8a18b70fd9436d687e5d9e9ff69017c279575d1faa75261',
        'pages-order': 'a56fb4c16b775d4de99b6ae357c15665f9347c6afccd585b98a8a376c2d116b7',
    },
    'dense3x4': {
        'backward': '09616ebad143586216dfb956e12b5b3781e9bf2792d7fc07690ee91d64fc3599',
        'forward': '511a8128738f7c57b65cd9b1388e24ac09bda4b9f6c13fa990131d1cabefa313',
        'refs': '356a8e55eebc028a37bd60568668b9990463b096ed7fe540efa9479c2f13f1d7',
        'refs-order': 'cdca3a9568e23c03b89712c1fc40d92b5f7bd7737a7be5d0b4eba058d20787e4',
        'pages': '2c16cf1bcaedb7f40269e5ae9544a163b61f68d8c8c9f520dc10b410c268ab47',
        'pages-order': 'c9dff57d5401d7b6ba17e0a4c9ec23e07258022c168554aa6334100bd82d984d',
    },
    'dense4x4': {
        'backward': '5b9d5131e13c842ade3ada8e9f0b02f9ef3108406e3a257c96ca39d531db89dc',
        'forward': '7029cf081f7f0b78efc23f8c947db4c341cf4048dab8071b7aa49f93c9127a8d',
        'refs': '3a8b456e619dcf320fa8a15c4e67f7d7c932dee119dee505f4f458a8c01c8348',
        'refs-order': '728a9588a9b9277ff54f67e7d923bcd089e15a094ff6abdd92f82b17f03123f0',
        'pages': '63571ebe506fdcc28cb1ff90a7fa6185fefb2ab7127f4c61672de8ffdfb47fae',
        'pages-order': '7291de19acf659147acfa23d3f4d890c37c0fdc248ef11f2ecd77e153849e061',
    },
}



@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_rebuild_engine(name):
    assert _outputs(_golden_graphs()[name]) == GOLDEN[name]


def _counting(monkeypatch):
    counts = Counter()
    build = DiffGraph.__init__
    full = structure.contract
    split = SplitGraph.split

    def counted_build(self, *args, **kwargs):
        counts["graphs"] += 1
        build(self, *args, **kwargs)

    def counted_contract(*args, **kwargs):
        counts["contracts"] += 1
        return full(*args, **kwargs)

    def counted_split(self, *args):
        counts["passes"] += 1
        return split(self, *args)

    monkeypatch.setattr(DiffGraph, "__init__", counted_build)
    monkeypatch.setattr(structure, "contract", counted_contract)
    monkeypatch.setattr(factorize, "contract", counted_contract)
    monkeypatch.setattr(SplitGraph, "split", counted_split)
    return counts


@pytest.mark.parametrize(
    "run", [factorize_backward, factorize_forward, factorize_with_refs],
    ids=["backward", "forward", "refs"],
)
def test_rebuilds_do_not_grow_with_passes(monkeypatch, run):
    small, large = dense_layered(2, 4), dense_layered(2, 8)
    counts = _counting(monkeypatch)
    seen = []
    for g in (small, large):
        counts.clear()
        run(g)
        seen.append(dict(counts))
    assert seen[1]["passes"] > 10 * seen[0]["passes"]
    rebuilds = [(c["graphs"], c["contracts"]) for c in seen]
    assert rebuilds[0] == rebuilds[1]
    if run is not factorize_with_refs:
        # one contraction up front, one graph at the end
        assert rebuilds[0] == (1, 1)
