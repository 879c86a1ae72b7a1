"""The incremental split engine against the definitions it replaces.

After every split pass the engine's contracted view and levels must equal a
contraction and a level computation of that pass's graph from scratch; its
outputs must equal digests recorded from the rebuild-per-pass engine; a
factorization must not rebuild or re-contract the graph once per pass; and a
pass that names nothing must look up no atom and level only what it made.
"""
import hashlib
import random
from collections import Counter

import pytest

from jacfact import factorize, recognize, structure
from jacfact.expr import ExprSet, Sym, expand_expr, fma_cost, format_exprset
from jacfact.factorize import (
    SplitGraph,
    _factorize,
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    plan_pages,
)
from jacfact.graph import DiffGraph, depth_levels, format_graph, parse_graph
from jacfact.pages import transcript_json
from jacfact.relations import RelationError, safe_elimination_order
from jacfact.structure import contract

from conftest import dense_layered, parts_faults, random_layered_dag


def _view(cedges):
    return [
        (c.src, c.dst, c.kind, c.expr is not None, recognize._direct(c), c.expr, c.emembers)
        for c in sorted(cedges, key=lambda c: c.seq)
    ]


def _check_every_pass(g, refs):
    work = SplitGraph(g)
    passes = 0
    while True:
        now = work.graph()
        assert _view(ce for at in work.by_src.values() for ce in at) == _view(contract(now).edges)
        assert parts_faults(work.view.live, now) == []
        levels, _ = depth_levels(now)
        # the engine keeps levels of the view's vertices with an out-CEdge
        # only: terminals and the inner vertices of a structure go without
        assert work.level == {v: levels[v] for v in work.by_src}
        if not work.split(refs):
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
    # forward factorization runs the engine on the reversed graph
    forward = mode.endswith("forward")
    total = 0
    for _, g in _differential_graphs():
        refs = ExprSet() if mode.startswith("refs") else None
        total += _check_every_pass(g.reversed() if forward else g, refs)
    assert total > 200  # the corpus really splits


# v carries the block v->a->d | v->d of length 2 to d; a ref-mode pass names
# it as one edge, so the longest root path to d drops to 2
LOWERED = "\n".join([
    "e e1 r1 v", "e e2 r2 v", "e e3 v a", "e e4 a d", "e e5 v d", "e e6 d t1", "e e7 d t2",
])


def test_a_ref_pass_lowers_a_level():
    work = SplitGraph(parse_graph(LOWERED))
    assert work.level["d"] == 3
    assert work.split(ExprSet())
    levels, _ = depth_levels(work.graph())
    assert work.level["d"] == levels["d"] == 2
    assert work.level == {v: levels[v] for v in work.level}


def _order_text(s):
    """The order's faces with every operand expanded, so an order that
    spells operands with the set's names hashes as its values."""
    try:
        order = safe_elimination_order(s)
    except RelationError as exc:
        return repr(exc)
    dm, memo = s.def_map, {}
    return repr([tuple(expand_expr(x, dm, memo) for x in face) for face in order])


def _outputs(g):
    """Every factorization output of `g` as text, per strategy."""
    out = {}
    out["backward"] = format_graph(_factorize(g))
    out["forward"] = format_graph(factorize_forward(g))
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
# every split pass; the backward and forward digests hash the graph text
# alone, re-recorded from the incremental engine when they stopped hashing
# the map from copies to original vertices.  dag106's forward digest was
# re-recorded when forward became backward on the reversed graph, which
# lists the same edges in another order.
GOLDEN = {
    'dag101': {
        'backward': 'a287380b8966f039e9bec989e8ef96e05ecabca8d3f3f55a2407b06416fe29e2',
        'forward': '00cc0645f0699ad1ffea241a570489d696080401dc65262221aa82032096c82e',
        'refs': 'cf2fa96c7fb4ea4fc30e16f94bfde85d965f29276610036a98496e40db2d12e1',
        'refs-order': '5fed3354d46f233a480be4ea70b02bcd659d8cc56bc7add3252eabaee4acabd5',
        'pages': '2b5499b96e83ac3b17dfc8791085833131a702832dee17daaebf9c3915dd6bac',
        'pages-order': 'da24de9e7a05fbbf0453135a9fe53a4575b63564b0f6a57ffad2069398d5d548',
    },
    'dag103': {
        'backward': '2ae8ead71e06b428ea72926a8d96da2c2ad87423151067d759e5e3d659ca67c7',
        'forward': '8cbc390e3600f2c09871ff195946956e4be1c9467f0fe57f7ecdac89cab9a476',
        'refs': '9143446dd39bdb9808dbc1b8a432a7bc7b9855cc77feaa4f3515aa215fd7bc6d',
        'refs-order': '42ddb2805c549e05b3e067cd02ffa0cd96ae67f85f657bf8d0364f10272ae6aa',
        'pages': '9873b8883322d39b46cc5b57e988638d818f2b45749c2c5223ec0fb089ec4852',
        'pages-order': '15e3ddd4e7e44702cf42a85a700bf88be27ebc57b95d7c1c6b7b5b3478493fc0',
    },
    'dag105': {
        'backward': '0e1110273d12f671c514a9ac6955e73e16d8d209c4fcda6f11df26b3a4442738',
        'forward': 'aae7f1c83b6f8fb020bbcd23e87e993b7031330cc62b10e79ac31d4d8493e92d',
        'refs': 'b3ac759207b16dcb69260c9212c2a1b65ad1c4ebecae079a7b18182d9fa94fbb',
        'refs-order': '3fb8a693e63e0f4edbea02bc68ffb9c1c6f0d2d79c691d09a4cc060453acba62',
        'pages': '324da8fa1a288c3f976121f40e83f0f4a14dbaf7f9f1cd580c6490f04256b7fc',
        'pages-order': '2dbdd595bba2d7ae52d889b4f6bcdbcea33c5bc19f7fb854c43a3f94b7d85d29',
    },
    'dag106': {
        'backward': '53613d82ceafc210e73c4dda3ea08a4e65d3c27bbbaa41204df122618f434ccf',
        'forward': 'ba7aafb17e80b506d24d03385ffaf511f5467ff2ced909408fa791ce8dcb8906',
        'refs': 'e71584ac8a8944a8ca81b4ae604e0e556d44596a1ea90790f3dec306d6d1a0d0',
        'refs-order': '6382a3561964a03a0577f379cb72ae6648fd399af6dde643054c23fc1ec1da06',
        'pages': 'e06c9edad222b17bdbf739a252e24f390036d1d202774be3129e85aed3ed5b90',
        'pages-order': '8a47425e916f1d0c2187e6e43710622f47039b1220f7ef6ba8b9dd2aa186cd22',
    },
    'dag110': {
        'backward': '1cfb07fe52fdbd4814aace171c934c2009b7a601f2e4d8065d0730c9a351d8e4',
        'forward': 'cf5444a2796ef6629f615b0e594abc52892c8e9cf82d2ff9f05304205a9076e2',
        'refs': '812ef0fb9bbeb5ff347f4520f31d9be4c22e6b9a06246cf28945f13eb4baf776',
        'refs-order': '2b915b3a98680d8740347955be60820d5d1ca2572d0c397da5eb04456eb1d9c0',
        'pages': '7d93e8d3c234a1a0ce814f42cd53d245b222fe6efa7d591b6120e0d659b5f90c',
        'pages-order': 'd187fdd6771e3b0111afc6939de2f59e33e051b10290dd85c35aa32e8c59c7f3',
    },
    'dense2x6': {
        'backward': 'e804984dd4827f551aed870a6f63ed3a02ff6b87c034c55b3b0da209f4c1d590',
        'forward': 'b0fa0391095e639731e7e90f73b778bb95a7614926378673112c65d13dc4fd42',
        'refs': '16acc2adce99875598c3b0b706b1462a78c95952247960e26562162a91ef1d3d',
        'refs-order': '5c48db7c66dd24e3abc2331f58c0692956ad5bad76e3a4c95a4b31908d1d6c1e',
        'pages': 'edc51c6b7bf4ec4bb8a18b70fd9436d687e5d9e9ff69017c279575d1faa75261',
        'pages-order': 'a56fb4c16b775d4de99b6ae357c15665f9347c6afccd585b98a8a376c2d116b7',
    },
    'dense3x4': {
        'backward': '37ba0c55f2aa250c1138c8afa066800aad391199102e0d35d0e41d6c7ae4f219',
        'forward': '9ebd78b3a7ea67b16070eaf37dff72d6cd19e1964b5aabf65b03dca8adf2d749',
        'refs': '356a8e55eebc028a37bd60568668b9990463b096ed7fe540efa9479c2f13f1d7',
        'refs-order': 'cdca3a9568e23c03b89712c1fc40d92b5f7bd7737a7be5d0b4eba058d20787e4',
        'pages': '2c16cf1bcaedb7f40269e5ae9544a163b61f68d8c8c9f520dc10b410c268ab47',
        'pages-order': 'c9dff57d5401d7b6ba17e0a4c9ec23e07258022c168554aa6334100bd82d984d',
    },
    'dense4x4': {
        'backward': 'e5e9e64907ac355235b11bb6b43ca73cd6542fb04184cc8f0affd21a7084f3f7',
        'forward': 'e5c139acb8c03b812a196b50df44848a61e145fc90b4bea031243cf0742daebc',
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
    # one contraction up front, one graph at the end; forward also builds
    # the reversed input, and its one output graph is the reversed one
    if run is factorize_backward:
        assert rebuilds[0] == (1, 1)
    if run is factorize_forward:
        assert rebuilds[0] == (2, 1)


class _Relevelled(dict):
    """A level map that counts the levels it held that the engine worked
    out again: the level walk reads a vertex's old level with `get` once
    for each vertex it levels."""

    again = 0

    def get(self, v, default=None):
        self.again += v in self
        return super().get(v, default)


def test_a_pass_that_names_nothing_copies_and_levels_only_what_it_made(monkeypatch):
    counts = Counter()
    sym_new, atom = Sym.__new__, structure.atom

    def counted_sym(cls, name):
        counts["lookups"] += 1
        return sym_new(cls, name)

    def counted_atom(label):
        counts["lookups"] += 1
        return atom(label)

    monkeypatch.setattr(Sym, "__new__", counted_sym)
    monkeypatch.setattr(structure, "atom", counted_atom)
    g = dense_layered(2, 8)
    work = SplitGraph(g)
    assert counts["lookups"] == 2 * len(g.edges)  # the input's own, an atom and a Sym each
    counts.clear()
    work.level = _Relevelled(work.level)
    passes = 0
    while work.split(None):
        passes += 1
    # each copied edge reuses its CEdge's expression, and the walk levels
    # only the copies
    assert passes > 100 and len(work.edges) > 10 * len(g.edges)
    assert counts["lookups"] == 0
    assert work.level.again == 0
    # naming a structure shortens the paths through it: d is levelled again
    work = SplitGraph(parse_graph(LOWERED))
    work.level = _Relevelled(work.level)
    assert work.split(ExprSet())
    assert work.level.again >= 1
