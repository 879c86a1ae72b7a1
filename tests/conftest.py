import random
from pathlib import Path

import pytest

from jacfact.expr import (
    ExprSet,
    Prod,
    Sum,
    Sym,
    add,
    canonical,
    expand_expr,
    fma_cost,
    free_symbols,
    prod,
)
from jacfact.exprparse import parse_exprset
from jacfact.graph import DiffGraph, Edge, parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_graph(name):
    return parse_graph((FIXTURES / f"{name}.graph").read_text())


def load_exprset(name):
    return parse_exprset((FIXTURES / f"{name}.exprs").read_text())


@pytest.fixture
def fig4a():
    return load_graph("fig4a")


@pytest.fixture
def fig4b():
    return load_graph("fig4b")


def fig4b_labeled_s1():
    """fig4b with edge e3 labeled `s1`, the name a planner's first
    reference would take."""
    text = (FIXTURES / "fig4b.graph").read_text()
    return text.replace("e e3 v2 v4\n", "e e3 v2 v4 s1\n")


@pytest.fixture
def fig9a():
    return load_graph("fig9a")


def random_layered_dag(rng, max_vertices=10, max_edges=16, max_levels=4):
    """Connected-ish layered DAG: every non-root has an in-edge, every
    non-terminal an out-edge, optional cross-level extras."""
    n_levels = rng.randint(2, max_levels)
    total = rng.randint(n_levels, max_vertices)
    sizes = [1] * n_levels
    for _ in range(total - n_levels):
        sizes[rng.randrange(n_levels)] += 1
    levels = []
    n = 0
    for size in sizes:
        levels.append([f"n{n + i}" for i in range(size)])
        n += size
    pairs = set()
    for li in range(1, n_levels):
        for v in levels[li]:
            src_level = rng.randrange(li)
            pairs.add((rng.choice(levels[src_level]), v))
    for li in range(n_levels - 1):
        for v in levels[li]:
            if not any(p == v for p, _ in pairs):
                dst_level = rng.randrange(li + 1, n_levels)
                pairs.add((v, rng.choice(levels[dst_level])))
    flat = [v for lv in levels for v in lv]
    index = {v: i for i, v in enumerate(flat)}
    extra = rng.randint(0, max_edges)
    for _ in range(extra):
        if len(pairs) >= max_edges:
            break
        a, b = rng.sample(flat, 2)
        if index[a] > index[b]:
            a, b = b, a
        level_of = {v: li for li, lv in enumerate(levels) for v in lv}
        if level_of[a] == level_of[b]:
            continue
        if level_of[a] > level_of[b]:
            a, b = b, a
        pairs.add((a, b))
    edges = [
        Edge(f"g{i}", a, b, f"g{i}") for i, (a, b) in enumerate(sorted(pairs))
    ]
    return DiffGraph(edges)


def dense_layered(width, depth, seed=0):
    """`depth` dense width x width local Jacobians stacked level by level,
    with labels shuffled by `seed`."""
    pairs = [
        (f"v{lv}_{i}", f"v{lv + 1}_{j}")
        for lv in range(depth)
        for i in range(width)
        for j in range(width)
    ]
    labels = [f"a{k}" for k in range(1, len(pairs) + 1)]
    random.Random(seed).shuffle(labels)
    return DiffGraph(
        Edge(f"e{k}", a, b, lab)
        for k, ((a, b), lab) in enumerate(zip(pairs, labels), start=1)
    )


def random_exprset(rng, labels="abcd"):
    """A random acyclic expression set with its definitions shuffled, so
    names are often used before they are defined, and some definitions are
    used by nothing."""
    names = [f"s{i}" for i in range(rng.randint(1, 6))]

    def expr(atoms, depth=2):
        if depth == 0 or rng.random() < 0.3:
            return Sym(rng.choice(atoms))
        kids = [expr(atoms, depth - 1) for _ in range(rng.randint(2, 3))]
        return (prod if rng.random() < 0.6 else add)(*kids)

    # a name uses only the names after it in `names`, so no cycle forms
    defs = [(name, expr([*labels, *names[i + 1:]])) for i, name in enumerate(names)]
    rng.shuffle(defs)
    s = ExprSet(defs)
    for _ in range(rng.randint(1, 3)):
        s.add_entry(rng.choice("pq"), rng.choice("xy"), expr([*labels, *names]))
    return s


def enumerate_parenthesizations(n):
    """All binary association trees over n leaves (brute-force oracle)."""

    def trees(i, j):
        if i == j:
            yield i
            return
        for k in range(i, j):
            for l in trees(i, k):
                for r in trees(k + 1, j):
                    yield (l, r)

    return list(trees(0, n - 1))


def transpose(s):
    """`s` with every product's factors reversed and each entry's pair
    swapped.  Reversing every edge transposes the Jacobian, so a plan for
    ``g.reversed()``, transposed, is a plan for `g`."""
    memo = {}

    def flip(e):
        if e not in memo:
            if isinstance(e, Prod):
                memo[e] = prod(*[flip(f) for f in reversed(e.factors)])
            elif isinstance(e, Sum):
                memo[e] = add(*[flip(t) for t in e.terms])
            else:
                memo[e] = e
        return memo[e]

    return ExprSet(
        [(name, flip(e)) for name, e in s.defs],
        [((x, y), flip(e)) for (y, x), e in s.entries],
    )


def restrict_exprset(s, pairs):
    """Entries for the given pairs plus the definitions they reach."""
    keep = set(map(tuple, pairs))
    out = ExprSet()
    needed = set()
    entries = [(p, e) for p, e in s.entries if tuple(p) in keep]
    frontier = set()
    for _, e in entries:
        frontier |= free_symbols(e)
    dm = s.def_map
    while frontier:
        name = frontier.pop()
        if name in dm and name not in needed:
            needed.add(name)
            frontier |= free_symbols(dm[name])
    for name, e in s.defs:
        if name in needed:
            out.define(name, e)
    for (r, t), e in entries:
        out.add_entry(r, t, e)
    return out


def sets_match_up_to_naming(mine, reference):
    """Structural match of two expression sets up to reference renaming and
    the order of sum terms.  Requires a bijection between the definitions the
    entries reach, matching expanded forms, matching entries after renaming,
    and identical multiplication counts (same sharing)."""
    pairs = [p for p, _ in reference.entries]
    mine = restrict_exprset(mine, pairs)
    if fma_cost(mine) != fma_cost(reference):
        return False, f"cost {fma_cost(mine)} != {fma_cost(reference)}"
    my_dm, ref_dm = mine.def_map, reference.def_map

    def key(e, dm):
        from jacfact.expr import format_expr

        return format_expr(canonical(expand_expr(e, dm)))

    ref_by_key = {}
    for name, e in reference.defs:
        ref_by_key.setdefault(key(e, ref_dm), []).append(name)
    rename = {}
    for name, e in mine.defs:
        k = key(e, my_dm)
        if k not in ref_by_key or not ref_by_key[k]:
            return False, f"definition {name} = {k} has no counterpart"
        rename[name] = ref_by_key[k].pop(0)
    leftovers = [n for ns in ref_by_key.values() for n in ns]
    if leftovers:
        return False, f"unmatched reference definitions: {leftovers}"

    def renamed(e):
        if isinstance(e, Sym):
            return Sym(rename.get(e.name, e.name))
        from jacfact.expr import Prod, Sum

        if isinstance(e, Prod):
            return prod(*[renamed(f) for f in e.factors])
        if isinstance(e, Sum):
            return add(*[renamed(t) for t in e.terms])
        return e

    ref_entries = reference.entry_map()
    my_entries = {tuple(p): e for p, e in mine.entries}
    for pair, ref_e in ref_entries.items():
        if tuple(pair) not in my_entries:
            return False, f"missing entry {pair}"
        if canonical(renamed(my_entries[tuple(pair)])) != canonical(ref_e):
            return False, f"entry {pair} differs"
    for name, e in mine.defs:
        target = rename[name]
        if canonical(renamed(e)) != canonical(ref_dm[target]):
            return False, f"definition {name} differs from {target}"
    return True, "ok"


def lg_value(lg, trials):
    """Independent line-graph semantics in one trial: per (root, terminal),
    the sum over all source-to-sink paths of the product of vertex labels."""
    from jacfact.oracle import PRIME, eval_expr

    out = {}

    def walk(vid, acc):
        v = lg.vertices[vid]
        if v.kind == "sink":
            return {(v.graph_vertex,): acc}
        total = {}
        if v.kind == "label":
            acc = acc * eval_expr(v.label, trials)[0] % PRIME
        for s in sorted(v.succs):
            for k, val in walk(s, acc).items():
                total[k] = (total.get(k, 0) + val) % PRIME
        return total

    sources = sorted((v.graph_vertex, vid) for vid, v in lg.vertices.items() if v.kind == "source")
    for r, vid in sources:
        for key, val in walk(vid, 1).items():
            out[(r, key[0])] = val
    return out


def parts_faults(live, g):
    """How the tree of parts below the `live` CEdges of a contraction of `g`
    breaks its rules, as text; empty when it keeps them.

    An edge's members are its own id, an edge of `g` with its ends.  A
    substitute's members are the disjoint union of its parts'.  A chain's
    parts run end to end from its source to its destination, and none is a
    chain.  A block's parts share its two ends, in seq order, and none is a
    block with parts; a stuck block's parts form a region whose one source
    is its source and whose one sink is its destination.  An edge's length
    is 1, a chain's the sum of its parts', a block's the most of its parts';
    a complex structure, one with no expression, has none.  Each part
    formed before its parent, and no CEdge is a part twice.
    """
    faults, seen, todo = [], set(), list(live)
    while todo:
        ce = todo.pop()
        name = f"{ce.kind} {ce.src}->{ce.dst} made {ce.made}"
        if id(ce) in seen:
            faults.append(f"{name} is a part twice")
        seen.add(id(ce))
        parts = ce.parts
        todo.extend(parts)
        length = 1 if ce.kind == "edge" else None
        if parts and ce.expr is not None:
            length = (sum if ce.kind == "chain" else max)(p.length for p in parts)
        if ce.length != length:
            faults.append(f"{name} has length {ce.length}, not {length}")
        if ce.kind == "edge":
            (eid,) = ce.emembers
            e = g.edge(eid)
            if parts or (e.src, e.dst) != (ce.src, ce.dst):
                faults.append(f"{name} is not its edge {eid}")
            continue
        if len(parts) < 2:
            faults.append(f"{name} has {len(parts)} parts")
        members = [eid for p in parts for eid in p.emembers]
        if len(members) != len(set(members)) or set(members) != ce.emembers:
            faults.append(f"{name}: members are not the disjoint union of its parts'")
        if any(p.made >= ce.made for p in parts):
            faults.append(f"{name} has a part made after it")
        ends = [(p.src, p.dst) for p in parts]
        if ce.kind == "chain":
            # its source, each part's two ends, its destination: pairs must meet
            run = [ce.src] + [v for end in ends for v in end] + [ce.dst]
            if run[0::2] != run[1::2] or any(p.kind == "chain" for p in parts):
                faults.append(f"{name}: parts do not run end to end, or one is a chain")
        elif all(end == (ce.src, ce.dst) for end in ends):
            if [p.seq for p in parts] != sorted(p.seq for p in parts) or any(
                p.kind == "block" and p.parts for p in parts
            ):
                faults.append(f"{name}: parts out of seq order, or one is a block")
        else:
            into, out_of = {p.dst for p in parts}, {p.src for p in parts}
            if ce.expr is not None or out_of - into != {ce.src} or into - out_of != {ce.dst}:
                faults.append(f"{name}: parts are not a region between its ends")
    return faults
