"""Independent checker for plans, readouts and multiplication counts.

It shares no code with `jacfact`: it parses the graph and expression-set
text formats itself, evaluates in GF(2^61 - 1) against a linear-time path
sum over the input's topological order (forward vertex elimination, one
pass per root), and counts multiplications by its own rule:

- a product of n non-unit factors costs n - 1;
- a sum costs nothing (additions are fused);
- each reference definition is counted once, however often it is used.

Expressions are trees of tuples: ``("sym", name)``, ``("unit",)``,
``("prod", factors)`` and ``("sum", terms)``.  Parsing, evaluation and
counting are iterative, so deep inputs cannot exhaust the interpreter
stack.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

PRIME = 2**61 - 1
UNIT = "1"
TRIALS = 2  # a wrong polynomial survives one random point with odds ~deg/p


class CheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs


@dataclass
class Graph:
    edges: list  # (id, src, dst, label)
    vertices: set
    succ: dict
    pred: dict
    topo: list

    def roots(self):
        return sorted(v for v in self.vertices if not self.pred[v])

    def terminals(self):
        return sorted(v for v in self.vertices if not self.succ[v])


def parse_graph(text):
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "e" or len(parts) not in (4, 5):
            raise CheckError(f"graph line {lineno}: {line!r}")
        eid, src, dst = parts[1:4]
        edges.append((eid, src, dst, parts[4] if len(parts) == 5 else eid))
    if not edges:
        raise CheckError("graph has no edges")
    vertices = {v for _, s, d, _ in edges for v in (s, d)}
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    for e in edges:
        succ[e[1]].append(e)
        pred[e[2]].append(e)
    indeg = {v: len(pred[v]) for v in vertices}
    ready = [v for v in vertices if not indeg[v]]
    topo = []
    while ready:
        v = ready.pop()
        topo.append(v)
        for e in succ[v]:
            indeg[e[2]] -= 1
            if not indeg[e[2]]:
                ready.append(e[2])
    if len(topo) != len(vertices):
        raise CheckError("graph has a cycle")
    return Graph(edges, vertices, succ, pred, topo)


def depth_levels(g):
    """Longest-path level per vertex; terminals share the deepest level."""
    level = {}
    for v in g.topo:
        level[v] = max((level[e[1]] + 1 for e in g.pred[v]), default=0)
    terminals = g.terminals()
    depth = max(level[t] for t in terminals)
    for t in terminals:
        level[t] = depth
    return level


def path_sum(g, values=None):
    """(root, terminal) -> sum over paths of the product of edge values.

    One forward sweep per root over the topological order.  Without
    `values` it returns exact path counts.  Only connected pairs appear.
    """
    out = {}
    terminals = set(g.terminals())
    for r in g.roots():
        acc = {r: 1}
        for v in g.topo:
            a = acc.get(v)
            if a is None:
                continue
            for _, _, dst, label in g.succ[v]:
                if values is None:
                    acc[dst] = acc.get(dst, 0) + a
                else:
                    acc[dst] = (acc.get(dst, 0) + a * values[label]) % PRIME
        out.update({(r, t): acc[t] for t in terminals & acc.keys()})
    return out


def region_mults(g, r, t):
    """Multiplications of the region expression of one connected pair, or
    None when the region is a complex block (not series-parallel).

    The region is the set of edges on r-to-t paths.  Splicing out a vertex
    with one in- and one out-arc multiplies the two arcs (free when either
    is a unit); arcs that meet in parallel add (free).  The count does not
    depend on the order of reductions.
    """
    keep = _reach(g, r, g.succ, 2) & _reach(g, t, g.pred, 1)
    arcs = {}  # (src, dst) -> (mults, is_unit)
    out, inn = {}, {}
    for _, s, d, label in g.edges:
        if s in keep and d in keep:
            arcs[(s, d)] = (0, label == UNIT)
            out.setdefault(s, set()).add(d)
            inn.setdefault(d, set()).add(s)
    work = [v for v in keep if v not in (r, t)]
    while work:
        v = work.pop()
        if len(out.get(v, ())) != 1 or len(inn.get(v, ())) != 1:
            continue
        (a,) = inn.pop(v)
        (b,) = out.pop(v)
        (m1, u1), (m2, u2) = arcs.pop((a, v)), arcs.pop((v, b))
        arc = (m1 + m2 + (0 if u1 or u2 else 1), u1 and u2)
        out[a].discard(v)
        inn[b].discard(v)
        if (a, b) in arcs:
            arc = (arcs[(a, b)][0] + arc[0], False)
        arcs[(a, b)] = arc
        out[a].add(b)
        inn[b].add(a)
        work.extend(x for x in (a, b) if x not in (r, t))
    if list(arcs) != [(r, t)]:
        return None
    return arcs[(r, t)][0]


def graph_mults(g):
    """A graph costed as the sum of its per-pair region expressions; None
    when any pair's region is still a complex block."""
    total = 0
    for r, t in path_sum(g):
        m = region_mults(g, r, t)
        if m is None:
            return None
        total += m
    return total


def _reach(g, start, adj, end):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in adj[v]:
            if e[end] not in seen:
                seen.add(e[end])
                stack.append(e[end])
    return seen


# ---------------------------------------------------------------------------
# expressions

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_.']*)|(1)(?![A-Za-z0-9_.'])|([*+()]))")


def parse_expr(text):
    """Expression text to a tuple tree; `*` binds tighter than `+`."""
    frames = [[[], []]]  # per parenthesis level: [terms, factors]
    pos = 0
    expect_atom = True
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise CheckError(f"bad expression at {pos}: {text!r}")
        pos = m.end()
        name, one, op = m.groups()
        if name or one:
            if not expect_atom:
                raise CheckError(f"missing operator at {pos}")
            frames[-1][1].append(("sym", name) if name else ("unit",))
            expect_atom = False
        elif op == "(":
            if not expect_atom:
                raise CheckError(f"missing operator at {pos}")
            frames.append([[], []])
        elif expect_atom:
            raise CheckError(f"missing operand at {pos}")
        elif op == "*":
            expect_atom = True
        elif op == "+":
            frames[-1][0].append(_product(frames[-1][1]))
            frames[-1][1] = []
            expect_atom = True
        else:  # ")"
            if len(frames) == 1:
                raise CheckError(f"unbalanced ')' at {pos}")
            terms, factors = frames.pop()
            frames[-1][1].append(_sum(terms + [_product(factors)]))
    if expect_atom or len(frames) != 1:
        raise CheckError(f"incomplete expression: {text!r}")
    terms, factors = frames[0]
    return _sum(terms + [_product(factors)])


def _product(factors):
    return factors[0] if len(factors) == 1 else ("prod", tuple(factors))


def _sum(terms):
    return terms[0] if len(terms) == 1 else ("sum", tuple(terms))


_ENTRY = re.compile(r"^J\[\s*([^,\]]+?)\s*,\s*([^,\]]+?)\s*\]\s*=\s*(.*)$")
_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_.']*)\s*=\s*(.*)$")


@dataclass
class ExprSet:
    defs: dict  # name -> tree, in text order
    entries: list  # ((root, terminal), tree)


def parse_exprset(text):
    defs, entries = {}, []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTRY.match(line)
        if m:
            entries.append(((m.group(1), m.group(2)), parse_expr(m.group(3))))
            continue
        m = _DEF.match(line)
        if not m:
            raise CheckError(f"bad expression-set line {line!r}")
        if m.group(1) in defs:
            raise CheckError(f"duplicate definition {m.group(1)}")
        defs[m.group(1)] = parse_expr(m.group(2))
    return ExprSet(defs, entries)


def _children(node):
    return node[1] if node[0] in ("prod", "sum") else ()


def _postorder(root):
    """Nodes of a tree, children before parents, without recursion."""
    out, stack = [], [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        stack.append((node, True))
        stack.extend((c, False) for c in _children(node))
    return out


def symbols(tree):
    return {n[1] for n in _postorder(tree) if n[0] == "sym"}


def count_mults(tree):
    """Multiplications of one tree: n - 1 per product of n non-unit factors."""
    total = 0
    for node in _postorder(tree):
        if node[0] == "prod":
            nonunit = sum(1 for f in node[1] if f[0] != "unit")
            total += max(0, nonunit - 1)
    return total


def set_mults(s):
    return sum(count_mults(t) for t in s.defs.values()) + sum(
        count_mults(t) for _, t in s.entries
    )


def _def_order(s):
    """Definitions in dependency order; raises on cycles."""
    deps = {n: symbols(t) & set(s.defs) for n, t in s.defs.items()}
    order, state = [], {}
    for start in s.defs:
        stack = [(start, False)]
        while stack:
            n, done = stack.pop()
            if done:
                state[n] = 2
                order.append(n)
                continue
            if state.get(n) == 2:
                continue
            if state.get(n) == 1:
                raise CheckError(f"cyclic definition through {n}")
            state[n] = 1
            stack.append((n, True))
            stack.extend((d, False) for d in deps[n] if state.get(d) != 2)
    return order


def eval_tree(tree, env):
    vals = {}
    for node in _postorder(tree):
        kind = node[0]
        if kind == "unit":
            v = 1
        elif kind == "sym":
            try:
                v = env[node[1]]
            except KeyError:
                raise CheckError(f"unknown symbol {node[1]}") from None
        elif kind == "prod":
            v = 1
            for f in node[1]:
                v = v * vals[id(f)] % PRIME
        else:
            v = sum(vals[id(t)] for t in node[1]) % PRIME
        vals[id(node)] = v
    return vals[id(tree)]


def eval_exprset(s, values):
    """(root, terminal) -> value; entries for one pair add up."""
    env = dict(values)
    for name in _def_order(s):
        env[name] = eval_tree(s.defs[name], env)
    out = {}
    for pair, tree in s.entries:
        out[pair] = (out.get(pair, 0) + eval_tree(tree, env)) % PRIME
    return out


def random_values(labels, seed):
    rng = random.Random(seed)
    return {lab: rng.randrange(2, PRIME - 1) for lab in sorted(labels)}


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    mults: int = None


def _compare(g, evaluate, labels, seed):
    """Compare `evaluate(values)` with the path sum of `g` on random points."""
    support = set(path_sum(g))
    for trial in range(TRIALS):
        values = random_values(labels, f"{seed}:{trial}")
        values[UNIT] = 1
        want = path_sum(g, values)
        got = evaluate(values)
        if set(got) != support:
            extra = sorted(set(got) - support)
            missing = sorted(support - set(got))
            return f"support differs: extra {extra[:3]}, missing {missing[:3]}"
        for pair in sorted(support):
            if got[pair] != want[pair]:
                return f"value differs on {pair}"
    return ""


def judge_exprset(graph_text, set_text, seed=0):
    """Does the expression set equal the graph's Jacobian?  Also counts it."""
    g = parse_graph(graph_text)
    try:
        s = parse_exprset(set_text)
        mults = set_mults(s)
        labels = {e[3] for e in g.edges} - {UNIT}
        used = set()
        for t in list(s.defs.values()) + [t for _, t in s.entries]:
            used |= symbols(t)
        unknown = used - labels - set(s.defs)
        if unknown:
            return Verdict(False, f"unknown symbols {sorted(unknown)[:3]}", mults)
        reason = _compare(g, lambda vals: eval_exprset(s, vals), labels, seed)
    except CheckError as exc:
        return Verdict(False, str(exc))
    return Verdict(not reason, reason, mults)


def judge_graph(graph_text, out_text, seed=0):
    """Does the output graph have the input's Jacobian, with no complex
    block left?  Counts it as its per-pair region expressions."""
    g = parse_graph(graph_text)
    try:
        out = parse_graph(out_text)
        labels = {e[3] for e in g.edges} - {UNIT}
        unknown = {e[3] for e in out.edges} - labels - {UNIT}
        if unknown:
            return Verdict(False, f"unknown labels {sorted(unknown)[:3]}")
        mults = graph_mults(out)
        if mults is None:
            return Verdict(False, "output still has a complex block")
        reason = _compare(g, lambda vals: path_sum(out, vals), labels, seed)
    except CheckError as exc:
        return Verdict(False, str(exc))
    return Verdict(not reason, reason, mults)


def judge_replay(graph_text, readout_text, replay_mults, plan_mults, seed=0):
    """A readout must equal the Jacobian, at exactly the plan's count."""
    v = judge_exprset(graph_text, readout_text, seed)
    if not v.ok:
        return Verdict(False, "readout " + v.reason, replay_mults)
    if plan_mults is not None and replay_mults != plan_mults:
        return Verdict(
            False, f"replay counts {replay_mults}, plan counts {plan_mults}", replay_mults
        )
    return Verdict(True, "", replay_mults)


def line_graph_shape(g):
    """(labeled vertices, arcs) of the line graph with meta sources/sinks."""
    arcs = 0
    for v in g.vertices:
        arcs += len(g.pred[v]) * len(g.succ[v])
        if not g.pred[v]:
            arcs += len(g.succ[v])
        if not g.succ[v]:
            arcs += len(g.pred[v])
    return len(g.edges), arcs
