"""Ground-truth evaluation and randomized equivalence checking.

Bauer's multi-path chain rule gives a Jacobian entry as the sum over every
root-to-terminal path of the product of its edge labels.  Checks run in the
prime field GF(2^61 - 1), where multiplication commutes and
equality is exact, so the path sums are dynamic-programming sweeps over
the topological order (vertex elimination) instead of an enumeration: down
from each root or up from each terminal, whichever touches fewer edges,
with one reduction per reached vertex.  A random instantiation exposes any
fixed polynomial discrepancy with overwhelming probability.

:func:`check_equiv` evaluates each artifact once for all of its trials: a
:class:`Trials` batch holds, per label, its value in ``instantiate(labels,
seed + t)`` for each trial ``t``; every vertex, definition and entry carries
one value per trial, and structurally equal subterms share one column.
Every evaluator takes such a batch and returns columns; one trial is the
batch ``draw_trials(labels, seed, 1)``.
"""
from __future__ import annotations

import random
from functools import reduce
from heapq import heappop, heappush

from . import expr as ex
from .expr import ExprSet, Prod, Sym, _kids, _pending
from .graph import DiffGraph, UNIT_LABEL

PRIME = 2**61 - 1


class OracleError(ValueError):
    pass


class SupportMismatch(OracleError):
    pass


def instantiate(labels, seed):
    """Map each non-unit label, in sorted order, to
    ``random.Random(seed).randrange(2, PRIME - 1)`` (zero would mask dropped
    factors, one dropped units).  CPython draws it as ``2 + getrandbits(61)``
    unless the bits are ``PRIME - 3`` or more (about one draw in 2^59); then
    ``randrange`` redraws the whole row.  Duplicates drop in input order, so
    labels that come sorted, as from :func:`draw_trials`, sort in one pass."""
    keys = dict.fromkeys(labels)
    keys.pop(UNIT_LABEL, None)
    keys = sorted(keys)
    rng = random.Random(seed)
    bits = rng.getrandbits
    row = [bits(61) + 2 for _ in keys]
    if keys and max(row) >= PRIME - 1:
        rng.seed(seed)
        row = [rng.randrange(2, PRIME - 1) for _ in keys]
    return dict(zip(keys, row))


class Trials:
    """A batch of instantiations as value columns: ``columns[label][t]`` is
    the label's value in trial ``t``.  Evaluating against a batch yields one
    such column per result."""

    def __init__(self, columns, size):
        self.columns = columns
        self.size = size

    def __getitem__(self, label):
        if label == UNIT_LABEL:
            return self.constant(1)
        try:
            return self.columns[label]
        except KeyError:
            raise OracleError(f"label {label} not instantiated") from None

    def constant(self, c):
        return [c] * self.size

    def dot(self, terms):
        """``x*y`` summed over the column pairs ``(x, y)`` of `terms`, per
        trial, where a factor ``None`` is the unit.  The sum is carried
        unreduced and reduced once, with the last term.  This is the
        oracle's only arithmetic: a product folds in each factor after its
        first with one ``dot([(acc, f)])``, and a sum is one ``dot`` over
        ``(term, None)`` pairs."""
        last = len(terms)
        acc = None
        for k, (x, y) in enumerate(terms, 1):
            if x is None or y is None:
                x = y if x is None else x
                if x is None:
                    x = self.constant(1)
                if acc is None:
                    acc = x
                elif k < last:
                    acc = [s + a for s, a in zip(acc, x)]
                else:
                    acc = [(s + a) % PRIME for s, a in zip(acc, x)]
            elif acc is None:
                acc = [a * b % PRIME for a, b in zip(x, y)] if last == 1 else [a * b for a, b in zip(x, y)]
            elif k < last:
                acc = [s + a * b for s, a, b in zip(acc, x, y)]
            else:
                acc = [(s + a * b) % PRIME for s, a, b in zip(acc, x, y)]
        return acc


def draw_trials(labels, seed, trials):
    """Trials ``seed .. seed+trials-1``: trial ``t`` holds ``instantiate(labels,
    seed + t)``, called once per trial, which is how perfbench counts trials."""
    keys = sorted(set(labels) - {UNIT_LABEL})
    rows = [instantiate(keys, s).values() for s in range(seed, seed + trials)]
    return Trials(dict(zip(keys, map(list, zip(*rows)))), trials)


class _Columns:
    """Value columns of expressions over one batch of trials.

    Each product and sum node gets one column, so structurally equal
    subexpressions, which are one node, are evaluated once.  Factorized
    sets repeat the same subterm many times over (a dense 4x4 refs plan
    has 1680 products and sums, 240 of them distinct).  A name reads as its
    definition once that is evaluated, and as a label otherwise; definitions
    are evaluated in reference order, so a name that has one never reads as
    a label.
    """

    def __init__(self, trials):
        self.trials = trials
        self.columns = {}  # product, sum or defined name's symbol -> value column

    def define(self, name, e):
        """Evaluate definition `name` = `e`; from here on `name` reads as
        the definition."""
        self.columns[Sym(name)] = self.of(e)

    def of(self, e):
        """Value column of one expression; each product and sum not yet
        evaluated is evaluated once, children first."""
        dot, columns = self.trials.dot, self.columns
        for node in _pending(e, columns.__contains__):
            kids = map(self._value, _kids(node))
            if isinstance(node, Prod):
                columns[node] = reduce(lambda acc, f: dot([(acc, f)]), kids)
            else:
                columns[node] = dot([(term, None) for term in kids])
        return self._value(e)

    def _value(self, node):
        """The column of an evaluated node or defined name, else of a label
        or ``1``."""
        if node in self.columns:
            return self.columns[node]
        return self.trials[node.name]


def eval_expr(e, trials):
    """Value column of one expression over a :class:`Trials` batch; every
    name reads as a label."""
    return _Columns(trials).of(e)


def eval_exprset(s, trials):
    """Map (root, terminal) -> value column over a :class:`Trials` batch,
    with each definition evaluated once, in reference order."""
    def_map = s.def_map
    columns = _Columns(trials)
    for name in ex.reference_order(s):
        columns.define(name, def_map[name])
    terms = {}
    for pair, e in s.entries:
        terms.setdefault(pair, []).append((columns.of(e), None))
    return {pair: trials.dot(t) for pair, t in terms.items()}


def bauer_eval(g, trials):
    """Jacobian entries as path sums, exact in the field.

    The sum can be swept from either end.  Down from a root, a reached
    vertex's column sums ``value[u] * label(u->v)`` over its reached
    predecessors; up from a terminal, it sums ``label(v->w) * value[w]``
    over the successors that reach the terminal, so every product keeps its
    factors in root-to-terminal order either way.  Whichever side touches
    fewer edges (see :func:`sweep_costs`) is swept, down on a tie.  Each
    reached vertex's column is one :meth:`Trials.dot`, reduced once.
    """
    down, up = sweep_costs(g)
    roots, terminals = g.roots, g.terminals  # each sorted
    if down <= up:
        step = {v: [(e.dst, _label(trials, e.label)) for e in g.out_edges(v)] for v in g.vertices}
        by_root = _sweeps(roots, g.topo_order, step, trials, set(terminals), left=False)
    else:
        step = {v: [(e.src, _label(trials, e.label)) for e in g.in_edges(v)] for v in g.vertices}
        by_terminal = _sweeps(terminals, g.topo_order[::-1], step, trials, set(roots), left=True)
        by_root = {y: {} for y in roots}
        for x in terminals:
            for y, col in by_terminal[x].items():
                by_root[y][x] = col
    return {(y, x): by_root[y][x] for y in roots for x in sorted(by_root[y])}


def _label(trials, label):
    return None if label == UNIT_LABEL else trials[label]


def _sweeps(starts, order, step, trials, keep, left):
    """Start -> {vertex of `keep` it reaches -> column}, one sweep per start
    through `step` (vertex -> [(next vertex, label column or None for the
    unit)]) in `order`.  A reached vertex's terms are ``(value, label)``
    pairs, or ``(label, value)`` with `left`, and its column is their one
    :meth:`Trials.dot`.  A sweep visits only the vertices it reaches, in
    `order`, from a heap of their positions."""
    pos = {v: k for k, v in enumerate(order)}
    swept = {}
    for start in starts:
        pending, ready = {}, []
        out = swept[start] = {}

        def push(v, value):
            for w, col in step[v]:
                if w not in pending:
                    pending[w] = []
                    heappush(ready, pos[w])
                pending[w].append((col, value) if left else (value, col))

        push(start, None)
        while ready:
            v = order[heappop(ready)]
            value = trials.dot(pending.pop(v))
            if v in keep:
                out[v] = value
            push(v, value)
    return swept


def sweep_costs(g):
    """``(down, up)``: the edges that :func:`bauer_eval`'s sweeps touch,
    down from every root and up from every terminal.

    A sweep down from a root touches each edge whose source the root
    reaches, and one up from a terminal each edge whose target reaches the
    terminal.  So each count sums, over the edges, the popcount of the
    source's or the target's :attr:`~jacfact.graph.DiffGraph.reach_bits`.
    """
    down, up = g.reach_bits
    return (
        sum(down[e.src].bit_count() for e in g.edges),
        sum(up[e.dst].bit_count() for e in g.edges),
    )


# ---------------------------------------------------------------------------
# equivalence checking


def _evaluable(artifact):
    """The labels of a graph or expression set, and its evaluator."""
    if isinstance(artifact, DiffGraph):
        return {e.label for e in artifact.edges if e.label != UNIT_LABEL}, bauer_eval
    if isinstance(artifact, ExprSet):
        return ex.base_symbols(artifact), eval_exprset
    raise OracleError(f"cannot evaluate {type(artifact).__name__}")


class EquivReport:
    mode = "field"  # the arithmetic of every check

    def __init__(self, trials, mismatches=None):
        self.trials = trials
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self):
        return not self.mismatches

    def to_json(self):
        return {
            "trials": self.trials,
            "mode": self.mode,
            "mismatches": [
                {"pair": list(pair), "seed": seed, "lhs": str(a), "rhs": str(b)}
                for pair, seed, a, b in self.mismatches
            ],
        }


def check_equiv(a, b, trials=100, seed=0):
    """Randomized equivalence of two evaluatable artifacts: graphs,
    expression sets, or (root, terminal) -> Expr dicts such as a line-graph
    readout, checked as the set of those entries.

    Supports must match exactly, and values are compared exactly in the
    field.  The report carries every mismatching (pair, seed), trial by
    trial, so a failure is reproducible.  Fewer than one trial, which
    would compare nothing, or a negative seed raises :class:`OracleError`.
    """
    if trials < 1:
        raise OracleError(f"need at least one trial, not {trials}")
    if seed < 0:  # Random(-k) is Random(k): trials would repeat
        raise OracleError(f"need a seed of at least 0, not {seed}")
    a, b = (ExprSet(entries=list(x.items())) if isinstance(x, dict) else x for x in (a, b))
    (labels_a, eval_a), (labels_b, eval_b) = _evaluable(a), _evaluable(b)
    report = EquivReport(trials)
    batch = draw_trials(labels_a | labels_b, seed, trials)
    va = eval_a(a, batch)
    vb = eval_b(b, batch)
    if set(va) != set(vb):
        missing = set(va) ^ set(vb)
        raise SupportMismatch(f"entry supports differ on {sorted(missing)}")
    pairs = [pair for pair in sorted(va) if va[pair] != vb[pair]]  # whole columns first
    for t in range(trials):
        report.mismatches += [(p, seed + t, va[p][t], vb[p][t]) for p in pairs if va[p][t] != vb[p][t]]
    return report
