"""Ground-truth evaluation and randomized equivalence checking.

Bauer's multi-path chain rule gives a Jacobian entry as the sum over every
root-to-terminal path of the product of its edge labels.  Checks run in the
prime field GF(2^61 - 1), where multiplication commutes and
equality is exact, so the path sum is one forward dynamic-programming pass
over the topological order (vertex elimination) instead of an enumeration;
a random instantiation exposes any fixed polynomial discrepancy with
overwhelming probability.

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
    ``randrange`` redraws the whole row."""
    keys = sorted(set(labels) - {UNIT_LABEL})
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

    def mul(self, x, y):
        return [a * b % PRIME for a, b in zip(x, y)]

    def add(self, x, y):
        return [(a + b) % PRIME for a, b in zip(x, y)]

    def fma(self, acc, x, y):
        """``acc + x*y`` per trial."""
        return [(a + b * c) % PRIME for a, b, c in zip(acc, x, y)]


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
        trials, columns = self.trials, self.columns
        for node in _pending(e, columns.__contains__):
            fold = trials.mul if isinstance(node, Prod) else trials.add
            columns[node] = reduce(fold, map(self._value, _kids(node)))
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
    out = {}
    for pair, e in s.entries:
        v = columns.of(e)
        out[pair] = trials.add(out[pair], v) if pair in out else v
    return out


def bauer_eval(g, trials):
    """Jacobian entries as path sums, exact in the field.

    One forward pass over the topological order per root: each reached
    vertex carries its path sum as a column over the :class:`Trials` batch.
    """
    terminals = g.terminals
    is_terminal = set(terminals)
    succ = {
        v: [(e.dst, None if e.label == UNIT_LABEL else trials[e.label]) for e in g.out_edges(v)]
        for v in g.vertices
    }
    out = {}
    for y in g.roots:
        value = {y: trials.constant(1)}
        for v in g.topo_order:
            if v not in value:
                continue
            vv = value[v]
            for dst, col in succ[v]:
                if dst not in value:
                    value[dst] = vv if col is None else trials.mul(vv, col)
                elif col is None:
                    value[dst] = trials.add(value[dst], vv)
                else:
                    value[dst] = trials.fma(value[dst], vv, col)
            if v not in is_terminal:
                del value[v]
        for x in terminals:
            if x != y and x in value:
                out[(y, x)] = value[x]
    return out


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
