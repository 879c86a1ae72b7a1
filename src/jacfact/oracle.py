"""Ground-truth evaluation and randomized equivalence checking.

Bauer's multi-path chain rule gives a Jacobian entry as the sum over every
root-to-terminal path of the product of its edge labels.  Checks run in the
prime field GF(2^61 - 1), where multiplication commutes and
equality is exact, so the path sum is one forward dynamic-programming pass
over the topological order (vertex elimination) instead of an enumeration;
a random instantiation exposes any fixed polynomial discrepancy with
overwhelming probability.  The pass also counts paths exactly and keeps the
path guard of :func:`~jacfact.graph.enumerate_paths`.

:func:`check_equiv` evaluates each artifact once for all of its trials: a
:class:`Trials` batch holds, per label, its value in ``instantiate(labels,
seed + t)`` for each trial ``t``; every vertex, definition and entry carries
one value per trial, and structurally equal subterms share one column.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce

from . import expr as ex
from .expr import ExprSet, Prod, Sum, Sym, _Unit
from .graph import DEFAULT_PATH_GUARD, DiffGraph, PathGuardExceeded, UNIT_LABEL

PRIME = 2**61 - 1


class OracleError(ValueError):
    pass


class SupportMismatch(OracleError):
    pass


@dataclass
class Instantiation:
    values: dict
    seed: int

    def __getitem__(self, label):
        if label == UNIT_LABEL:
            return 1
        try:
            return self.values[label]
        except KeyError:
            raise OracleError(f"label {label} not instantiated") from None


def instantiate(labels, seed):
    """Nonzero ``random.Random(seed).randrange(2, PRIME - 1)`` for each non-unit
    label in sorted order (zero would mask dropped factors, one dropped units).
    CPython draws it as ``2 + getrandbits(61)`` unless the bits are ``PRIME - 3``
    or more (about one draw in 2^59); then ``randrange`` redraws the whole row."""
    keys = sorted(set(labels) - {UNIT_LABEL})
    rng = random.Random(seed)
    bits = rng.getrandbits
    row = [bits(61) + 2 for _ in keys]
    if keys and max(row) >= PRIME - 1:
        rng.seed(seed)
        row = [rng.randrange(2, PRIME - 1) for _ in keys]
    return Instantiation(dict(zip(keys, row)), seed)


@dataclass
class Trials:
    """A batch of instantiations as value columns: ``columns[label][t]`` is
    the label's value in trial ``t``.  Evaluating against a batch yields one
    such column per result."""

    columns: dict
    size: int
    single: bool = False  # built from one Instantiation: results are scalars

    @classmethod
    def of(cls, inst):
        if isinstance(inst, Trials):
            return inst
        columns = {label: [v] for label, v in inst.values.items()}
        return cls(columns, 1, single=True)

    def scalars(self, out):
        """Unwrap a {key: column} result when the batch is one Instantiation."""
        return {k: col[0] for k, col in out.items()} if self.single else out

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
    rows = [instantiate(keys, s).values.values() for s in range(seed, seed + trials)]
    return Trials(dict(zip(keys, map(list, zip(*rows)))), trials)


class _Columns:
    """Value columns of expressions over one batch of trials.

    Each product and sum node gets one column, so structurally equal
    subexpressions, which are one node, are evaluated once.  Factorized
    sets repeat the same subterm many times over (a dense 4x4 refs plan
    has 1680 products and sums, 240 of them distinct).
    """

    def __init__(self, trials, def_values):
        self.trials = trials
        self.def_values = def_values  # reference name -> column; may grow
        self.columns = {}  # product or sum -> value column

    def define(self, name, e):
        """Evaluate definition `name` = `e`; from here on `name` reads as
        the definition."""
        self.def_values[name] = self.of(e)
        if name in self.trials.columns:
            # columns worked out so far may have read the label of that name
            self.columns.clear()

    def of(self, e):
        """Value column of one expression, iteratively (no Python
        recursion).

        Children are visited left to right, so an uninstantiated label is
        reported where a recursive evaluation would first meet it.
        """
        trials, columns, def_values = self.trials, self.columns, self.def_values
        todo = [(e, False)]
        stack = []  # columns of the values computed so far
        while todo:
            node, ready = todo.pop()
            if isinstance(node, _Unit):
                stack.append(trials[UNIT_LABEL])
            elif isinstance(node, Sym):
                # a name reads as a label until a definition of it has been evaluated
                name = node.name
                stack.append(def_values[name] if name in def_values else trials[name])
            elif isinstance(node, (Prod, Sum)):
                if node in columns:
                    stack.append(columns[node])
                    continue
                is_prod = isinstance(node, Prod)
                kids = node.factors if is_prod else node.terms
                if not ready:
                    todo.append((node, True))
                    todo.extend((k, False) for k in reversed(kids))
                    continue
                split = len(stack) - len(kids)
                acc = reduce(trials.mul if is_prod else trials.add, stack[split:])
                del stack[split:]
                columns[node] = acc
                stack.append(acc)
            else:
                raise OracleError(f"not an expression: {node!r}")
        return stack[0]


def eval_expr(e, inst, def_values=None):
    """Value of one expression under one :class:`Instantiation`;
    ``def_values`` maps reference names to their values."""
    trials = Trials.of(inst)
    defs = {name: [v] for name, v in (def_values or {}).items()}
    return trials.scalars({None: _Columns(trials, defs).of(e)})[None]


def eval_exprset(s, inst):
    """Map (root, terminal) -> value, with each definition evaluated once."""
    trials = Trials.of(inst)
    def_map = s.def_map
    clean = set()
    columns = _Columns(trials, {})
    for name, e in s.defs:
        ex.check_references(e, def_map, clean)
        columns.define(name, e)
    out = {}
    for pair, e in s.entries:
        v = columns.of(e)
        out[pair] = trials.add(out[pair], v) if pair in out else v
    return trials.scalars(out)


def bauer_eval(g, inst, guard=DEFAULT_PATH_GUARD):
    """Jacobian entries as path sums, exact in the field.

    One forward pass over the topological order per root: each reached
    vertex carries its path sum per trial and its exact path count.  Raises
    :class:`~jacfact.graph.PathGuardExceeded` on the first (root, terminal)
    pair, roots and terminals in sorted order, with more than ``guard``
    paths.
    """
    trials = Trials.of(inst)
    terminals = g.terminals
    is_terminal = set(terminals)
    succ = {
        v: [(e.dst, None if e.label == UNIT_LABEL else trials[e.label]) for e in g.out_edges(v)]
        for v in g.vertices
    }
    out = {}
    for y in g.roots:
        value = {y: trials.constant(1)}
        count = {y: 1}
        for v in g.topo_order:
            if v not in value:
                continue
            vv, cv = value[v], count[v]
            for dst, col in succ[v]:
                if dst not in value:
                    value[dst] = vv if col is None else trials.mul(vv, col)
                    count[dst] = cv
                    continue
                if col is None:
                    value[dst] = trials.add(value[dst], vv)
                else:
                    value[dst] = trials.fma(value[dst], vv, col)
                count[dst] += cv
            if v not in is_terminal:
                del value[v]
        for x in terminals:
            if x == y or x not in count:
                continue
            if count[x] > guard:
                raise PathGuardExceeded(f"more than {guard} paths between {y} and {x}")
            out[(y, x)] = value[x]
    return trials.scalars(out)


# ---------------------------------------------------------------------------
# equivalence checking


def labels_of(artifact):
    if isinstance(artifact, DiffGraph):
        return {e.label for e in artifact.edges if e.label != UNIT_LABEL}
    if isinstance(artifact, ExprSet):
        return ex.base_symbols(artifact)
    if isinstance(artifact, dict):
        labels = set()
        for e in artifact.values():
            labels |= ex.free_symbols(e)
        return labels
    raise OracleError(f"cannot evaluate {type(artifact).__name__}")


def eval_artifact(artifact, inst):
    if isinstance(artifact, DiffGraph):
        return bauer_eval(artifact, inst)
    if isinstance(artifact, ExprSet):
        return eval_exprset(artifact, inst)
    if isinstance(artifact, dict):  # (root, terminal) -> Expr
        trials = Trials.of(inst)
        columns = _Columns(trials, {})
        return trials.scalars({pair: columns.of(e) for pair, e in artifact.items()})
    raise OracleError(f"cannot evaluate {type(artifact).__name__}")


@dataclass
class EquivReport:
    trials: int
    mismatches: list = field(default_factory=list)
    mode = "field"  # the arithmetic of every check

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
    """Randomized equivalence of two evaluatable artifacts.

    Supports must match exactly, and values are compared exactly in the
    field.  The report carries every mismatching (pair, seed), trial by
    trial, so a failure is reproducible.  Fewer than one trial, which
    would compare nothing, or a negative seed raises :class:`OracleError`.
    """
    if trials < 1:
        raise OracleError(f"need at least one trial, not {trials}")
    if seed < 0:  # Random(-k) is Random(k): trials would repeat
        raise OracleError(f"need a seed of at least 0, not {seed}")
    labels = labels_of(a) | labels_of(b)
    report = EquivReport(trials)
    batch = draw_trials(labels, seed, trials)
    va = eval_artifact(a, batch)
    vb = eval_artifact(b, batch)
    if set(va) != set(vb):
        missing = set(va) ^ set(vb)
        raise SupportMismatch(f"entry supports differ on {sorted(missing)}")
    pairs = [pair for pair in sorted(va) if va[pair] != vb[pair]]  # whole columns first
    for t in range(trials):
        report.mismatches += [(p, seed + t, va[p][t], vb[p][t]) for p in pairs if va[p][t] != vb[p][t]]
    return report
