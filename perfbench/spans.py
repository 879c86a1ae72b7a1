"""Spans around the library's layer entry points, recorded from outside.

`Tracer` wraps each entry point at every `jacfact` module namespace that
binds it (a function imported with `from .structure import contract` is
rebound in the importing module too), and methods on their class.  A span
is ``[name, start, end, parent, op]``; spans stay in memory and are written
out when the run ends.  Leaving the `with` block restores every original.

Self time is a span's duration minus the durations of its direct children.
The benchmark opens one ``op`` span per op, so for every op

    op wall = sum of self times of the spans under it + op self time,

and the op span's own self time is the part of the op no wrapped entry
point covers (the "unattributed" remainder).
"""
from __future__ import annotations

import contextlib
import json
import sys
import time

# (module, attribute, span name).  "Class.method" wraps a method.
SPANS = (
    ("jacfact.graph", "parse_graph", "graph.parse"),
    ("jacfact.graph", "DiffGraph.__init__", "graph.DiffGraph"),
    ("jacfact.structure", "contract", "structure.contract"),
    ("jacfact.structure", "region_expr", "structure.region_expr"),
    ("jacfact.structure", "segment_cross_level", "structure.segment"),
    ("jacfact.factorize", "factorize_backward", "factorize.backward"),
    ("jacfact.factorize", "factorize_forward", "factorize.forward"),
    ("jacfact.factorize", "factorize_with_refs", "factorize.refs"),
    ("jacfact.factorize", "plan_pages", "factorize.pages"),
    ("jacfact.localjac", "extract_local_jacobian", "localjac.extract"),
    ("jacfact.localjac", "best_accumulation_order", "localjac.dp"),
    ("jacfact.localjac", "accumulate", "localjac.accumulate"),
    ("jacfact.oracle", "check_equiv", "oracle.check_equiv"),
    ("jacfact.oracle", "bauer_eval", "oracle.bauer_eval"),
    ("jacfact.oracle", "eval_exprset", "oracle.eval_exprset"),
    ("jacfact.relations", "safe_elimination_order", "relations.safe_order"),
    ("jacfact.linegraph", "build_line_graph", "linegraph.build"),
    ("jacfact.linegraph", "run_elimination", "linegraph.run_elimination"),
    ("jacfact.linegraph", "eliminate_face", "linegraph.eliminate_face"),
    ("jacfact.linegraph", "readout_jacobian", "linegraph.readout"),
    ("jacfact.linegraph", "LineGraph.find_by_label", "linegraph.find_by_label"),
    ("jacfact.expr", "fma_cost", "expr.fma_cost"),
    ("jacfact.expr", "inline_single_use", "expr.inline_single_use"),
    ("jacfact.cli", "main", "cli.main"),
)

# (module, attribute, counter, size): no span, because they are called too
# often for a span each; the counter adds size(result), or 1 per call.
COUNTERS = (
    ("jacfact.expr", "canonical", "expr.canonical.calls", None),
    ("jacfact.oracle", "instantiate", "oracle.trials", None),
    ("jacfact.graph", "enumerate_paths", "oracle.paths", len),
)

# Counters taken from a spanned call's result: span name -> (counter, size).
RESULT_COUNTERS = {
    "relations.safe_order": ("relations.safe_order.faces", len),
}


def _lookup(module, dotted):
    owner = sys.modules[module]
    *path, attr = dotted.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install with ``with Tracer() as t:``; wrap each op in ``t.op(op_id)``."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None
        self._patched = []  # (owner, attr, original)

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        for module, dotted, name in SPANS:
            self._patch(module, dotted, lambda fn, name=name: self._span_wrapper(name, fn))
        for module, dotted, name, size in COUNTERS:
            self._patch(module, dotted, lambda fn, n=name, z=size: self._count_wrapper(n, z, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, module, dotted, make_wrapper):
        owner, attr = _lookup(module, dotted)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        if "." not in dotted:
            # every jacfact namespace that bound the same function object
            for name, mod in list(sys.modules.items()):
                if name == "jacfact" or name.startswith("jacfact."):
                    targets += [
                        (mod, key)
                        for key, val in vars(mod).items()
                        if val is original and mod is not owner
                    ]
        for obj, key in targets:
            self._patched.append((obj, key, original))
            setattr(obj, key, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self._op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, size, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + (1 if size is None else size(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops ------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        """One root ``op`` span for the duration of an op."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), None, None, op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            # A deadline alarm can land between a wrapper's bookkeeping
            # steps; close whatever it left open.
            now = time.perf_counter()
            for span in self.spans[idx:]:
                if span[2] is None:
                    span[2] = now
            del self._stack[self._stack.index(idx):]
            self._op = None

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total and self seconds; plus the op wall."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def outermost_s(self, names):
        """Seconds covered by spans named in `names`, nested ones once."""
        spans = self.spans
        return sum(
            end - start
            for name, start, end, parent, _ in spans
            if name in names and (parent is None or spans[parent][0] not in names)
        )

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"i": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
