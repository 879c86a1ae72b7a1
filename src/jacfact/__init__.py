"""Optimal Jacobian accumulation toolkit for labeled differentiation DAGs.

Recognize chains and blocks, factorize complex blocks (backward, forward,
or with shared reference edges), plan multi-root/multi-terminal pages,
accumulate sparse local Jacobians, run face elimination on the line graph,
analyze elimination dependencies, and verify every transformation against a
multi-path chain-rule oracle: a dynamic-programming path sum that evaluates a
batch of randomized trials at once and returns one value column per entry.

``import jacfact`` loads no submodule: each public name below imports its
submodule on first use (PEP 562), so a process pays only for what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "convert": ("expr_to_graph", "graph_to_expr"),
    "expr": (
        "ExprSet", "Prod", "Sum", "Sym", "UNIT", "add", "canonical", "canonical_text",
        "equivalent_form", "expand_refs", "fma_cost", "format_expr", "format_exprset",
        "inline_single_use", "parse_expr", "parse_exprset", "prod",
    ),
    "factorize": (
        "Page", "Plan", "factorize_backward", "factorize_forward", "factorize_with_refs",
        "merge_pages", "plan", "plan_pages",
    ),
    "graph": (
        "DiffGraph", "Edge", "classify_vertices", "depth_levels", "format_graph",
        "parse_graph", "rt_degrees",
    ),
    "linegraph": (
        "build_line_graph", "eliminate_face", "extended_rewrite", "readout_jacobian",
        "run_elimination", "trace_mult_count",
    ),
    "localjac": (
        "LocalJacobian", "accumulate", "best_accumulation_order",
        "extract_local_jacobian", "left_assoc", "level_chain", "right_assoc",
    ),
    "oracle": ("bauer_eval", "check_equiv", "eval_expr", "eval_exprset", "instantiate"),
    "relations": (
        "CircularDependencyError", "build_dep_graph", "classify_relations",
        "detect_cycles", "lemma1_audit", "safe_elimination_order",
    ),
    "structure": ("find_structures", "segment_cross_level"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached here, so the name is always the submodule's current attribute
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
