"""Optimal Jacobian accumulation toolkit for labeled differentiation DAGs.

Recognize chains and blocks, factorize complex blocks (backward, forward,
or with shared reference edges), plan multi-root/multi-terminal pages,
accumulate sparse local Jacobians, run face elimination on the line graph,
analyze elimination dependencies, and verify every transformation against a
multi-path chain-rule oracle: a dynamic-programming path sum that evaluates a
batch of randomized trials at once and returns one value column per entry.
"""

from .convert import expr_to_graph, graph_to_expr
from .expr import (
    ExprSet,
    Prod,
    Sum,
    Sym,
    UNIT,
    add,
    canonical,
    canonical_text,
    equivalent_form,
    expand_refs,
    fma_cost,
    format_expr,
    format_exprset,
    inline_single_use,
    parse_expr,
    parse_exprset,
    prod,
)
from .factorize import (
    Page,
    factorize_backward,
    factorize_forward,
    factorize_with_refs,
    merge_pages,
    plan_pages,
)
from .graph import (
    DiffGraph,
    Edge,
    classify_vertices,
    depth_levels,
    enumerate_paths,
    format_graph,
    parse_graph,
    rt_degrees,
)
from .linegraph import (
    build_line_graph,
    eliminate_face,
    extended_rewrite,
    readout_jacobian,
    run_elimination,
    trace_mult_count,
)
from .localjac import (
    LocalJacobian,
    accumulate,
    best_accumulation_order,
    extract_local_jacobian,
    left_assoc,
    right_assoc,
)
from .oracle import bauer_eval, check_equiv, eval_expr, eval_exprset, instantiate
from .relations import (
    CircularDependencyError,
    build_dep_graph,
    classify_relations,
    detect_cycles,
    lemma1_audit,
    safe_elimination_order,
)
from .structure import find_structures, segment_cross_level

__version__ = "0.1.0"
