"""Library input checks: each malformed call raises its module's error."""
import pytest

from jacfact.convert import expr_to_graph
from jacfact.expr import ExprError, Sym, format_expr, prod
from jacfact.graph import GraphError, parse_graph
from jacfact.linegraph import FaceError, build_line_graph, extended_rewrite, resolve_vertex
from jacfact.localjac import JacobianError, best_accumulation_order
from jacfact.oracle import OracleError, check_equiv, draw_trials
from jacfact.structure import StructureError, region_expr

_CHAIN = "e e1 a b\ne e2 b c\ne e3 c d\n"
_FORK = "e e1 a b\ne e2 a c\n"


def _extended_off_face():
    lg = build_line_graph(parse_graph(_CHAIN))
    i, j, k = (resolve_vertex(lg, name) for name in ("e1", "e3", "e2"))
    extended_rewrite(lg, "absorb-s-subset", i, j, k)


@pytest.mark.parametrize(
    "call, error, expect",
    [
        pytest.param(lambda: best_accumulation_order([]), JacobianError, "empty chain",
                     id="accumulation-order-of-no-chain"),
        pytest.param(lambda: region_expr(parse_graph(_FORK), "b", "c"), StructureError,
                     "no paths from b to c", id="region-without-paths"),
        pytest.param(_extended_off_face, FaceError, "not present", id="extended-rule-off-a-face"),
        pytest.param(lambda: resolve_vertex(build_line_graph(parse_graph(_CHAIN)), 3), FaceError,
                     "cannot resolve 3", id="resolve-a-vertex-id"),
        pytest.param(lambda: check_equiv(parse_graph(_CHAIN), object()), OracleError,
                     "cannot evaluate object", id="equiv-of-a-non-artifact"),
        pytest.param(lambda: draw_trials(["e1"], 0, 2)["e2"], OracleError,
                     "label e2 not instantiated", id="trials-of-an-undrawn-label"),
        pytest.param(lambda: parse_graph(_CHAIN).edge("nope"), GraphError,
                     "unknown edge id nope", id="edge-of-an-unknown-id"),
        pytest.param(lambda: format_expr(prod(Sym("a"), 5)), ExprError,
                     "not an expression: 5", id="format-a-non-expression"),
        pytest.param(lambda: expr_to_graph(prod(Sym("a"), 5)), StructureError,
                     "not an expression: 5", id="graph-of-a-non-expression"),
    ],
)
def test_library_input_checks(call, error, expect):
    with pytest.raises(error, match=expect):
        call()
