"""Command-line front end.

Exit codes: 0 success, 1 usage error or a set that verifies but cannot replay,
2 parse error, 3 verification failure, 4 circular elimination dependencies or
references, 5 work budget exceeded (factorization or page planning did not
settle).  Outputs are deterministic for fixed inputs, flags and seed.
"""
from __future__ import annotations

import argparse
import re
import sys
from importlib import import_module

# every artifact loader needs these two; each subcommand imports the rest
from .expr import format_expr, format_exprset
from .graph import (
    GraphParseError,
    classify_vertices,
    depth_levels,
    format_graph,
    parse_graph,
    rt_degrees,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CYCLE = 4
EXIT_BUDGET = 5

# Library errors that exit with their own code, in the order main tries them
# as (module, class, code); any other ValueError, GraphError among them, is a
# usage error.  Each module is imported only once an error reaches main.
_ERROR_EXITS = (
    ("factorize", "FactorizationError", EXIT_BUDGET),
    ("oracle", "SupportMismatch", EXIT_VERIFY),
    ("relations", "CircularDependencyError", EXIT_CYCLE),
    ("expr", "CyclicReferenceError", EXIT_CYCLE),
)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE)


def load_artifact(path):
    """Sniff a file as a graph or an expression set: a graph's first
    content line is an edge line.  ``e = <expr>`` may also define a
    reference, so a file that starts so and is not a graph is read as an
    expression set."""
    text = _read(path)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "e":
            try:
                return "graph", parse_graph(text)
            except GraphParseError as exc:
                from .exprparse import _DEF_LINE

                if not _DEF_LINE.match(line):
                    raise CliError(f"{path}: {exc}", EXIT_PARSE)
        break
    from .exprparse import parse_exprset

    try:
        return "exprset", parse_exprset(text)
    except Exception as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE)


def load_graph(path):
    kind, art = load_artifact(path)
    if kind != "graph":
        raise CliError(f"{path}: expected a graph file", EXIT_USAGE)
    return art


def graph_dot(g):
    lines = ["digraph diffgraph {"]
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _self_verify(original, result, trials, seed):
    from . import oracle

    report = oracle.check_equiv(original, result, trials=trials, seed=seed)
    if not report.ok:
        pair, bad_seed, lhs, rhs = report.mismatches[0]
        raise CliError(
            f"internal error: output disagrees with input on {pair} "
            f"(seed {bad_seed}: {lhs} != {rhs})",
            EXIT_VERIFY,
        )


def cmd_inspect(args):
    from . import recognize

    g = load_graph(args.graph)
    y, z, x = classify_vertices(g)
    levels, cross = depth_levels(g)
    degrees = rt_degrees(g)
    structures = [s.record() for s in recognize.find_structures(g)]
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "roots": list(y),
                    "intermediates": list(z),
                    "terminals": list(x),
                    "levels": dict(sorted(levels.items())),
                    "cross_level_edges": sorted(cross),
                    "rt_degrees": {v: list(d) for v, d in sorted(degrees.items())},
                    "structures": structures,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"roots: {' '.join(y)}")
        print(f"intermediates: {' '.join(z)}")
        print(f"terminals: {' '.join(x)}")
        depth = max(levels.values())
        print(f"depth: {depth}")
        for v in sorted(levels):
            r, t = degrees[v]
            print(f"vertex {v}: level {levels[v]} degrees ({r},{t})")
        if cross:
            print(f"cross-level edges: {' '.join(sorted(cross))}")
        for rec in structures:
            print(
                f"structure {rec['kind']} {rec['src']} -> {rec['sink']} "
                f"[{' '.join(rec['edges'])}]"
            )
    return EXIT_OK


def cmd_factorize(args):
    from . import factorize

    if args.expr and args.direction not in ("backward", "forward"):
        raise CliError("--expr needs --direction backward or forward", EXIT_USAGE)
    for flag, value in (("--transcript", args.transcript), ("--pages-out", args.pages_out)):
        if value and args.direction != "pages":
            raise CliError(f"{flag} needs --direction pages", EXIT_USAGE)
    g = load_graph(args.graph)
    if args.expr and (len(g.roots) != 1 or len(g.terminals) != 1):
        raise CliError("--expr needs a graph with one root and one terminal", EXIT_USAGE)
    p = factorize.plan(g, args.direction)
    if args.direction in ("backward", "forward"):
        _self_verify(g, p.graph, args.trials, args.seed)
        print(format_graph(p.graph), end="")
        if args.expr:
            ((_, e),) = p.exprset.entries
            print(f"# expr: {format_expr(e)}")
    else:
        _self_verify(g, p.exprset, args.trials, args.seed)
        print(format_exprset(p.exprset), end="")
    if args.transcript:
        from . import pages

        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(pages.transcript_json(p.transcript))
    if args.pages_out:
        with open(args.pages_out, "w", encoding="utf-8") as fh:
            for page in p.pages:
                fh.write(f"# page {page.pid}\n")
                fh.write(format_graph(page.graph))
    return EXIT_OK


def _parse_order_file(text):
    from .exprparse import parse_expr

    order = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" in raw:
            cut = raw.index("|")
            spans = [(0, cut), (cut + 1, len(raw))]
        else:
            spans = [m.span() for m in re.finditer(r"\S+", raw)]
            if len(spans) != 2:
                raise CliError(
                    f"order line {lineno}: expected '<expr> | <expr>'", EXIT_PARSE
                )
        try:
            # each side parsed in place, so an error's position is in the line
            order.append(tuple(parse_expr(raw[:end], start) for start, end in spans))
        except Exception as exc:
            raise CliError(f"order line {lineno}: {exc}", EXIT_PARSE)
    return order


def cmd_eliminate(args):
    from . import linegraph, relations

    g = load_graph(args.graph)
    lg = linegraph.build_line_graph(g)
    defs = None
    if args.from_exprset:
        kind, s = load_artifact(args.from_exprset)
        if kind != "exprset":
            raise CliError(f"{args.from_exprset}: expected an expression set", EXIT_USAGE)
        try:
            order = relations.safe_elimination_order(s)
        except relations.CircularDependencyError as exc:
            for cyc in exc.cycles:
                print("cycle: " + " -> ".join(f"<{a},{b}>" for a, b in cyc))
            raise CliError(str(exc), EXIT_CYCLE)
        defs = s.def_map
    else:
        order = _parse_order_file(_read(args.order))
    trace = linegraph.run_elimination(lg, order, defs=defs)
    cost = linegraph.trace_mult_count(trace)
    entries = linegraph.readout_jacobian(lg)
    for (y, x), e in sorted(entries.items()):
        print(f"J[{y},{x}] = {format_expr(e)}")
    print(f"multiplications: {cost}")
    if args.trace:
        import json

        with open(args.trace, "w", encoding="utf-8") as fh:
            for step in trace:
                fh.write(json.dumps(step.record(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args):
    from . import oracle

    _, a = load_artifact(args.left)
    _, b = load_artifact(args.right)
    report = oracle.check_equiv(a, b, trials=args.trials, seed=args.seed)
    if args.format == "json":
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        if report.ok:
            print(f"PASS ({report.trials} trials, {report.mode})")
        else:
            pair, seed, lhs, rhs = report.mismatches[0]
            print(f"FAIL on {pair} (seed {seed}): {lhs} != {rhs}")
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_dot(args):
    art = load_graph(args.artifact)
    if args.line_graph:
        from . import linegraph

        print(linegraph.line_graph_dot(linegraph.build_line_graph(art)), end="")
    else:
        print(graph_dot(art), end="")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="jacfact",
        description="Jacobian accumulation planning on labeled DAGs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="partition, levels, degrees, structures")
    sp.add_argument("graph")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("factorize", help="factorize a graph")
    sp.add_argument("graph")
    sp.add_argument(
        "--direction",
        choices=("forward", "backward", "refs", "pages"),
        required=True,
    )
    sp.add_argument("--expr", action="store_true", help="append the expression")
    sp.add_argument("--transcript", help="write the rewrite transcript (JSON lines)")
    sp.add_argument("--pages-out", help="write the final pages as graph text")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("eliminate", help="run face elimination on the line graph")
    sp.add_argument("graph")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="face order file, one '<expr> | <expr>' per line")
    group.add_argument("--from-exprset", help="derive a safe order from this set")
    sp.add_argument("--trace", help="write the elimination trace (JSON lines)")
    sp.set_defaults(func=cmd_eliminate)

    sp = sub.add_parser("verify", help="randomized equivalence of two artifacts")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("dot", help="emit DOT for a graph or its line graph")
    sp.add_argument("artifact")
    sp.add_argument("--line-graph", action="store_true")
    sp.set_defaults(func=cmd_dot)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "trials", 1) < 1:
            parser.error(f"argument --trials: must be at least 1, not {args.trials}")
        if getattr(args, "seed", 0) < 0:
            parser.error(f"argument --seed: must be at least 0, not {args.seed}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc):
    for module, name, code in _ERROR_EXITS:
        if isinstance(exc, getattr(import_module(f".{module}", __package__), name)):
            return code
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
