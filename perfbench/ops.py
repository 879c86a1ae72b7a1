"""The ops the benchmark times, and how each op's output is judged.

An op is one (graph, strategy) pipeline as a user runs it: parse the graph
text, plan and cost, self-verify with `check_equiv(trials=100)` as the CLI
does, and, for expression-set plans, replay the plan on the line graph.  A
step that raises ends the op.  Every library call goes through a module
attribute at call time, so the tracer's wrappers see it.

Judging happens after the timer stops and uses only `checker`; the
library's own verdict and `fma_cost` are kept beside it for comparison.
"""
from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
import time
from dataclasses import dataclass, field

import checker
import inputs
import procs
from jacfact import cli, expr, factorize, graph, linegraph, localjac, oracle, relations, structure

# An op that runs longer than its workload's deadline, in reference seconds
# (see calibrate.py), is stopped and counts as failed.  The level-chain
# dynamic program is cubic in the number of levels, so `chain` on the
# 1500-edge chain would otherwise run for hours.  Each deadline is at least
# three times the slowest op of its workload that finishes (mixed-corpus
# under 0.5 s, dense-layered under 3 s); the short one on mixed-corpus keeps
# the stopped DP from filling a third of the run and setting its peak RSS.
DEADLINE_S = {"cli-fixtures": 10.0, "mixed-corpus": 2.0, "dense-layered": 10.0}
VERIFY_TRIALS = 100


class OpTimeout(BaseException):
    """Raised inside an op by the deadline alarm; not an `Exception`, so
    library handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its deadline")


@dataclass
class OpResult:
    op: inputs.Op
    wall_s: float = 0.0
    timed_out: bool = False  # stopped at its deadline
    slowdown: float = 1.0  # measured before the op; sets its deadline
    mark: int = 0  # controls taken before the op, see calibrate.Speed.around
    ref_s: float = None  # wall_s scaled to the reference machine, see run.py
    failed_step: str = None  # "plan", "verify" or "replay" when a step raised
    error: str = ""
    plan_text: str = None  # expression-set plan as text
    graph_text: str = None  # factorized graph as text (backward, forward)
    lib_ok: bool = None
    lib_cost: int = None
    plan_size: int = None  # see _plan
    replayed: bool = False
    replay_mults: int = None
    readout_text: str = None
    cli_stdout: str = None
    cli_code: int = None
    # filled in by judge()
    verify_ok: bool = None
    replay_ok: bool = None
    mults: int = None
    verdict_disagrees: bool = False  # check_equiv and the checker differ
    cost_disagrees: bool = False  # fma_cost and the checker's count differ
    notes: list = field(default_factory=list)

    @property
    def failed(self):
        return self.verify_ok is False or self.replay_ok is False

    @property
    def silent(self):
        """Failed although no step raised and the program reported success:
        a wrong answer a user would have taken as right."""
        if not self.failed or self.failed_step is not None:
            return False
        if self.cli_code is not None:
            return self.cli_code == 0
        return self.lib_ok is not False


# ---------------------------------------------------------------------------
# in-process ops


def _level_chain(g):
    """`chain`: segment cross-level edges, one local Jacobian per level pair,
    the level-chain DP over all of them, then accumulate."""
    seg = structure.segment_cross_level(g)
    levels, _ = graph.depth_levels(seg)
    by_level = {}
    for v, lv in levels.items():
        by_level.setdefault(lv, []).append(v)
    rows = [sorted(by_level[lv]) for lv in sorted(by_level)]
    chain = [
        localjac.extract_local_jacobian(seg, rows[k], rows[k + 1])
        for k in range(len(rows) - 1)
    ]
    tree, _ = localjac.best_accumulation_order(chain, bound=len(chain))
    s, _ = localjac.accumulate(chain, tree)
    return s, len(chain)


def _region_set(out):
    """A factorized graph costed as its per-pair region expressions."""
    s = expr.ExprSet()
    for y in out.roots:
        for x in out.terminals:
            if graph.count_paths(out, y, x):
                s.add_entry(y, x, structure.region_expr(out, y, x))
    return s


def _plan(g, strategy):
    """(artifact to verify, expression set that carries the cost, size):
    size is output edges for backward/forward, definitions for refs, pages
    for pages and local Jacobians for chain."""
    if strategy in ("backward", "forward"):
        run = factorize.factorize_backward if strategy == "backward" else factorize.factorize_forward
        out = run(g)
        return out, _region_set(out), len(out.edges)
    if strategy == "refs":
        _, s = factorize.factorize_with_refs(g)
        return s, s, len(s.defs)
    if strategy == "pages":
        pages, s, _ = factorize.plan_pages(g)
        return s, s, len(pages)
    if strategy == "chain":
        s, size = _level_chain(g)
        return s, s, size
    raise ValueError(f"unknown strategy {strategy}")


def _replay(g, s):
    order = relations.safe_elimination_order(s)
    lg = linegraph.build_line_graph(g)
    trace = linegraph.run_elimination(lg, order, defs=s.def_map)
    readout = linegraph.readout_jacobian(lg)
    return linegraph.trace_mult_count(trace), readout


def _random_elimination(g, seed):
    """Total face elimination in a seeded random order."""
    rng = random.Random(seed)
    lg = linegraph.build_line_graph(g)
    mults = 0
    while True:
        faces = lg.intermediate_faces()
        if not faces:
            break
        i, j = rng.choice(faces)
        mults += sum(step.mult for step in linegraph.eliminate_face(lg, i, j))
    return mults, linegraph.readout_jacobian(lg)


def _readout_text(readout):
    return "".join(
        f"J[{y},{x}] = {expr.format_expr(e)}\n" for (y, x), e in sorted(readout.items())
    )


def _steps(op, res):
    """The timed body of an in-process op."""
    step = "plan"
    try:
        g = graph.parse_graph(op.text)
        if op.strategy == "eliminate-random":
            step = "replay"
            res.replayed = True
            res.replay_mults, readout = _random_elimination(g, op.arg)
            res.readout_text = _readout_text(readout)
            return
        artifact, s, res.plan_size = _plan(g, op.strategy)
        res.lib_cost = expr.fma_cost(s)
        if artifact is s:
            res.plan_text = expr.format_exprset(s)
        else:
            res.graph_text = graph.format_graph(artifact)
        step = "verify"
        res.lib_ok = oracle.check_equiv(g, artifact, trials=VERIFY_TRIALS).ok
        if op.strategy in inputs.EXPRSET_STRATEGIES:
            step = "replay"
            res.replayed = True
            res.replay_mults, readout = _replay(g, s)
            res.readout_text = _readout_text(readout)
    except (Exception, OpTimeout) as exc:
        res.timed_out = isinstance(exc, OpTimeout)
        res.failed_step = step
        res.error = f"{type(exc).__name__}: {str(exc)[:120]}"


def run_inprocess(op, deadline_s):
    """Run one op under the deadline; the result's wall time is the op's."""
    res = OpResult(op)
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        _steps(op, res)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        res.wall_s = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return res


# ---------------------------------------------------------------------------
# CLI ops


def run_cli_subprocess(op, root, env, deadline_s):
    """One `python -m jacfact.cli` process; the wall time includes start-up."""
    res = OpResult(op)
    res.wall_s, res.cli_code, res.cli_stdout = procs.run(
        [sys.executable, "-m", "jacfact.cli", *op.arg],
        deadline_s, capture=True, cwd=root, env=env,
    )
    res.timed_out = res.cli_code == -signal.SIGKILL
    return res


def run_cli_inprocess(op, deadline_s=None):
    """`cli.main` in this process with stdout captured (traced runs); no
    deadline, as no fixture comes near one."""
    res = OpResult(op)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            res.cli_code = cli.main(list(op.arg))
        except Exception as exc:  # the process would die with a traceback
            res.cli_code = 1
            res.error = f"{type(exc).__name__}: {str(exc)[:120]}"
    res.wall_s = time.perf_counter() - t0
    res.cli_stdout = buf.getvalue()
    return res


# ---------------------------------------------------------------------------
# judging


def judge(res, seed):
    """Fill in the checker's verdicts; notes record library disagreements."""
    op = res.op
    if op.strategy.startswith("cli:"):
        _judge_cli(res, seed)
        return res
    if res.failed_step in ("plan", "verify"):
        res.verify_ok = False
    elif op.strategy != "eliminate-random":
        if res.graph_text is not None:
            v = checker.judge_graph(op.text, res.graph_text, seed)
        else:
            v = checker.judge_exprset(op.text, res.plan_text, seed)
        res.verify_ok, res.mults = v.ok, v.mults
        if not v.ok:
            res.notes.append(f"plan rejected: {v.reason}")
        if res.lib_ok is not None and res.lib_ok != v.ok:
            res.verdict_disagrees = True
            res.notes.append(f"check_equiv says {res.lib_ok}, checker says {v.ok}")
        if res.lib_cost is not None and v.mults is not None and res.lib_cost != v.mults:
            res.cost_disagrees = True
            res.notes.append(f"fma_cost {res.lib_cost} != checker count {v.mults}")
    if res.replayed:
        if res.failed_step == "replay":
            res.replay_ok = False
        else:
            plan_mults = None if op.strategy == "eliminate-random" else res.mults
            v = checker.judge_replay(op.text, res.readout_text, res.replay_mults, plan_mults, seed)
            res.replay_ok = v.ok
            if not v.ok:
                res.notes.append(f"replay rejected: {v.reason}")
    return res


def _judge_cli(res, seed):
    """CLI ops: exit code 0 and stdout that the checker accepts."""
    kind = res.op.strategy[len("cli:"):]
    try:
        v = _cli_verdict(kind, res, seed)
    except ValueError as exc:  # output the checker cannot read
        v = checker.Verdict(False, f"unreadable output: {exc}")
    if kind == "eliminate":
        res.replayed, res.replay_ok = True, v.ok
    else:
        res.verify_ok, res.mults = v.ok, v.mults
    if not v.ok:
        res.notes.append(v.reason)


def _cli_verdict(kind, res, seed):
    op, out = res.op, res.cli_stdout
    if res.cli_code != 0:
        return checker.Verdict(False, f"exit code {res.cli_code}")
    if kind in ("refs", "pages"):
        return checker.judge_exprset(op.text, out, seed)
    if kind in ("backward", "forward"):
        return checker.judge_graph(op.text, out, seed)
    if kind == "inspect":
        return _judge_inspect(op.text, out)
    if kind == "dot":
        return _judge_dot(op.text, out)
    if kind == "eliminate":
        body, _, tail = out.rpartition("multiplications: ")
        plan_mults = checker.set_mults(checker.parse_exprset(op.exprs))
        return checker.judge_replay(op.text, body, int(tail), plan_mults, seed)
    # verify: the CLI's verdict must match the checker's
    want = checker.judge_exprset(op.text, op.exprs, seed)
    return checker.Verdict(out.startswith("PASS") == want.ok, "verdict differs from checker")


def _judge_inspect(graph_text, out):
    g = checker.parse_graph(graph_text)
    lines = dict(line.split(": ", 1) for line in out.splitlines() if line.startswith(("roots:", "terminals:")))
    ok = lines.get("roots", "").split() == g.roots() and lines.get("terminals", "").split() == g.terminals()
    return checker.Verdict(ok, "roots or terminals differ")


def _judge_dot(graph_text, out):
    g = checker.parse_graph(graph_text)
    labeled = sum(1 for line in out.splitlines() if "[label=" in line and "shape=" not in line)
    arcs = sum(1 for line in out.splitlines() if "->" in line)
    ok = (labeled, arcs) == checker.line_graph_shape(g)
    return checker.Verdict(ok, f"line graph has {labeled} vertices and {arcs} arcs")
