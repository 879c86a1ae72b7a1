"""jacfact benchmark: plan, verify and replay, end to end and per layer.

    python3 perfbench/run.py --workload mixed-corpus --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It imports `jacfact` from the
checkout's `src/`, as the tier-1 tests do.  One process, one thread, one
client in a closed loop: the next op starts when the previous one ends.
Ops run in passes over the workload's inputs, and the run stops at the
first pass boundary after `--seconds` of op time (in reference seconds), so
every run of a workload times the same set of ops.  Every reported time is scaled by the
machine's slowdown, measured by a fixed control timed between the ops (see
`calibrate.py`).

With `--trace 0` the last line of stdout is a JSON object with every
end-to-end metric; with `--trace 1` it holds every per-layer metric, taken
from one untraced and one traced pass.  Per-op rows and, when traced, all
spans are written under `perfbench/out/`.  See `perfbench/README.md`.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import inputs
import procs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("cli-fixtures", "mixed-corpus", "dense-layered")
SETUP_PROBES = 7
CLI_PROBES = 5

# name -> (unit, better, bound).  Times are scaled by the slowdown that the
# control measures; see perfbench/README.md for the spreads behind the bounds.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_ms.p50": ("ms", "lower", 0.25),
    "op_ms.tail": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

SELF_TIMES = tuple(f"{name}.self_s" for name in (
    "oracle.check_equiv", "oracle.bauer_eval", "oracle.eval_exprset",
    "factorize.backward", "factorize.forward",
    "factorize.refs", "factorize.pages", "structure.contract",
    "structure.region_expr", "structure.segment", "graph.parse",
    "graph.DiffGraph", "localjac.extract", "localjac.dp", "localjac.accumulate",
    "relations.safe_order", "linegraph.build", "linegraph.run_elimination",
    "linegraph.eliminate_face", "linegraph.readout", "linegraph.find_by_label",
    "expr.fma_cost", "expr.inline_single_use", "cli.main",
))

# name -> (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in SELF_TIMES},
    "oracle.paths": ("count", "lower"),
    "oracle.trials": ("count", "lower"),
    "structure.contract.calls": ("count", "lower"),
    "graph.DiffGraph.builds": ("count", "lower"),
    "factorize.out_edges": ("count", "lower"),
    "factorize.pages": ("count", "lower"),
    "factorize.refs_defs": ("count", "lower"),
    "relations.safe_order.faces": ("count", "lower"),
    "linegraph.faces": ("count", "lower"),
    "linegraph.ms_per_face": ("ms", "lower"),
    "linegraph.find_by_label.calls": ("count", "lower"),
    "expr.canonical.calls": ("count", "lower"),
    "cli.interp_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.import_networkx_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    **{f"fail.verify.{s}": ("count", "lower") for s in inputs.STRATEGIES},
    **{f"fail.replay.{s}": ("count", "lower") for s in inputs.EXPRSET_STRATEGIES + ("random",)},
    **{f"mults.{s}": ("count", "lower") for s in inputs.STRATEGIES},
    "fail_share.verify": ("ratio", "lower"),
    "fail_share.replay": ("ratio", "lower"),
    **{f"mults_ratio.{s}": ("ratio", "lower") for s in inputs.STRATEGIES[:4]},
    "check.disagree.verdict": ("count", "lower"),
    "check.disagree.cost": ("count", "lower"),
    "trace.op_wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library():
    """Import `jacfact` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "jacfact" / "__init__.py").is_file():
        sys.exit(f"error: no jacfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jacfact

    if Path(jacfact.__file__).resolve().parent != SRC / "jacfact":
        sys.exit(f"error: imported jacfact from {jacfact.__file__}, not {SRC}")
    return jacfact


def build_ops(workload, seed):
    if workload == "cli-fixtures":
        return inputs.cli_corpus(seed)
    if workload == "mixed-corpus":
        return inputs.mixed_corpus(seed)
    return inputs.dense_corpus(seed)


# ---------------------------------------------------------------------------
# measuring


def run_pass(ops_list, runner, seed, speed, deadline_s, tracer=None):
    """Every op once, in order, as `runner(op, deadline)`; each judged after
    its timer stops.  Each op's deadline is `deadline_s` scaled by the
    slowdown `speed` measured just before it, and controls follow it and its
    judging."""
    import ops

    results = []
    gc.collect()
    for k, op in enumerate(ops_list):
        slowdown = speed.slowdown
        if tracer is None:
            res = runner(op, deadline_s * slowdown)
        else:
            with tracer.op(k):
                res = runner(op, deadline_s * slowdown)
        res.slowdown = slowdown
        results.append(ops.judge(res, seed))
        # The next op and the controls start with no garbage left over, so
        # when the collector runs inside an op does not depend on the ops
        # before it; an op still pays for collecting its own garbage.
        gc.collect()
        res.mark = len(speed.samples)
        speed.sample(res.wall_s)
    return results


def run_passes(ops_list, runner, seed, speed, deadline_s, seconds):
    """Whole passes until at least `seconds` of op time, in reference
    seconds so that the number of passes does not follow the machine's
    speed; returns passes."""
    passes, busy = [], 0.0
    while busy < seconds or not passes:
        passes.append(run_pass(ops_list, runner, seed, speed, deadline_s))
        busy += sum(r.wall_s / r.slowdown for r in passes[-1])
    return passes


def tail(walls):
    """(value, percentile, samples): the highest percentile with at least
    ten samples above it, or the maximum when there are too few."""
    xs = sorted(walls)
    n = len(xs)
    rank = n - 10 if n > 10 else n
    return xs[rank - 1], 100.0 * rank / n, n


def time_subprocess(argv):
    wall, code, _ = procs.run(argv, 120, cwd=ROOT, env=child_env())
    if code:
        raise subprocess.CalledProcessError(code, argv)
    return wall


def setup_seconds(workload, seed):
    """Start, import jacfact and build inputs in a fresh interpreter, each
    time followed by a fresh control interpreter; returns the median of the
    scaled times and the median wall time, in seconds."""
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        walls.append(time_subprocess([sys.executable, probe, workload, str(seed)]))
        scaled.append(walls[-1] * calibrate.REF_SPAWN_S / calibrate.control_spawn())
    return statistics.median(scaled), statistics.median(walls)


def cli_probes():
    """Interpreter start-up, `import jacfact` and `import networkx`, in ms."""

    def median_ms(code):
        return 1000 * statistics.median(
            time_subprocess([sys.executable, "-c", code]) for _ in range(CLI_PROBES)
        )

    interp = median_ms("pass")
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": median_ms("import jacfact") - interp,
        "cli.import_networkx_ms": median_ms("import networkx") - interp,
    }


# ---------------------------------------------------------------------------
# metrics


def _strategy(res):
    return res.op.strategy.removeprefix("cli:")


def quality(results):
    """Failure and plan-cost metrics over one pass (deterministic per seed)."""
    m = {}
    planned = [r for r in results if _strategy(r) in inputs.STRATEGIES and r.verify_ok is not None]
    replayed = [r for r in results if r.replayed and r.op.strategy != "eliminate-random"]
    for s in inputs.STRATEGIES:
        mine = [r for r in planned if _strategy(r) == s]
        m[f"fail.verify.{s}"] = sum(not r.verify_ok for r in mine)
        m[f"mults.{s}"] = sum(r.mults or 0 for r in mine if r.verify_ok)
    for s in inputs.EXPRSET_STRATEGIES:
        m[f"fail.replay.{s}"] = sum(r.replay_ok is False for r in replayed if _strategy(r) == s)
    m["fail.replay.random"] = sum(
        r.replay_ok is False for r in results if r.op.strategy == "eliminate-random"
    )
    m["fail_share.verify"] = _share(sum(not r.verify_ok for r in planned), len(planned))
    m["fail_share.replay"] = _share(sum(not r.replay_ok for r in replayed), len(replayed))
    chain = {
        r.op.graph: r.mults for r in planned if _strategy(r) == "chain" and r.verify_ok and r.mults
    }
    for s in inputs.STRATEGIES[:4]:
        ratios = [
            r.mults / chain[r.op.graph]
            for r in planned
            if _strategy(r) == s and r.verify_ok and r.op.graph in chain
        ]
        m[f"mults_ratio.{s}"] = (
            math.exp(sum(math.log(x) for x in ratios) / len(ratios)) if ratios else 0.0
        )
    m["check.disagree.verdict"] = sum(r.verdict_disagrees for r in results)
    m["check.disagree.cost"] = sum(r.cost_disagrees for r in results)
    return m


def _share(part, whole):
    return part / whole if whole else 0.0


def end_to_end(workload, seed, results, speed):
    """The end-to-end metrics, and beside them the tail's percentile and
    the wall-clock values.

    Op times are scaled by the slowdown of the controls around each op; an
    op stopped at its deadline is scaled by the slowdown that set the
    deadline, so it reads as the deadline however fast the machine ran."""
    for r in results:
        r.ref_s = r.wall_s / (r.slowdown if r.timed_out else speed.around(r.mark))
    who = resource.RUSAGE_CHILDREN if workload == "cli-fixtures" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s, setup_wall = setup_seconds(workload, seed)

    def times(walls):
        value, pct, n = tail(walls)
        return {
            "ops_per_s": len(walls) / sum(walls),
            "op_ms.p50": 1000 * statistics.median(walls),
            "op_ms.tail": 1000 * value,
        }, pct, n

    scaled, pct, n = times([r.ref_s for r in results])
    wall, _, _ = times([r.wall_s for r in results])
    metrics = {"setup_s": setup_s, **scaled, "peak_rss_mb": peak_rss_mb}
    extra = {
        "op_ms.tail": {"percentile": pct, "samples": n},
        "slowdown": speed.run_slowdown,
        "wall": {"setup_s": setup_wall, **wall},
    }
    return metrics, extra


def per_layer(workload, seed, ops_list, runner):
    """One untraced pass, one traced pass, then the CLI probes.  Controls
    run between the ops only to scale their deadlines."""
    import ops
    import spans

    speed = calibrate.Speed(spawn=False)
    deadline_s = ops.DEADLINE_S[workload]
    untraced = run_pass(ops_list, runner, seed, speed, deadline_s)
    with spans.Tracer() as tracer:
        traced = run_pass(ops_list, runner, seed, speed, deadline_s, tracer)
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}.seed{seed}.spans.jsonl")

    m = {}
    for name in SELF_TIMES:
        m[name] = summary.get(name.removesuffix(".self_s"), {}).get("self_s", 0.0)
    calls = lambda name: summary.get(name, {}).get("calls", 0)
    m["structure.contract.calls"] = calls("structure.contract")
    m["graph.DiffGraph.builds"] = calls("graph.DiffGraph")
    m["linegraph.find_by_label.calls"] = calls("linegraph.find_by_label")
    for name in ("oracle.paths", "oracle.trials", "expr.canonical.calls",
                 "relations.safe_order.faces"):
        m[name] = tracer.counts.get(name, 0)
    sizes = lambda *names: sum(r.plan_size or 0 for r in untraced if r.op.strategy in names)
    m["factorize.out_edges"] = sizes("backward", "forward")
    m["factorize.pages"] = sizes("pages")
    m["factorize.refs_defs"] = sizes("refs")
    m["linegraph.faces"] = calls("linegraph.eliminate_face")
    face_s = tracer.outermost_s({"linegraph.run_elimination", "linegraph.eliminate_face"})
    m["linegraph.ms_per_face"] = 1000 * face_s / max(1, m["linegraph.faces"])
    op_wall = summary["op"]["total_s"]
    m["trace.op_wall_s"] = op_wall
    m["trace.unattributed_s"] = summary["op"]["self_s"]
    m["trace.untraced_ops_per_s"] = len(untraced) / sum(r.wall_s for r in untraced)
    m["trace.traced_ops_per_s"] = len(traced) / op_wall
    m["trace.overhead"] = m["trace.untraced_ops_per_s"] / m["trace.traced_ops_per_s"]
    m.update(cli_probes())
    if workload == "cli-fixtures":
        cli_results = untraced
        # the level-chain reference the CLI cannot produce, for mults_ratio
        chain_ops = [
            inputs.Op(name, "chain", inputs.fixture_text(name)) for name in inputs.CLI_FIXTURES
        ]
        chain_results = run_pass(chain_ops, ops.run_inprocess, seed, speed, deadline_s)
        m.update(quality(untraced + chain_results))
    else:
        cli_results = run_pass(
            inputs.cli_corpus(seed), ops.run_cli_inprocess, seed, speed, deadline_s
        )
        m.update(quality(untraced))
    m["cli.main_ms"] = 1000 * statistics.median(r.wall_s for r in cli_results)
    return m, untraced + traced


# ---------------------------------------------------------------------------
# main


def op_row(res):
    return {
        "graph": res.op.graph,
        "strategy": res.op.strategy,
        "wall_s": res.wall_s,
        "ref_s": res.ref_s,
        "failed_step": res.failed_step,
        "error": res.error,
        "verify_ok": res.verify_ok,
        "replay_ok": res.replay_ok,
        "mults": res.mults,
        "lib_ok": res.lib_ok,
        "lib_cost": res.lib_cost,
        "plan_size": res.plan_size,
        "replay_mults": res.replay_mults,
        "notes": res.notes,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_library()
    import ops

    ops_list = build_ops(args.workload, args.seed)
    extra = {}
    if args.trace:
        runner = ops.run_cli_inprocess if args.workload == "cli-fixtures" else ops.run_inprocess
        metrics, results = per_layer(args.workload, args.seed, ops_list, runner)
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
    else:
        speed = calibrate.Speed(spawn=args.workload == "cli-fixtures")
        if args.workload == "cli-fixtures":
            env = child_env()
            runner = lambda op, deadline_s: ops.run_cli_subprocess(op, ROOT, env, deadline_s)
        else:
            runner = ops.run_inprocess
        passes = run_passes(
            ops_list, runner, args.seed, speed, ops.DEADLINE_S[args.workload], args.seconds
        )
        results = [r for one in passes for r in one]
        metrics, extra = end_to_end(args.workload, args.seed, results, speed)
        units = {k: END_TO_END[k][0] for k in END_TO_END}
        extra["passes"] = len(passes)

    texts = list({op.graph: op.text for op in ops_list}.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": inputs.input_record(args.workload, texts),
        "metrics": metrics,
        "extra": extra,
        "ops": [op_row(r) for r in results],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    failed = sum(r.failed for r in results)
    silent = [r for r in results if r.silent]
    for name in units:
        note = ""
        if name in extra:
            note = f"  (p{extra[name]['percentile']:.1f} of {extra[name]['samples']} ops)"
        print(f"{args.workload:14s} {name:32s} {metrics[name]:14.6g} {units[name]}{note}")
    if "slowdown" in extra:
        print(f"{args.workload:14s} {'(slowdown)':32s} {extra['slowdown']:14.6g}"
              " (run mean; each op is scaled by the controls around it)")
    print(f"{args.workload}: {len(results)} ops, {failed} failed, {len(silent)} silently wrong; rows in {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not silent,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
