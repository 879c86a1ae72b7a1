"""Alternating benchmark pairs of two commits, summarized as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 29 \\
        --group dense-layered:1 --group mixed-corpus:1 --group cli-fixtures:1 \\
        --group dense-layered:11 --group dense-layered:1:3:1

Run it from the root of the repository.  Each side is exported with
`git archive` into its own directory, so both run from their committed
files alone, and `perfbench/run.py` runs there as

    PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace <0|1>

A group is `WORKLOAD:SEED[:PAIRS[:TRACE]]` (10 pairs, untraced by default;
with no `--group`, every workload at seed 1), and a run lasts the
`run_seconds` that `BENCHMARK.json` sets.  A pair runs both sides back
to back, the parent first in even pairs and the change first in odd ones.
Uncommitted work can be measured as `--change "$(git stash create)"`,
which names the working tree's tracked files without touching a ref.

The file names the two revisions it measured, and keeps `--describe`'s
line in a field of its own, `describe`.  Per metric it holds each side's
runs, median and quartiles, the per-pair change/parent ratios, how many
pairs the change wins, and whether the medians differ by more than the
parent's quartile spread.  Per group it also holds each run's op counts,
passes and tail percentile, each side's distinct pass counts and whether
they differ (then `op_ms.tail` was read at different percentiles), and the
failing ops of each side with their error texts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-fixtures", "mixed-corpus", "dense-layered")
SIDES = ("parent", "change")
PAIRS = 10  # of a group that names no count
ERROR_CHARS = 60  # of an error text in a failing op's key
COMMAND = (
    "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py"
    " --workload <w> --seed <s> --seconds {seconds:g} --trace <t>"
)
METHOD = (
    "each side runs from its own `git archive` export; a pair runs both sides"
    " back to back, the parent first in even pairs and the change first in odd"
    " ones; quartiles are statistics.quantiles(n=4, method='inclusive') over the"
    " runs; ratios are change / parent per pair; failing_ops counts, for each"
    " failed op (verify_ok or replay_ok false), the runs of a side in which it"
    " failed, once per run however many passes the run made"
)


# ---------------------------------------------------------------------------
# summaries


def spread(runs):
    """Median and quartiles of one side's runs."""
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(parent, change, unit, better, bound=None):
    """One metric over paired runs: `parent[k]` and `change[k]` are pair k."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need paired runs, not {len(parent)} and {len(change)}")
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    p, c = spread(parent), spread(change)
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "ratio_change_over_parent": [b / a if a else None for a, b in zip(parent, change)],
        "change_wins": sum(g > 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def failing_ops(records):
    """Failed op -> the number of run records it failed in, keyed by graph,
    strategy, the step that raised and the start of its error text.  A run
    repeats its passes, so an op counts once per run, not once per pass."""
    counts = {}
    for record in records:
        failed = {
            f"{row['graph']} {row['strategy']} [{row['failed_step']}] {row['error'][:ERROR_CHARS]}"
            for row in record["ops"]
            if row["verify_ok"] is False or row["replay_ok"] is False
        }
        for key in failed:
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def run_facts(result, record):
    """What one run did besides its metrics."""
    extra = record.get("extra", {})
    tail = extra.get("op_ms.tail", {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": extra.get("passes"),
        "tail_percentile": tail.get("percentile"),
        "tail_samples": tail.get("samples"),
    }


def pass_counts(runs):
    """The distinct pass counts of each side's runs (from :func:`run_facts`),
    and whether the sides differ in them.  A run repeats passes until its
    time is up and `op_ms.tail` takes the value with a fixed number of ops
    above it, so runs of different pass counts read the tail at different
    percentiles."""
    counts = {side: sorted({run["passes"] for run in runs[side]}) for side in SIDES}
    return dict(counts, differ=counts["parent"] != counts["change"])


def summarize_group(workload, seed, traced, first, results, records, specs):
    """A group's entry: `results[side]` are the runs' last stdout lines,
    `records[side]` their `perfbench/out` records, `specs` the benchmark's
    metric name -> (better, bound)."""
    metrics = {}
    for name, unit in ((n, m["unit"]) for n, m in results["parent"][0]["metrics"].items()):
        better, bound = specs[name]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = summarize(runs["parent"], runs["change"], unit, better, bound)
    facts = {
        side: [run_facts(r, rec) for r, rec in zip(results[side], records[side])]
        for side in SIDES
    }
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "pairs": len(first),
        "first_in_pair": first,
        "metrics": metrics,
        "passes": pass_counts(facts),
        "runs": facts,
        "failing_ops": {side: failing_ops(records[side]) for side in SIDES},
    }


def header(revs, describe, seconds):
    """The summary's fields before its groups: the two revisions measured,
    the change's one-line description (empty when none was given), and how
    and where the runs were made."""
    return {
        "parent": revs["parent"],
        "change": revs["change"],
        "describe": describe,
        "command": COMMAND.format(seconds=seconds),
        "method": METHOD,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def metric_specs(benchmark):
    """Metric name -> (better, bound) from BENCHMARK.json."""
    specs = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    specs.update((m["name"], (m["better"], None)) for m in benchmark["per_layer"])
    return specs


def parse_group(text):
    """`WORKLOAD:SEED[:PAIRS[:TRACE]]` -> (workload, seed, pairs, traced)."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4 or parts[0] not in WORKLOADS:
        raise ValueError(f"bad group {text!r}: want WORKLOAD:SEED[:PAIRS[:TRACE]]")
    try:
        seed = int(parts[1])
        n = int(parts[2]) if len(parts) > 2 else PAIRS
        trace = int(parts[3]) if len(parts) > 3 else 0
    except ValueError:
        raise ValueError(f"bad group {text!r}: seed, pairs and trace are integers") from None
    if n < 1 or trace not in (0, 1):
        raise ValueError(f"bad group {text!r}: need pairs >= 1 and trace 0 or 1")
    return parts[0], seed, n, bool(trace)


# ---------------------------------------------------------------------------
# running


def export(rev, into):
    """The committed files of `rev` in directory `into`."""
    into.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)


def run_once(checkout, workload, seed, seconds, traced):
    """One benchmark run: its last stdout line and its `perfbench/out` record."""
    trace = int(traced)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"error: {' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    out = checkout / "perfbench" / "out" / f"{workload}.seed{seed}.trace{trace}.json"
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


def run_group(dirs, workload, seed, pairs, traced, seconds, log):
    first = [SIDES[k % 2] for k in range(pairs)]
    results = {side: [] for side in SIDES}
    records = {side: [] for side in SIDES}
    for k, lead in enumerate(first):
        for side in (lead, SIDES[lead == "parent"]):
            result, record = run_once(dirs[side], workload, seed, seconds, traced)
            results[side].append(result)
            records[side].append(record)
            shown = {n: round(m["value"], 3) for n, m in result["metrics"].items() if "ops_per_s" in n}
            log(f"{workload} seed {seed} pair {k + 1}/{pairs} {side}: {shown}")
    return first, results, records


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision of the parent")
    p.add_argument("--change", required=True, help="revision of the change")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--describe", default="", help="one line on what the change does")
    p.add_argument("--group", action="append", default=[], metavar="WORKLOAD:SEED[:PAIRS[:TRACE]]")
    args = p.parse_args(argv)
    try:
        groups = [parse_group(g) for g in args.group]
    except ValueError as exc:
        p.error(str(exc))
    groups = groups or [(w, 1, PAIRS, False) for w in WORKLOADS]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, seconds = metric_specs(benchmark), benchmark["run_seconds"]
    revs = {
        side: subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    log = lambda line: print(line, file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], dirs[side])
        summary = dict(header(revs, args.describe, seconds), groups=[])
        # rewritten after each group, so a stopped run keeps the groups it finished
        for w, s, n, t in groups:
            group = summarize_group(w, s, t, *run_group(dirs, w, s, n, t, seconds, log), specs)
            summary["groups"].append(group)
            if group["passes"]["differ"]:
                log(f"{w} seed {s}: passes differ (parent {group['passes']['parent']},"
                    f" change {group['passes']['change']}), so op_ms.tail is read at different percentiles")
            out.write_text(json.dumps(summary, indent=1) + "\n")
            log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
