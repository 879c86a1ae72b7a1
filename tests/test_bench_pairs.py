"""The summaries of `tools/bench_pairs.py`, on synthetic runs."""
import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_spread_is_the_inclusive_median_and_quartiles():
    runs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bench_pairs.spread(runs) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": runs}
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "runs": [7.0]}
    ten = [float(k * k) for k in range(10)]
    s = bench_pairs.spread(ten)
    assert [s["q1"], s["median"], s["q3"]] == statistics.quantiles(ten, n=4, method="inclusive")


def test_summarize_counts_wins_by_the_better_direction():
    parent = [30.0, 31.0, 29.0, 30.0]
    change = [33.0, 31.0, 28.0, 34.0]
    up = bench_pairs.summarize(parent, change, "1/s", "higher", 0.25)
    assert (up["change_wins"], up["ties"]) == (2, 1)
    assert up["ratio_change_over_parent"] == [1.1, 1.0, 28 / 29, 34 / 30]
    assert up["unit"] == "1/s" and up["bound"] == 0.25
    down = bench_pairs.summarize(parent, change, "ms", "lower")
    assert (down["change_wins"], down["ties"]) == (1, 1)
    assert down["bound"] is None


def test_summarize_compares_the_median_gap_with_the_parent_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12, quartiles 11 and 13
    gap = lambda change: bench_pairs.summarize(parent, change, "s", "lower")["median_gap_exceeds_parent_iqr"]
    assert gap([14.5] * 5) and gap([9.9] * 5)
    assert not gap([14.0] * 5) and not gap([10.1] * 5)


def test_summarize_leaves_a_ratio_over_zero_out():
    out = bench_pairs.summarize([0, 2], [0, 1], "count", "lower")
    assert out["ratio_change_over_parent"] == [None, 0.5]
    assert (out["change_wins"], out["ties"]) == (1, 1)


def test_summarize_needs_paired_runs():
    with pytest.raises(ValueError, match="paired"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "s", "lower")


def _run(ops_per_s, failing=(), passes=2):
    result = {
        "correct": True,
        "attempted": 4,
        "failed": len(failing),
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms.tail": {"value": 1000 / ops_per_s, "unit": "ms"},
        },
    }
    ops = [
        {"graph": "g1", "strategy": "refs", "verify_ok": True, "replay_ok": True,
         "failed_step": None, "error": ""},
    ] + [
        {"graph": g, "strategy": "pages", "verify_ok": v, "replay_ok": r,
         "failed_step": step, "error": error}
        for g, v, r, step, error in failing
    ]
    extra = {"passes": passes, "op_ms.tail": {"percentile": 50.0, "samples": 4}}
    return result, {"extra": extra, "ops": ops * passes}


def test_summarize_group_keeps_runs_and_failing_ops():
    bad_replay = ("g2", True, False, "replay", "FaceError: no vertex labeled " + "x" * 80)
    bad_verify = ("g3", False, None, None, "")
    runs = {
        "parent": [_run(30.0, [bad_replay]), _run(31.0, [bad_replay, bad_verify])],
        "change": [_run(33.0, [bad_replay]), _run(32.0, [bad_replay])],
    }
    results = {side: [r for r, _ in pairs] for side, pairs in runs.items()}
    records = {side: [rec for _, rec in pairs] for side, pairs in runs.items()}
    specs = {"ops_per_s": ("higher", 0.25), "op_ms.tail": ("lower", 0.25)}
    group = bench_pairs.summarize_group(
        "dense-layered", 1, False, ["parent", "change"], results, records, specs
    )
    assert group["pairs"] == 2 and group["first_in_pair"] == ["parent", "change"]
    assert group["metrics"]["ops_per_s"]["change_wins"] == 2
    assert group["metrics"]["op_ms.tail"]["change_wins"] == 2
    assert group["metrics"]["op_ms.tail"]["unit"] == "ms"
    replay_key = "g2 pages [replay] FaceError: no vertex labeled " + "x" * 31
    assert group["failing_ops"] == {
        "parent": {replay_key: 2, "g3 pages [None] ": 1},
        "change": {replay_key: 2},
    }
    assert group["runs"]["parent"][1] == {
        "correct": True, "attempted": 4, "failed": 2,
        "passes": 2, "tail_percentile": 50.0, "tail_samples": 4,
    }


def test_summarize_group_says_when_the_sides_made_different_passes():
    specs = {"ops_per_s": ("higher", 0.25), "op_ms.tail": ("lower", 0.25)}

    def group(parent_passes, change_passes):
        runs = {
            "parent": [_run(30.0, passes=k) for k in parent_passes],
            "change": [_run(33.0, passes=k) for k in change_passes],
        }
        results = {side: [r for r, _ in pairs] for side, pairs in runs.items()}
        records = {side: [rec for _, rec in pairs] for side, pairs in runs.items()}
        first = ["parent", "change", "parent"][:len(parent_passes)]
        return bench_pairs.summarize_group("dense-layered", 1, False, first, results, records, specs)

    assert group([5, 5, 5], [6, 5, 6])["passes"] == {"parent": [5], "change": [5, 6], "differ": True}
    assert group([2, 3], [3, 2])["passes"] == {"parent": [2, 3], "change": [2, 3], "differ": False}
    assert group([2, 2], [2, 2])["passes"]["differ"] is False


def test_failing_ops_count_once_per_run_however_many_passes():
    bad = ("g2", True, False, "replay", "FaceError: no vertex labeled x")
    parent = [_run(30.0, [bad], passes=4)[1] for _ in range(2)]
    change = [_run(30.0, [bad], passes=5)[1] for _ in range(2)]
    counts = {"g2 pages [replay] FaceError: no vertex labeled x": 2}
    assert bench_pairs.failing_ops(parent) == bench_pairs.failing_ops(change) == counts


@pytest.mark.parametrize("text, want", [
    ("dense-layered:1", ("dense-layered", 1, 10, False)),
    ("mixed-corpus:11:4", ("mixed-corpus", 11, 4, False)),
    ("dense-layered:1:3:1", ("dense-layered", 1, 3, True)),
])
def test_parse_group(text, want):
    assert bench_pairs.parse_group(text) == want


@pytest.mark.parametrize("text", ["dense:1", "cli-fixtures", "cli-fixtures:x", "cli-fixtures:1:0", "cli-fixtures:1:2:2"])
def test_parse_group_rejects(text):
    with pytest.raises(ValueError, match="bad group"):
        bench_pairs.parse_group(text)


def test_metric_specs_read_the_benchmark_file():
    import json

    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    specs = bench_pairs.metric_specs(benchmark)
    assert specs["ops_per_s"] == ("higher", 0.25)
    assert specs["oracle.bauer_eval.self_s"] == ("lower", None)


def test_header_keeps_the_revisions_beside_the_description():
    revs = {"parent": "eb4f887", "change": "1dd5af1"}
    described = bench_pairs.header(revs, "one split direction", 5)
    assert (described["parent"], described["change"]) == ("eb4f887", "1dd5af1")
    assert described["describe"] == "one split direction"
    assert described["command"] == bench_pairs.COMMAND.format(seconds=5)
    plain = bench_pairs.header(revs, "", 5)
    assert (plain["change"], plain["describe"]) == ("1dd5af1", "")
