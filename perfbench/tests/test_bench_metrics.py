"""The metric names and units printed equal those in BENCHMARK.json."""
import json
import subprocess
import sys

import pytest

import inputs
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match():
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layers == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [inputs.WHY[w] for w in run.WORKLOADS]


def test_tail_has_ten_samples_beyond():
    walls = list(range(1, 31))
    value, pct, n = run.tail(walls)
    assert (value, n) == (20, 30)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)  # too few samples: the maximum


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match(trace, capsys, monkeypatch):
    """A short run (two fixture ops) prints exactly the declared metrics."""
    short = inputs.cli_corpus(0)[:2]
    monkeypatch.setattr(run, "build_ops", lambda workload, seed: short)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)
    run.main(["--workload", "cli-fixtures", "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    out = _last_json(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert out["correct"] is True and out["attempted"] >= 2 and out["failed"] == 0
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        covered = sum(m[k] for k in run.SELF_TIMES) + m["trace.unattributed_s"]
        assert covered == pytest.approx(m["trace.op_wall_s"], rel=1e-6)


def test_every_span_has_a_self_time_metric():
    assert sorted(run.SELF_TIMES) == sorted(f"{name}.self_s" for _, _, name in spans.SPANS)


def test_fails_without_the_sources(tmp_path):
    """In a directory with only the benchmark, it exits non-zero, no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.ROOT.joinpath("perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
