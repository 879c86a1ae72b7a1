import json
import subprocess
import sys
from pathlib import Path

import pytest

from jacfact.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_fig9a(capsys):
    code, out, _ = run_cli(capsys, "inspect", str(FIXTURES / "fig9a.graph"))
    assert code == 0
    assert "vertex v1: level 1 degrees (2,4)" in out
    assert "vertex v9: level 5 degrees (4,2)" in out


def test_inspect_json(capsys):
    code, out, _ = run_cli(
        capsys, "inspect", str(FIXTURES / "fig4a.graph"), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["roots"] == ["v1"]
    kinds = {s["kind"] for s in data["structures"]}
    assert "direct-simple-block" in kinds


def test_inspect_trivial(capsys, tmp_path):
    p = tmp_path / "one.graph"
    p.write_text("e e1 a b\n")
    code, out, _ = run_cli(capsys, "inspect", str(p))
    assert code == 0 and "roots: a" in out


def test_inspect_malformed(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("e e1 a\n")
    code, _, err = run_cli(capsys, "inspect", str(p))
    assert code == 2
    assert "expected" in err


def test_factorize_backward_eq3(capsys):
    code, out, _ = run_cli(
        capsys,
        "factorize", str(FIXTURES / "fig4b.graph"),
        "--direction", "backward", "--expr",
    )
    assert code == 0
    assert "e8*e11+e9*e12" in out.splitlines()[-1]


def test_factorize_refs_cost10(capsys):
    code, out, _ = run_cli(
        capsys, "factorize", str(FIXTURES / "fig4b.graph"), "--direction", "refs"
    )
    assert code == 0
    assert out.startswith("s1 = e8*e11+e9*e12\n")


def test_factorize_pages_writes_artifacts(capsys, tmp_path):
    tr = tmp_path / "transcript.jsonl"
    pg = tmp_path / "pages.txt"
    code, out, _ = run_cli(
        capsys,
        "factorize", str(FIXTURES / "fig9a.graph"), "--direction", "pages",
        "--transcript", str(tr), "--pages-out", str(pg),
    )
    assert code == 0
    assert "J[v-2,v13] = e18*e4*e9*e16" in out
    lines = tr.read_text().splitlines()
    assert all(json.loads(l)["op"] for l in lines)
    assert pg.read_text().startswith("# page ")


def test_eliminate_from_exprset_cost5(capsys):
    code, out, _ = run_cli(
        capsys,
        "eliminate", str(FIXTURES / "fig4a.graph"),
        "--from-exprset", str(FIXTURES / "eq1.exprs"),
    )
    assert code == 0
    assert "multiplications: 5" in out


def test_eliminate_cycle_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "eliminate", str(FIXTURES / "fig9a.graph"),
        "--from-exprset", str(FIXTURES / "cyclic8.exprs"),
    )
    assert code == 4
    assert out.count("cycle:") == 1


def test_eliminate_order_file(capsys, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("e1 | e2\n")
    g = tmp_path / "chain.graph"
    g.write_text("e e1 a b\ne e2 b c\n")
    code, out, _ = run_cli(capsys, "eliminate", str(g), "--order", str(order))
    assert code == 0
    assert "J[a,c] = e1*e2" in out
    assert "multiplications: 1" in out


def test_eliminate_empty_order_trivial(capsys, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("")
    g = tmp_path / "one.graph"
    g.write_text("e e1 a b\n")
    code, out, _ = run_cli(capsys, "eliminate", str(g), "--order", str(order))
    assert code == 0
    assert "J[a,b] = e1" in out and "multiplications: 0" in out


def test_verify_pass_and_fail(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "fig4b.graph"), str(FIXTURES / "eq4.exprs")
    )
    assert code == 0 and out.startswith("PASS")
    bad = tmp_path / "bad.exprs"
    bad.write_text("J[v1,v7] = (e2*e3+e2*e4)*(e5*e7+e6*e8)\n")
    code, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "eq1.exprs"), str(bad)
    )
    assert code == 3 and out.startswith("FAIL")


def test_verify_support_mismatch(capsys, tmp_path):
    other = tmp_path / "other.exprs"
    other.write_text("J[v1,v6] = e1\n")
    code, _, err = run_cli(
        capsys, "verify", str(FIXTURES / "fig4a.graph"), str(other)
    )
    assert code == 3
    assert "support" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_is_a_usage_error(capsys, trials):
    code, out, err = run_cli(
        capsys, "verify", str(FIXTURES / "fig4a.graph"), str(FIXTURES / "fig4b.graph"),
        "--trials", trials,
    )
    assert code == 1 and not out
    assert "--trials: must be at least 1" in err
    code, out, err = run_cli(
        capsys, "factorize", str(FIXTURES / "fig4a.graph"), "--direction", "backward",
        "--trials", trials,
    )
    assert code == 1 and not out
    assert "--trials: must be at least 1" in err


@pytest.mark.parametrize("command", ["verify", "factorize"])
def test_negative_seed_is_a_usage_error(capsys, command):
    # Random(-k) is Random(k): a negative seed would repeat trials
    if command == "verify":
        args = [str(FIXTURES / "eq1.exprs"), str(FIXTURES / "eq2.exprs")]
    else:
        args = [str(FIXTURES / "fig4a.graph"), "--direction", "backward"]
    code, out, err = run_cli(capsys, command, *args, "--seed", "-50")
    assert code == 1 and not out
    assert "--seed: must be at least 0, not -50" in err


@pytest.mark.parametrize("line", ["J[a,b] = (x", "s1 = (x"])
def test_exprset_syntax_error_names_the_line_once(capsys, tmp_path, line):
    bad = tmp_path / "bad.exprs"
    bad.write_text(line + "\n")
    code, _, err = run_cli(capsys, "verify", str(bad), str(bad))
    assert code == 2
    assert err == f"error: {bad}: line 1: expected ')' (at position 2)\n"


def test_guard_exit_code(capsys, tmp_path):
    edges = []
    for i in range(25):
        edges.append(f"e a{i} n{i} m{i}a")
        edges.append(f"e b{i} n{i} m{i}b")
        edges.append(f"e c{i} m{i}a n{i+1}")
        edges.append(f"e d{i} m{i}b n{i+1}")
    p = tmp_path / "wide.graph"
    p.write_text("\n".join(edges) + "\n")
    other = tmp_path / "same.graph"
    other.write_text("\n".join(edges) + "\n")
    code, _, err = run_cli(capsys, "verify", str(p), str(other))
    assert code == 5
    assert "paths" in err


def test_dot_outputs(capsys):
    code, out, _ = run_cli(capsys, "dot", str(FIXTURES / "fig1a.graph"))
    assert code == 0 and out.count("->") == 5
    code, out, _ = run_cli(
        capsys, "dot", str(FIXTURES / "fig1a.graph"), "--line-graph"
    )
    assert code == 0
    assert out.count('label="e') == 5


def test_outputs_deterministic(capsys):
    _, out1, _ = run_cli(
        capsys, "factorize", str(FIXTURES / "fig9a.graph"), "--direction", "pages"
    )
    _, out2, _ = run_cli(
        capsys, "factorize", str(FIXTURES / "fig9a.graph"), "--direction", "pages"
    )
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["factorize", "nope.graph"]) == 1  # missing --direction


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jacfact.cli", "verify",
         str(FIXTURES / "eq1.exprs"), str(FIXTURES / "eq2.exprs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS")


def _diamond_chain(n):
    edges = []
    for i in range(n):
        edges.append(f"e a{i} n{i} m{i}a")
        edges.append(f"e b{i} n{i} m{i}b")
        edges.append(f"e c{i} m{i}a n{i+1}")
        edges.append(f"e d{i} m{i}b n{i+1}")
    return "\n".join(edges) + "\n"


@pytest.mark.parametrize("direction", ["refs", "backward"])
def test_factorize_long_chain(capsys, tmp_path, direction):
    p = tmp_path / "chain.graph"
    p.write_text("".join(f"e g{i} n{i} n{i + 1}\n" for i in range(1500)))
    code, out, err = run_cli(capsys, "factorize", str(p), "--direction", direction)
    assert code == 0, err
    assert "g1499" in out


def test_verify_many_paths(capsys, tmp_path):
    p = tmp_path / "diamonds.graph"
    p.write_text(_diamond_chain(19))  # 2^19 = 524288 paths, under the guard
    code, out, _ = run_cli(capsys, "verify", str(p), str(p))
    assert code == 0 and out.startswith("PASS")


def test_verify_deep_entry(capsys, tmp_path):
    from test_expr import deep_entry

    text, graph_text = deep_entry(2000)
    (tmp_path / "deep.graph").write_text(graph_text)
    (tmp_path / "deep.exprs").write_text(f"J[r,t] = {text}\n")
    code, out, err = run_cli(
        capsys, "verify", str(tmp_path / "deep.graph"), str(tmp_path / "deep.exprs")
    )
    assert code == 0, err
    assert out.startswith("PASS")
