import json
import subprocess
import sys
from pathlib import Path

import pytest

from jacfact import factorize
from jacfact.cli import main
from jacfact.expr import Sym
from jacfact.exprparse import parse_expr

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


CHAIN = "e e1 r m a\ne e2 m n b\ne e3 n t c\n"


@pytest.mark.parametrize("first, second", [("s1", "s2"), ("s10", "s11")])
@pytest.mark.parametrize("command", ["eliminate", "verify"])
def test_reference_cycle_exit_code(capsys, tmp_path, command, first, second):
    g = tmp_path / "chain.graph"
    g.write_text(CHAIN)
    s = tmp_path / "cyc.exprs"
    s.write_text(f"{first} = {second}*a\n{second} = {first}*b\nJ[r,t] = {first}\n")
    args = ["--from-exprset", str(s)] if command == "eliminate" else [str(s)]
    code, out, err = run_cli(capsys, command, str(g), *args)
    assert (code, out) == (4, "")
    assert err == f"error: cyclic reference: {second} -> {first} -> {second}\n"


def test_forward_reference_verifies_and_replays(capsys, tmp_path):
    g = tmp_path / "chain.graph"
    g.write_text(CHAIN)
    s = tmp_path / "fwd.exprs"
    s.write_text("s2 = s1*c\ns1 = a*b\nJ[r,t] = s2\n")
    code, out, _ = run_cli(capsys, "verify", str(g), str(s))
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run_cli(capsys, "eliminate", str(g), "--from-exprset", str(s))
    assert code == 0 and out == "J[r,t] = a*b*c\nmultiplications: 2\n"


def test_self_verify_support_mismatch_exit_code(capsys, monkeypatch):
    plan = factorize.plan_pages

    def spurious(g):
        pages, s, transcript = plan(g)
        s.add_entry("v1", "v1", Sym("e1"))
        return pages, s, transcript

    monkeypatch.setattr(factorize, "plan_pages", spurious)
    code, out, err = run_cli(
        capsys, "factorize", str(FIXTURES / "fig4b.graph"), "--direction", "pages"
    )
    assert (code, out) == (3, "")
    assert err == "error: entry supports differ on [('v1', 'v1')]\n"


def test_self_verify_value_mismatch_exit_code(capsys, monkeypatch):
    plan = factorize.factorize_with_refs

    def wrong(g):
        out, s = plan(g)
        s.entries = [(p, parse_expr("e1*e3") if p == ("v1", "v9") else e) for p, e in s.entries]
        return out, s

    monkeypatch.setattr(factorize, "factorize_with_refs", wrong)
    code, out, err = run_cli(
        capsys, "factorize", str(FIXTURES / "fig4b.graph"), "--direction", "refs"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: internal error: output disagrees with input on ('v1', 'v9')")


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
    assert err == f"error: {bad}: line 1: expected ')' (at position {len(line)})\n"


def test_chain_of_40_diamonds_runs_every_subcommand(capsys, tmp_path):
    # 2^40 paths per entry
    p = tmp_path / "diamonds.graph"
    p.write_text(_diamond_chain(40))
    for direction in ("backward", "forward", "refs", "pages"):
        code, out, err = run_cli(capsys, "factorize", str(p), "--direction", direction)
        assert code == 0, (direction, err)
        if direction == "refs":
            (tmp_path / "refs.exprs").write_text(out)
    refs = str(tmp_path / "refs.exprs")
    code, out, err = run_cli(capsys, "verify", str(p), refs)
    assert code == 0, err
    assert out.startswith("PASS")
    code, out, err = run_cli(capsys, "eliminate", str(p), "--from-exprset", refs)
    assert code == 0, err
    assert out.endswith("multiplications: 119\n")


@pytest.mark.parametrize(
    "direction, message",
    [
        ("backward", "factorization did not settle"),
        ("forward", "factorization did not settle"),
        ("refs", "factorization did not settle"),
        ("pages", "page planning did not settle"),
    ],
)
def test_work_budget_exit_code(capsys, monkeypatch, direction, message):
    monkeypatch.setattr("jacfact.factorize._MAX_PASSES", 0)
    code, out, err = run_cli(
        capsys, "factorize", str(FIXTURES / "fig4b.graph"), "--direction", direction
    )
    assert (code, out, err) == (5, "", f"error: {message}\n")


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
    p.write_text(_diamond_chain(200))  # 2^200 paths
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


@pytest.mark.parametrize("direction", ["refs", "pages"])
def test_reference_names_skip_input_labels(capsys, tmp_path, direction):
    from conftest import fig4b_labeled_s1

    g = tmp_path / "fig4b_s1.graph"
    g.write_text(fig4b_labeled_s1())
    code, out, err = run_cli(capsys, "factorize", str(g), "--direction", direction)
    assert code == 0, err
    (tmp_path / "plan.exprs").write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(g), str(tmp_path / "plan.exprs"))
    assert code == 0 and out.startswith("PASS")


def test_reference_named_e_is_an_expression_set(capsys, tmp_path):
    p = tmp_path / "e.exprs"
    p.write_text("e = a*b\nJ[x,y] = e*c\n")
    (tmp_path / "flat.exprs").write_text("J[x,y] = a*b*c\n")
    code, out, err = run_cli(capsys, "verify", str(p), str(tmp_path / "flat.exprs"))
    assert code == 0, err
    assert out.startswith("PASS")


@pytest.mark.parametrize("first", ["e = a b x", "e =x a b x"])
def test_edge_id_starting_with_equals_is_a_graph(tmp_path, first):
    from jacfact.cli import load_artifact

    p = tmp_path / "g.graph"
    p.write_text(f"{first}\ne e2 b c y\n")
    kind, g = load_artifact(str(p))
    assert kind == "graph"
    assert [e.src for e in g.edges] == ["a", "b"]


def test_fixtures_load_by_their_kind():
    from jacfact.cli import load_artifact

    for path in sorted(FIXTURES.iterdir()):
        kind, _ = load_artifact(str(path))
        assert kind == {".graph": "graph", ".exprs": "exprset"}[path.suffix], path.name


@pytest.mark.parametrize(
    "graph, direction, flag, needs",
    [
        pytest.param("fig4b", "refs", ["--expr"], "--direction backward or forward",
                     id="refs-flag0-backward or forward"),
        pytest.param("fig4b", "pages", ["--expr"], "--direction backward or forward",
                     id="pages-flag1-backward or forward"),
        pytest.param("fig4b", "backward", ["--transcript", "t.jsonl"], "--direction pages",
                     id="backward-flag2-pages"),
        pytest.param("fig4b", "refs", ["--pages-out", "p.txt"], "--direction pages",
                     id="refs-flag3-pages"),
        # four roots and four terminals: no one expression to print
        pytest.param("fig9a", "backward", ["--expr"], "a graph with one root and one terminal",
                     id="fig9a-backward-expr"),
    ],
)
def test_flag_without_its_direction_is_a_usage_error(capsys, tmp_path, graph, direction, flag, needs):
    if len(flag) == 2:
        flag = [flag[0], str(tmp_path / flag[1])]
    code, out, err = run_cli(
        capsys, "factorize", str(FIXTURES / f"{graph}.graph"), "--direction", direction, *flag
    )
    assert code == 1 and out == ""
    assert f"{flag[0]} needs {needs}" in err
    assert list(tmp_path.iterdir()) == []  # no file written


_CHAIN = "# a chain\n\ne e1 a b\n  # indented comment\ne e2 b c\n"


@pytest.mark.parametrize(
    "files, args, code, expect",
    [
        pytest.param({"g.graph": "e e1 a a\n"}, ["inspect", "g.graph"],
                     2, "self loop on a", id="graph-self-loop"),
        pytest.param({"g.graph": "e e1 a b\ne e2 a b\n"}, ["inspect", "g.graph"],
                     2, "duplicate edge between a and b", id="graph-two-edges-on-a-pair"),
        pytest.param({"g.graph": _CHAIN, "s.exprs": "# plan\n\nJ[a,c] = e1*e2\n"},
                     ["verify", "g.graph", "s.exprs"],
                     0, "PASS (100 trials, field)\n", id="comments-and-blank-lines"),
        pytest.param({"g.graph": _CHAIN, "o.txt": "# first face\n\ne1 e2\n"},
                     ["eliminate", "g.graph", "--order", "o.txt"],
                     0, "J[a,c] = e1*e2\nmultiplications: 1\n", id="order-whitespace-form"),
        pytest.param({"g.graph": _CHAIN, "o.txt": "e1 | e2\ne1 e2 e3\n"},
                     ["eliminate", "g.graph", "--order", "o.txt"],
                     2, "order line 2: expected '<expr> | <expr>'", id="order-malformed-line"),
        pytest.param({"g.graph": _CHAIN, "o.txt": "# bad\n(e1 | e2\n"},
                     ["eliminate", "g.graph", "--order", "o.txt"],
                     2, "order line 2: expected ')'", id="order-bad-expression"),
        pytest.param({"g.graph": _CHAIN, "o.txt": "e1 | (e2\n"},
                     ["eliminate", "g.graph", "--order", "o.txt"],
                     2, "order line 1: expected ')' (at position 8)\n", id="order-error-column"),
        pytest.param({"s.exprs": "J[a,c] =   (e1\n"}, ["verify", "s.exprs", "s.exprs"],
                     2, "line 1: expected ')' (at position 14)\n", id="exprs-error-column"),
        pytest.param({"s.exprs": "J[a,c] = e1*e2\nnot a line\n"}, ["verify", "s.exprs", "s.exprs"],
                     2, "line 2: expected 'name = expr' or 'J[r,t] = expr'", id="exprs-malformed-line"),
        pytest.param({"g.graph": _CHAIN}, ["eliminate", "g.graph", "--from-exprset", "g.graph"],
                     1, "g.graph: expected an expression set", id="from-exprset-given-a-graph"),
    ],
)
def test_input_checks(capsys, tmp_path, files, args, code, expect):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    got, out, err = run_cli(capsys, *(str(tmp_path / a) if a in files else a for a in args))
    assert got == code
    if code == 0:
        assert (out, err) == (expect, "")
    else:
        assert out == "" and err.startswith("error: ") and expect in err


# Known defects: each test states the behavior a fix must bring, and is
# expected to fail until then, so the fix has to flip it.


@pytest.mark.xfail(strict=True, reason="merge hazard: the replay exits 1 with "
                   "'error: no vertex labeled g1' once (g0, g3) merges into g1")
def test_hazard6_replays_at_its_cost(capsys):
    code, out, err = run_cli(
        capsys, "eliminate", str(FIXTURES / "hazard6.graph"),
        "--from-exprset", str(FIXTURES / "hazard6.exprs"),
    )
    assert (code, err) == (0, "")
    assert "multiplications: 4" in out


@pytest.mark.xfail(strict=True, reason="the field oracle commutes, so verify prints "
                   "'PASS (100 trials, field)' for products in reverse order")
def test_order4_reversed_products_fail_verify(capsys):
    code, _, _ = run_cli(
        capsys, "verify", str(FIXTURES / "order4.graph"), str(FIXTURES / "order4.exprs")
    )
    assert code == 3


@pytest.mark.xfail(strict=True, reason="a product with the unit is built without it, so no "
                   "order names the face (b, 1): the replay exits 1 with "
                   "'error: 1 intermediate faces remain'")
def test_unit3_replays_its_unit_padded_sum(capsys):
    code, out, err = run_cli(
        capsys, "eliminate", str(FIXTURES / "unit3.graph"),
        "--from-exprset", str(FIXTURES / "unit3.exprs"),
    )
    assert (code, err) == (0, "")
    assert "J[v1,v2] = a+b" in out
    assert "multiplications: 0" in out
