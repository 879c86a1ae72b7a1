"""Start-up: what `import jacfact` and each CLI subcommand load, and how the
CLI exits, checked in fresh interpreters, since this session has imported
every module already."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacfact

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# A child runs its code in dev mode with warnings as errors; at exit it prints
# as its last line the modules it loaded that are jacfact's, or dataclasses
# or json, so comparing that line with a set of jacfact modules also checks
# that dataclasses stayed out.
_PRELUDE = (
    "import atexit, sys\n"
    "_before = set(sys.modules)\n"
    "atexit.register(lambda: print(*sorted(\n"
    "    m for m in set(sys.modules) - _before\n"
    "    if m in ('dataclasses', 'json') or m.split('.')[0] == 'jacfact')))\n"
)


def run_fresh(code, *args):
    """(process, stdout before the module line, modules loaded) of a child."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _PRELUDE + code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    *out, loaded = proc.stdout.splitlines()
    return proc, "".join(line + "\n" for line in out), set(loaded.split())


def run_fresh_cli(*args):
    """`python -m jacfact.cli` in a child; a relative file name is read from
    fixtures/."""
    return run_fresh(
        "import runpy\nrunpy.run_module('jacfact.cli', run_name='__main__', alter_sys=True)\n",
        *[str(FIXTURES / a) if "." in a else a for a in args],
    )


BASE = {"jacfact", "jacfact.expr", "jacfact.graph"}
FACTORIZE = BASE | {"jacfact.structure", "jacfact.factorize", "jacfact.oracle"}
LOADS = [
    (("inspect", "fig9a.graph"), BASE | {"jacfact.structure"}),
    (("inspect", "fig9a.graph", "--format", "json"), BASE | {"jacfact.structure", "json"}),
    (("factorize", "fig4b.graph", "--direction", "backward"), FACTORIZE),
    (("factorize", "fig4b.graph", "--direction", "forward"), FACTORIZE),
    (("factorize", "fig4b.graph", "--direction", "refs"), FACTORIZE),
    (("factorize", "fig9a.graph", "--direction", "pages"), FACTORIZE),
    (("factorize", "fig4b.graph", "--direction", "backward", "--expr"), FACTORIZE),
    (("dot", "fig1a.graph"), BASE),
    (("dot", "fig1a.graph", "--line-graph"), BASE | {"jacfact.linegraph"}),
    (("verify", "eq1.exprs", "eq2.exprs"), BASE | {"jacfact.oracle"}),
    (
        ("eliminate", "fig4a.graph", "--from-exprset", "eq1.exprs"),
        BASE | {"jacfact.linegraph", "jacfact.relations"},
    ),
]


@pytest.mark.parametrize("args, modules", LOADS, ids=[" ".join(a) for a, _ in LOADS])
def test_each_subcommand_loads_only_what_it_runs(args, modules):
    proc, out, loaded = run_fresh_cli(*args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out
    assert loaded == modules


# expression sets the exit-code cases read, written under TMP
SETS = {
    "ab": "J[a,b] = x\n",
    "ac": "J[a,c] = x\n",
    "cyclic": "s1 = s2*a\ns2 = s1*b\nJ[v1,v7] = s1\n",
    "bad": "J[a,b] = (x\n",
}
EXITS = [
    (("verify", "TMP/ab.exprs", "TMP/ac.exprs"), 3, "entry supports differ"),
    (("verify", "TMP/cyclic.exprs", "TMP/cyclic.exprs"), 4, "cyclic reference"),
    (("eliminate", "fig4a.graph", "--from-exprset", "TMP/cyclic.exprs"), 4, "cyclic reference"),
    (
        ("eliminate", "fig9a.graph", "--from-exprset", "cyclic8.exprs"),
        4,
        "circular elimination dependencies",
    ),
    (("verify", "TMP/bad.exprs", "eq1.exprs"), 2, "line 1: expected ')'"),
    (("verify", "TMP/missing.exprs", "eq1.exprs"), 1, "cannot read"),
]


@pytest.mark.parametrize("args, code, message", EXITS, ids=[" ".join(a) for a, _, _ in EXITS])
def test_exit_codes_from_a_fresh_interpreter(tmp_path, args, code, message):
    for name, text in SETS.items():
        (tmp_path / f"{name}.exprs").write_text(text)
    proc, _, loaded = run_fresh_cli(*(a.replace("TMP", str(tmp_path)) for a in args))
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "dataclasses" not in loaded


def test_import_loads_no_submodule():
    proc, _, loaded = run_fresh("import jacfact\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert loaded == {"jacfact"}


def test_star_import_resolves_every_name_without_dataclasses():
    proc, _, loaded = run_fresh("from jacfact import *\nassert 'check_equiv' in dir()\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    modules = ("convert", "expr", "factorize", "graph", "linegraph", "localjac",
               "oracle", "relations", "structure")
    assert loaded == {"jacfact"} | {f"jacfact.{m}" for m in modules}


def test_public_names_are_their_submodules_attributes():
    for name in jacfact.__all__:
        module = importlib.import_module(f"jacfact.{jacfact._MODULE_OF[name]}")
        assert getattr(jacfact, name) is getattr(module, name)
    assert set(jacfact.__all__) <= set(dir(jacfact))
    assert "__version__" in dir(jacfact)
    assert "enumerate_paths" not in jacfact.__all__
    with pytest.raises(AttributeError, match="no attribute 'enumerate_paths'"):
        jacfact.enumerate_paths
    with pytest.raises(AttributeError):
        jacfact.no_such_name
