"""Start-up guard: each command loads only the modules it uses.

numpy takes about half of a fresh interpreter's start-up, and only
``optimize`` and ``oracle`` use arrays; the golden tables, ``bounds`` and
``qkd`` load only for the commands that call them, and ``import espd``
loads no submodule at all.  No command loads ``dataclasses`` (with the
``inspect`` and ``ast`` it imports; the records are named tuples), and
only ``iterate``, which reads a JSON config, loads ``json``.  Each check
runs in a fresh interpreter,
because a module stays in ``sys.modules`` once anything in the test
session has imported it.

The CLI runs numpy's OpenBLAS single-threaded unless the user has set
``OPENBLAS_NUM_THREADS``; that is safe only while no espd code calls a BLAS
routine, which a scan of the source checks here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the imports a command pays for only if it uses them
_WATCHED = ("numpy", "dataclasses", "json")

# Runs one command (its argv after the code) through espd.cli.main, then
# reports its exit code, which _WATCHED modules were imported, and which
# espd submodules were.  It imports json only after taking that record.
_CLI = f"""
import sys
import espd.cli
rc = espd.cli.main(sys.argv[1:])
watched = [m for m in {_WATCHED!r} if m in sys.modules]
loaded = sorted(m[5:] for m in sys.modules if m.startswith("espd."))
import json
print(json.dumps([rc, watched, loaded]))
"""

# what every command loads: the CLI and the level map it is built on
_BASE = ["binomial", "cli", "dynamics"]


def _python(code: str, *args: str, cwd: Path, **env: str | None) -> str:
    """Run ``code`` in a fresh interpreter; an ``env`` value of None unsets it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env={key: value for key, value in env.items() if value is not None},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "statement",
    [
        "import espd",
        "import espd.cli",
        # what ``python -m espd --help`` runs, with sys.modules left to inspect
        "import runpy; sys.argv = ['espd', '--help']\n"
        "try:\n    runpy.run_module('espd', run_name='__main__')\n"
        "except SystemExit:\n    pass",
    ],
    ids=["import-espd", "import-espd-cli", "help"],
)
def test_import_and_help_leave_numpy_unloaded(tmp_path, statement):
    code = f"import sys\n{statement}\nprint([m for m in {_WATCHED!r} if m in sys.modules])"
    assert _python(code, cwd=tmp_path) == "[]"


RUN_JSON = {
    "eta0": 0.59, "d0": 0.01, "p": 0.98, "P": 0.97, "Q": 0.002,
    "schedule": [[4, 1], [4, 2]],
}


@pytest.mark.parametrize(
    "argv,rc,watched,own",
    [
        # table 3 carries a published misprint, so it exits 1
        (["tables", "--table", "3", "--out", "t3.csv"], 1, [], ["golden"]),
        (["figdata", "--figure", "2", "--out-dir", "fig"], 0, [], ["golden"]),
        (["fixedpoints", "--n", "4", "--k", "2"], 0, [], ["bounds"]),
        (["qkd", "--e-th", "0.11", "--e-c", "0.02", "--eta", "0.934", "--dcr", "8.5e-10"],
         0, [], ["qkd"]),
        (["iterate", "run.json", "--out", "traj.csv"], 0, ["json"], []),
        (["optimize", "--de-target", "0.9", "--dcr-target", "1e-3", "--max-levels", "1",
          "--n-max", "4", "--out", "s.csv"], 0, ["numpy"], ["_kernels", "optimize"]),
        (["oracle", "--n", "3", "--k", "2", "--trials", "1000"], 0, ["numpy"],
         ["_kernels", "oracle"]),
    ],
    ids=["tables", "figdata", "fixedpoints", "qkd", "iterate", "optimize", "oracle"],
)
def test_only_array_commands_load_numpy(tmp_path, argv, rc, watched, own):
    (tmp_path / "run.json").write_text(json.dumps(RUN_JSON), encoding="utf-8")
    out = _python(_CLI, *argv, cwd=tmp_path)
    assert json.loads(out) == [rc, watched, sorted(_BASE + own)]


def test_import_espd_loads_no_submodule_until_accessed(tmp_path):
    code = """
import json, sys
import espd
before = sorted(m for m in sys.modules if m.startswith("espd."))
# binomial first: later modules import it, which would set it as a side effect
names = ["binomial", "bounds", "dynamics", "qkd", "optimize", "oracle", "_kernels"]
kinds = [type(getattr(espd, name)).__name__ for name in names]
print(json.dumps([before, kinds]))
"""
    assert json.loads(_python(code, cwd=tmp_path)) == [[], ["module"] * 7]


def test_golden_and_cli_resolve_on_first_access(tmp_path):
    # neither is imported by the other, so each resolves through espd itself
    code = """
import json, sys
import espd
before = sorted(m for m in sys.modules if m.startswith("espd."))
print(json.dumps([before, sorted(espd.golden.TABLES), espd.cli.main.__name__]))
"""
    before, tables, main = json.loads(_python(code, cwd=tmp_path))
    assert (before, main) == ([], "main") and tables


def test_every_public_name_resolves_and_is_listed(tmp_path):
    code = """
import json, sys
import espd
listed = dir(espd)
unlisted = [n for n in espd.__all__ if n not in listed]
missing = [n for n in espd.__all__ if not hasattr(espd, n)]
namespace = {}
exec("from espd import *", namespace)
unstarred = [n for n in espd.__all__ if n not in namespace]
# the name table and each submodule's own __all__ name the same exports
drift = [f"{m}.{n}" for m, names in espd._MODULES.items() for n in names
         if n not in getattr(espd, m).__all__]
print(json.dumps([unlisted, missing, unstarred, drift, type(espd.optimize).__name__]))
"""
    assert json.loads(_python(code, cwd=tmp_path)) == [[], [], [], [], "module"]


# Runs one command through espd.cli.main, then reports its exit code, the OS
# threads left in the process, and the BLAS thread count it ran with.  A
# joined pool thread can linger in the OS for a moment after Python's join
# returns, so the count gets a second to settle; a BLAS worker never leaves.
_THREADS = """
import json, os, sys, time
import espd.cli
rc = espd.cli.main(json.loads(sys.argv[1]))
deadline = time.monotonic() + 1.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
tasks = len(os.listdir("/proc/self/task"))
print(json.dumps([rc, tasks, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

_OPTIMIZE = ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3", "--max-levels", "1",
             "--n-max", "4", "--out", "s.csv"]
_ORACLE = ["oracle", "--n", "3", "--k", "2", "--trials", "1000", "--threads", "2"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux procfs")
@pytest.mark.parametrize("argv", [_OPTIMIZE, _ORACLE], ids=["optimize", "oracle"])
def test_array_commands_leave_one_thread(tmp_path, argv):
    # numpy's OpenBLAS would start a worker thread per extra core on import
    out = _python(_THREADS, json.dumps(argv), cwd=tmp_path, OPENBLAS_NUM_THREADS=None)
    assert json.loads(out) == [0, 1, "1"]


def test_user_blas_threads_are_kept(tmp_path):
    out = _python(_THREADS, json.dumps(_ORACLE), cwd=tmp_path, OPENBLAS_NUM_THREADS="2")
    rc, _, blas = json.loads(out)
    assert (rc, blas) == (0, "2")


# numpy names that reach BLAS: a matrix product, or the modules built on one
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "kron"}


def _names(node: ast.AST) -> set[str]:
    """The names ``node`` reaches: ``np.dot``, ``import numpy.linalg``, ``from numpy import dot``."""
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_espd_calls_no_blas():
    found = set()
    for path in (SRC / "espd").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(getattr(node, "op", None), ast.MatMult) or _names(node) & _BLAS_NAMES:
                found.add((path.relative_to(SRC).as_posix(), node.lineno))
    assert not found, (
        f"BLAS call at {', '.join(f'{name}:{line}' for name, line in sorted(found))}: "
        "espd.cli.main defaults OPENBLAS_NUM_THREADS to 1 because espd calls no BLAS; "
        "revisit that default before such a call lands"
    )
