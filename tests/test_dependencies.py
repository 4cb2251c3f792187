"""The runtime dependency boundary: numpy only, scipy only as a test oracle,
and numpy only where a command needs arrays.

``import fttlab`` loads its modules on first use, and the command line imports
each subcommand's modules in its handler, so the scalar commands start
without numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the scalar invocations of bench/cli_golden.json, with --help
SCALAR_COMMANDS = [
    "--version",
    "--help",
    "constants --n-range 1..8",
    "bessel-sweep --n 2 --grid 0:8:17",
    "threshold --n-range 2..4 --format json",
]

# runs python -m fttlab with the given arguments, then reports on stderr whether numpy was loaded
_REPORT_NUMPY = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr))\n"
    "sys.argv[0] = 'fttlab'\n"
    "runpy.run_module('fttlab', run_name='__main__', alter_sys=True)\n"
)

# the same, reporting the fttlab modules loaded instead
_REPORT_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('fttlab.')),\n"
    "                              file=sys.stderr))\n"
    "sys.argv[0] = 'fttlab'\n"
    "runpy.run_module('fttlab', run_name='__main__', alter_sys=True)\n"
)
_TRIDIAGONAL = ["fttlab._scalar", "fttlab._validate", "fttlab.errors", "fttlab.tridiagonal"]


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, env=env, check=True)


def test_import_loads_no_scipy():
    # every module is loaded first: import fttlab alone now loads none of them
    result = _python("-c", "import fttlab, importlib, pkgutil, sys\n"
                           "for info in pkgutil.iter_modules(fttlab.__path__):\n"
                           "    if info.name != '__main__':\n"
                           "        importlib.import_module('fttlab.' + info.name)\n"
                           "fttlab.__all__\n"
                           "print(sorted(m for m in sys.modules if m.startswith('fttlab.')))\n"
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    loaded, scipy_modules = result.stdout.splitlines()
    modules = sorted(f"fttlab.{path.stem}" for path in (SRC / "fttlab").glob("*.py")
                     if path.stem not in ("__init__", "__main__"))
    assert loaded == repr(modules) and scipy_modules == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["-c", "import sys, fttlab.tridiagonal; print(sorted(m for m in sys.modules "
            "if m.startswith('fttlab.')), file=sys.stderr)"], _TRIDIAGONAL),
    (["-c", _REPORT_MODULES, "verify", "--n", "3", "--samples", "2"],
     sorted(_TRIDIAGONAL + ["fttlab.cli", "fttlab.inequalities", "fttlab.rng"])),
    (["-c", _REPORT_MODULES, "semigroup-norm", "--n", "3", "--alpha", "-0.7", "--grid", "0:4:9"],
     sorted(_TRIDIAGONAL + ["fttlab.cli", "fttlab.inequalities", "fttlab.rng", "fttlab.semigroup"])),
], ids=["import-tridiagonal", "verify", "semigroup-norm"])
def test_chebyshev_loads_only_where_eig_sturm_steers(argv, loaded):
    # eig_sturm imports chebyshev for its closed-form guesses when it runs; these never run it
    assert _python(*argv).stderr.splitlines()[-1] == repr(loaded)


def test_import_loads_no_numpy_and_no_module():
    result = _python("-c", "import fttlab, sys; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'numpy' or m.startswith('fttlab.')))")
    assert result.stdout.strip() == "[]"


def test_dir_lists_every_export_from_a_cold_import():
    result = _python("-c", "import fttlab; names = set(dir(fttlab)); "
                           "print(len(fttlab.__all__), sorted(set(fttlab.__all__) - names))")
    count, missing = result.stdout.split(" ", 1)
    assert int(count) > 40 and missing.strip() == "[]"


@pytest.mark.parametrize("command", SCALAR_COMMANDS)
def test_scalar_command_runs_without_numpy(command):
    result = _python("-W", "error", "-c", _REPORT_NUMPY, *command.split())
    assert result.stdout
    assert result.stderr.splitlines()[-1] == "numpy loaded: False"


def test_array_command_still_loads_numpy():
    # the report above can tell: verify needs arrays
    result = _python("-c", _REPORT_NUMPY, "verify", "--n", "3", "--samples", "2")
    assert result.stderr.splitlines()[-1] == "numpy loaded: True"


def test_no_source_file_imports_scipy():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path
