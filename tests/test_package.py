"""The package surface: the names ``fttlab`` exports and the demos that use them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fttlab

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bessel", "chebyshev", "errors", "inequalities", "semigroup", "tridiagonal")


def test_exports_are_the_union_of_module_exports():
    modules = [importlib.import_module(f"fttlab.{name}") for name in MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert set(fttlab.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(fttlab, name) is getattr(module, name), name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
