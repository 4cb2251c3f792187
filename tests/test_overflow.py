"""One overflow rule: on finite input a result that leaves double precision
raises ``OverflowFailure``; no public function returns inf or nan instead.

The rule is written once, in ``_validate.finite``.  Each route below used to
leak an inf or a nan, a bare ``OverflowError``, or a ``ValueError`` about its
own intermediate; the source check keeps the rule in that one place.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fttlab as F
from fttlab.errors import OverflowFailure

SRC = Path(__file__).resolve().parent.parent / "src"

_HUGE = np.full(3, 1e200)

ROUTES = {
    # a false counterexample: holds=False with margin=nan for a true inequality
    **{f"verify-{kind.value}": (lambda kind=kind: F.verify(kind, _HUGE))
       for kind in F.InequalityKind},
    "difference_energy": lambda: F.difference_energy(_HUGE, F.InequalityKind.LOWER_FREE),
    "quad_form": lambda: F.quad_form(F.UpperBidiagonal(3, 0.5), _HUGE),
    "quad_form-modified": lambda: F.quad_form(
        F.UpperBidiagonal(3, 0.5, F.JordanVariant.MODIFIED), _HUGE),
    "det_recurrence": lambda: F.det_recurrence(F.SymTridiagonal(_HUGE, np.ones(2))),
    "gftt2_exact_lhs": lambda: F.gftt2_exact_lhs(np.array([1e200, 1.0]), -0.3, 0.5),
    "eig_sturm-width": lambda: F.eig_sturm(F.SymTridiagonal(np.zeros(2), np.array([1e200]))),
    "eig_sturm-midpoint": lambda: F.eig_sturm(F.SymTridiagonal(np.array([1e308]), np.array([]))),
    "gftt2_toeplitz_lhs": lambda: F.gftt2_toeplitz_lhs(np.array([1e200]), 0.0),
    "expm_oracle": lambda: F.expm_oracle(np.array([[1e300]]), 1e10),
    "expm_oracle-norm": lambda: F.expm_oracle(np.array([[1e308]]), 1.0),
    "norm_preserving_subspace": lambda: F.norm_preserving_subspace(
        np.diag([-1e300, -1.0]), 1e10),
    "strict_contraction_check": lambda: F.strict_contraction_check(
        np.diag([-1e308, 1.0]), xs=[1e-300]),
    "check_dissipative": lambda: F.check_dissipative(F.UpperBidiagonal(3, 1e308)),
    # a finite lhs against an inf bound: a = (-10t, t), t^2 = 1e307, x = 10
    "gftt_check": lambda: F.gftt_check(
        np.array([-10.0, 1.0]) * math.sqrt(1e307), 10.0),
    "u_eval": lambda: F.u_eval(5, 1e100),
    "u_diff_eval": lambda: F.u_diff_eval(5, 1e100),
    "operator_norm": lambda: F.operator_norm(np.full((2, 2), 1e308)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_raises_overflow_failure(route):
    with pytest.raises(OverflowFailure, match="overflows double precision"):
        ROUTES[route]()


def test_operator_norm_of_entries_past_two_to_the_1023():
    # the power-of-two rescale used to ask for 2.0 ** 1024
    assert F.operator_norm(np.array([[1e308]])) == 1e308


def _overflow_raises() -> list[tuple[str, str]]:
    """(file, function) of every ``raise OverflowFailure`` under src/."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", getattr(exc, "attr", None)) == "OverflowFailure":
                        sites.append((path.name, func.name))
    return sorted(sites)


def test_overflow_failure_is_raised_in_one_place():
    # every non-finite result goes through _validate.finite; checked_exp raises
    # before math.exp would, and expm_oracle refuses more than 64 squarings
    assert _overflow_raises() == [
        ("_validate.py", "checked_exp"),
        ("_validate.py", "finite"),
        ("semigroup.py", "expm_oracle"),
    ]
