"""One overflow rule: on finite input a result that leaves double precision
raises ``OverflowFailure``; no public function returns inf or nan instead.

The rule is written once, in ``_validate.finite``.  Each route below used to
leak an inf or a nan, a bare ``OverflowError``, or a ``ValueError`` about its
own intermediate; the source check keeps the rule in that one place.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fttlab as F
from fttlab.errors import OverflowFailure
from fttlab.tridiagonal import _eig_sturm_one

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
    # the image itself overflows: exp(J~ x) has entries near 1e304
    "gftt2_exact_lhs-image": lambda: F.gftt2_exact_lhs(np.array([1e200, 1e200]), 700.0, 1.0),
    "eig_sturm-width": lambda: F.eig_sturm(F.SymTridiagonal(np.zeros(2), np.array([1e200]))),
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


# routes whose numpy arithmetic still prints a RuntimeWarning before the guard
# raises; every other route must raise under warnings.simplefilter("error").
# These sit on the certify path, where an np.errstate per verify call measured
# 3-4% slower (see CHANGES.md)
STILL_WARNS = {
    *(f"verify-{kind.value}" for kind in F.InequalityKind),
    "difference_energy",
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_raises_overflow_failure(route):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always" if route in STILL_WARNS else "error")
        with pytest.raises(OverflowFailure, match="overflows double precision"):
            ROUTES[route]()
    # a route that stops warning leaves STILL_WARNS, so the set only shrinks
    assert any(issubclass(w.category, RuntimeWarning) for w in caught) == (route in STILL_WARNS)


@pytest.mark.parametrize("bisect", [F.eig_sturm, lambda tri: _eig_sturm_one(tri, tri.n - 1, 1e-13)],
                         ids=["eig_sturm", "one-bracket"])
@pytest.mark.parametrize("tri", [
    F.SymTridiagonal(np.zeros(2), np.array([1e200])),  # the squared off-diagonal overflows
    F.SymTridiagonal(np.array([1e300, -1e300]), np.ones(1)),  # only width / tol overflows
], ids=["offdiag", "width"])
def test_sturm_setup_overflow_raises_without_a_warning(bisect, tri):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowFailure, match="Gershgorin width / tol"):
            bisect(tri)


def test_operator_norm_of_entries_past_two_to_the_1023():
    # the power-of-two rescale used to ask for 2.0 ** 1024
    assert F.operator_norm(np.array([[1e308]])) == 1e308


FINITE_ROUTES = {
    # Sturm midpoints were 0.5 * (lo + hi), whose sum overflows past ~9e307
    "eig_sturm-midpoint": lambda: F.eig_sturm(
        F.SymTridiagonal(np.array([1e308]), np.array([]))).tolist(),
    "check_dissipative": lambda: [
        F.check_dissipative(F.UpperBidiagonal(1, 5e307)).max_eigenvalue],
}


@pytest.mark.parametrize("route", sorted(FINITE_ROUTES))
def test_route_keeps_a_finite_result_near_the_overflow_threshold(route):
    assert FINITE_ROUTES[route]() == [1e308]


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
        ("semigroup.py", "_expm_stack"),
    ]
