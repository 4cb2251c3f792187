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
from fttlab._validate import checked_exp
from fttlab.errors import OverflowFailure
from fttlab.tridiagonal import _eig_sturm_one
from test_tridiagonal import clamped_lockstep_sturm

SRC = Path(__file__).resolve().parent.parent / "src"

_HUGE = np.full(3, 1e200)

ROUTES = {
    # a false counterexample: holds=False with margin=nan for a true inequality
    **{f"verify-{kind.value}": (lambda kind=kind: F.verify(kind, _HUGE))
       for kind in F.InequalityKind},
    # a.a = 2e308 overflows, the energy 5e307 does not
    "verify-square": lambda: F.verify(F.InequalityKind.LOWER_PINNED, np.full(8, 5e153)),
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
    # -2 x alpha is inf for x = 1e308, and math.exp(inf) returns inf without an OverflowError
    "bound1": lambda: F.bound1(2, 1e308),
    "bound1-n1": lambda: F.bound1(1, 1e308),
    "bound2": lambda: F.bound2(2, 1e308),
    "u_eval": lambda: F.u_eval(5, 1e100),
    "u_diff_eval": lambda: F.u_diff_eval(5, 1e100),
    "operator_norm": lambda: F.operator_norm(np.full((2, 2), 1e308)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_raises_overflow_failure(route):
    # no route prints a numpy RuntimeWarning before the guard raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowFailure, match="overflows double precision"):
            ROUTES[route]()


@pytest.mark.parametrize("a", [[1.0, math.nan], [math.inf, 1.0], np.array([1e200, -math.inf])])
def test_verify_rejects_a_vector_that_is_not_finite(a):
    # a.a is not finite here either, so verify runs the isfinite pass it skips otherwise
    for kind in F.InequalityKind:
        with pytest.raises(ValueError, match="^a must be finite$"):
            F.verify(kind, a)


@pytest.mark.parametrize("bisect", [F.eig_sturm, lambda tri: _eig_sturm_one(tri, tri.n - 1, 1e-13)],
                         ids=["eig_sturm", "one-bracket"])
@pytest.mark.parametrize("tri", [
    F.SymTridiagonal(np.zeros(2), np.array([1e200])),  # the squared off-diagonal overflows
], ids=["offdiag"])
def test_sturm_setup_overflow_raises_without_a_warning(bisect, tri):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowFailure, match="Gershgorin width overflows"):
            bisect(tri)


@pytest.mark.parametrize("bisect", [lambda tri, tol: F.eig_sturm(tri, tol).tolist(),
                                    lambda tri, tol: [_eig_sturm_one(tri, i, tol) for i in range(2)]],
                         ids=["eig_sturm", "one-bracket"])
def test_sturm_bisection_of_a_finite_width_at_any_tol(bisect):
    # only width / tol overflowed here, a quotient that no sweep computes
    tri = F.SymTridiagonal(np.array([1e300, -1e300]), np.ones(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (1e-13, 5e-324):
            assert bisect(tri, tol) == [-1e300, 1e300]


@pytest.mark.parametrize("variant", list(F.JordanVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("alpha", [1e300, -1e300, -5e307, 8.9e307, 9e307])
def test_check_dissipative_keeps_the_plain_bits_at_any_alpha(alpha, variant):
    # the closed form 2 (alpha - threshold) guides its bisection; where 2 alpha
    # overflows, J^T + J is refused before any bisection runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 16):
            block = F.UpperBidiagonal(n, alpha, variant)
            if not math.isfinite(2.0 * alpha):
                with pytest.raises(OverflowFailure, match=r"J\^T \+ J overflows"):
                    F.check_dissipative(block)
                continue
            plain = _eig_sturm_one(F.symmetrize(block), n - 1, 1e-13)
            assert F.check_dissipative(block).max_eigenvalue.hex() == plain.hex()


@pytest.mark.parametrize("variant", list(F.JordanVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("alpha", [1e300, -1e300, -5e307, 8.9e307])
def test_the_steered_eig_sturm_keeps_the_clamped_bits_at_any_alpha(alpha, variant):
    # the closed-form guesses 2 alpha + 2 z and each distance |mid - guess| stay finite
    for n in (1, 2, 3, 16):
        tri = F.symmetrize(F.UpperBidiagonal(n, alpha, variant))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = F.eig_sturm(tri)
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in clamped_lockstep_sturm(tri).tolist()]


def test_exp_overflows_where_math_exp_does():
    # the old cut at 709.0 refused e^709.5 = 1.35e308
    assert checked_exp(709.78) == math.exp(709.78)
    with pytest.raises(OverflowFailure, match="exponent 709.79 overflows"):
        checked_exp(709.79)
    for exponent in (math.inf, math.nan):  # math.exp raises no OverflowError for these
        with pytest.raises(OverflowFailure, match=f"exponent {exponent!r} overflows"):
            checked_exp(exponent)
    assert checked_exp(-math.inf) == 0.0
    assert F.exp_jordan_closed(1, 709.5, 1.0)[0, 0] == math.exp(709.5)


def test_a_huge_dissipative_argument_needs_no_halving_cap():
    # past 64 halvings the argument used to be refused as out of range;
    # e^-1e19 and e^-1e20 are 0 in double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert F.expm_oracle(np.array([[-1e20]]), 1.0).tolist() == [[0.0]]
        curve = F.contraction_check(np.array([[-1e18]]))
    assert curve.max_norm <= 1.0 and curve.norms[-1] == 0.0


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


def _raise_sites(error: str) -> list[tuple[str, str]]:
    """(file, function) of every ``raise <error>`` under src/."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", getattr(exc, "attr", None)) == error:
                        sites.append((path.name, func.name))
    return sorted(sites)


def test_overflow_failure_is_raised_in_one_place():
    # every non-finite result goes through _validate.finite; checked_exp hands
    # math.exp's own OverflowError to it as inf, so no core has a threshold of its own
    assert _raise_sites("OverflowFailure") == [("_validate.py", "finite")]
    tree = ast.parse((SRC / "fttlab" / "_validate.py").read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "checked_exp")
    handlers = [node for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)]
    assert [getattr(h.type, "id", None) for h in handlers] == ["OverflowError"]
    # no comparison, so no numeric cut on the exponent
    assert not any(isinstance(node, ast.Compare) for node in ast.walk(func))


def test_convergence_failure_is_raised_only_where_a_loop_has_a_budget():
    # a loop that always ends by its own arithmetic, as the Taylor sum of a
    # scaled exponential, the bisections and the Bessel reference sum do, has
    # no convergence failure to report; inverse iteration fails on a shift
    # that is no eigenvalue
    assert _raise_sites("ConvergenceError") == [
        ("tridiagonal.py", "eigvec_inverse_iteration"),
        ("tridiagonal.py", "eigvec_inverse_iteration"),
    ]


def _index_assignments() -> list[tuple[str, str]]:
    """(file, function) of every assignment to an ``.index`` attribute under src/."""
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                if any(isinstance(t, ast.Attribute) and t.attr == "index" for t in targets):
                    sites.add((path.name, func.name))
    return sorted(sites)


def test_a_failure_is_placed_in_few_places():
    # finite names the failing slice of an array; a stack names its first failing x,
    # and a chunked pass adds its chunk's start
    assert _index_assignments() == [
        ("errors.py", "__init__"),
        ("semigroup.py", "_expm_stack"),
        ("semigroup.py", "_norm_curve"),
        ("semigroup.py", "gftt2_discrepancy_probe"),
    ]
