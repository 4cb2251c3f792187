"""Contraction semigroups generated by dissipative matrices.

A matrix semigroup x -> exp(Qx) is a contraction (operator norm <= 1 for all
x >= 0) exactly when Q is dissipative; this module provides both routes to
that statement and keeps them strictly separate so they can check each other:

* ``expm_oracle``      - scaling-and-squaring Taylor exponential, the oracle
* ``exp_jordan_closed``- the closed form for bidiagonal Jordan-type blocks
* ``operator_norm``    - power iteration on M^T M inside a squaring bracket
* ``contraction_check``- norm curve of exp(Qx) over a grid

A norm curve is batched over the whole grid: one exponential of the
(k, n, n) stack of Qx, where each slice has its own scale, Taylor length and
squaring count, then one norm bracket and one power iteration run in
lockstep over the stack, where each slice stops at the step its own loop
would.  Each point keeps the bits of ``operator_norm(expm_oracle(Q, x))``;
those two public functions are the one-point calls of the same cores, and
where points fail, the error raised is the one of the first failing point.

On top sit the generalized sharp bound for the standard block,

    sum_{j=0}^{n-1} ( sum_{k=0}^{j} x^k/k! a_{n-j+k} )^2
        <= exp(2 x cos(pi/(n+1))) sum_j a_j^2,

whose left side is exactly ||exp(J_n(0) x) a||^2, and the free-end analogue.
For the free-end (modified) block only the exact semigroup quantity
``gftt2_exact_lhs`` obeys the corresponding bound; the tempting closed form
``gftt2_toeplitz_lhs`` built from the same x^k/k! coefficients plus an
e^{-x} tail term differs from the exact quantity for n >= 2 (the exponential
of the modified block is not Toeplitz: its last column holds terms like
2(1 - e^{-x/2}) where the polynomial form would put x).  The discrepancy
probe measures both that gap and whether the polynomial form even stays
below the bound; it is evidence-gathering, not an assertion.

``norm_preserving_subspace`` computes the subspace on which exp(Qx) acts as
an isometry, the kernel of I - exp(Q^T x) exp(Qx); for dissipative Q its
dimension does not depend on x > 0 and it is invariant under the semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_finite, as_int, as_square_matrix, as_vector, checked_exp, finite
from .errors import ConsistencyError, ConvergenceError, OverflowFailure
from .inequalities import CheckReport
from .rng import SplitMix64
from .tridiagonal import JordanVariant, UpperBidiagonal, dissipativity_threshold

__all__ = [
    "NormCurve",
    "SubspaceBasis",
    "StrictContractionReport",
    "Gftt2ProbeReport",
    "ProbeWitness",
    "expm_oracle",
    "exp_jordan_closed",
    "operator_norm",
    "default_contraction_grid",
    "contraction_check",
    "gftt_lhs",
    "gftt_check",
    "gftt2_toeplitz_lhs",
    "gftt2_exact_lhs",
    "gftt2_discrepancy_probe",
    "norm_preserving_subspace",
    "strict_contraction_check",
]

_TAYLOR_TOL = 1e-18  # expm_oracle sums its series until a term drops below this
_POWER_BUDGET = 10000  # power steps before an estimate counts as unsettled
_POWER_TOL = 1e-12  # relative change at which a power-iteration estimate counts as settled
_BOUND_SQUARINGS = 48  # normalized squarings of M^T M behind the operator-norm bracket
_BOUND_SLACK = 1e-6  # relative shortfall below the upper end at which an estimate is rejected


def expm_oracle(Q, x: float) -> np.ndarray:
    """exp(Qx) by scaling and squaring around a truncated Taylor core.

    The argument is halved until its 1-norm is at most 0.5, the series is
    summed until the additive term drops below 1e-18, and the result is
    squared back up.  Intermediate overflow raises ``OverflowFailure``.
    This is the one-point call of the grid-batched core behind
    ``contraction_check``, so a curve holds the bits of this function.
    """
    Q = as_square_matrix(Q, "Q")
    return _expm_stack(Q, np.array([as_finite(x, "x")]))[0]


def _expm_stack(Q: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """exp(Qx) for every x in xs as a (k, n, n) stack, each slice as ``expm_oracle``'s recipe.

    Every slice gets its own 2^-s scale, leaves the Taylor sum once its own
    term drops below 1e-18 and is squared its own s times, all through the
    same per-matrix products as a single call, so each slice keeps its bits.
    """
    with np.errstate(over="ignore"):  # the finite guard on the 1-norm raises right after
        A = Q * xs[:, None, None]
    # numpy's matrix 1-norm, column sums then their maximum, per slice
    squarings = []
    for anorm in np.abs(A).sum(axis=1).max(axis=1).tolist():
        s = 0 if anorm <= 0.5 else int(math.ceil(math.log2(finite(anorm / 0.5, "2 ||Qx||_1"))))
        if s > 64:
            raise OverflowFailure(f"argument norm {anorm!r} is out of range")
        squarings.append(s)
    squarings = np.array(squarings)
    A /= np.ldexp(1.0, squarings)[:, None, None]

    # Taylor phase on the whole stack: a slice whose term dropped below the
    # tolerance stops adding terms; four stack-sized arrays at most are alive
    term = np.broadcast_to(np.eye(Q.shape[0]), A.shape)
    result = term.copy()
    adding = np.ones((xs.size, 1, 1), dtype=bool)
    for k in range(1, 64):
        term = term @ A
        term /= k
        np.add(result, term, out=result, where=adding)
        # max |term| < tol without an |term| temporary; a NaN keeps its slice adding, as there
        adding &= ~((term.max(axis=(1, 2), keepdims=True) < _TAYLOR_TOL)
                    & (term.min(axis=(1, 2), keepdims=True) > -_TAYLOR_TOL))
        if not adding.any():
            break
    else:
        raise ConvergenceError("Taylor series for the scaled exponential did not settle")
    del A, term

    # overflow here is an expected, checked outcome, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(squarings.max())):
            live = np.flatnonzero(squarings > j)
            square = result[live]
            result[live] = square @ square
    return finite(result, "matrix exponential")


def _taylor_coefficients(n: int, x: float) -> np.ndarray:
    """x^k / k! for k = 0..n-1, by stable ratio accumulation."""
    coeff = np.empty(n)
    coeff[0] = 1.0
    for k in range(1, n):
        coeff[k] = coeff[k - 1] * x / k
    return coeff


def exp_jordan_closed(n: int, alpha: float, x: float) -> np.ndarray:
    """Closed form of exp(J_n(alpha) x): e^{alpha x} times Toeplitz x^k/k!.

    Only the standard variant has this form (the modified block's last column
    is not polynomial in x, hence the oracle); overflow raises ``OverflowFailure``.
    """
    n = as_int(n, "block size", minimum=1)
    alpha = as_finite(alpha, "alpha")
    x = as_finite(x, "x")
    row, col = np.triu_indices(n)
    out = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        out[row, col] = checked_exp(alpha * x) * _taylor_coefficients(n, x)[col - row]
    return finite(out, f"exp(J_n(alpha) x) at n={n}, alpha={alpha!r}, x={x!r}")


def _frobenius(B: np.ndarray) -> list[float]:
    """Frobenius norm of each slice of a C-contiguous (k, n, n) stack, as np.linalg.norm sums it."""
    flat = B.reshape(B.shape[0], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel().tolist()


def _norm_bracket(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lower <= sigma_max(M) <= upper per slice of M, each end up to 4 n eps off by rounding.

    B = M^T M is squared k times, rescaled to unit Frobenius norm before each
    squaring; ``upper`` = ||B^(2^k)||_F^(1/2^(k+1)), the product of the removed
    norms raised to the matching powers, falls to sigma_max as k grows.  The
    last B's largest column c is a witness: ``lower`` = ||M c|| / ||c||.
    """
    B = M.transpose(0, 2, 1) @ M
    norms = _frobenius(B)
    # the scalar factors stay Python floats, so sqrt and ** round as they did for one matrix
    upper = [math.sqrt(norm) for norm in norms]
    for k in range(1, _BOUND_SQUARINGS + 1):
        B /= np.array(norms)[:, None, None]
        B = B @ B
        norms = _frobenius(B)
        upper = [bound * norm ** (0.5 ** (k + 1)) for bound, norm in zip(upper, norms)]
    c = np.take_along_axis(B, (B * B).sum(axis=1).argmax(axis=1)[:, None, None], axis=2)
    w = M @ c
    lower = np.sqrt((w.transpose(0, 2, 1) @ w) / (c.transpose(0, 2, 1) @ c)).ravel()
    return lower, np.array(upper)


def operator_norm(M) -> float:
    """Largest singular value: power iteration on M^T M, checked against a bracket.

    Deterministic: the power iteration starts from all ones, and its
    estimate is kept once two consecutive relative changes fall below 1e-12
    and it lies within a relative 1e-6 of the upper end of ``_norm_bracket``.
    Any other estimate (the iterate fell into the kernel of M^T M, sat on an
    eigenvector for a smaller singular value or spent its budget) is replaced
    by the bracket's lower end, which is within 4 n eps of the norm.
    This is the one-matrix call of the lockstep iteration that
    ``contraction_check`` runs over a whole stack of exponentials.
    """
    return _operator_norms(as_square_matrix(M, "M")[None])[0]


def _power_run(M: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power iteration on each M[i]^T M[i] from ``start``, all slices in lockstep.

    Returns (sigma, settled): each slice stops at the step where a loop over
    that slice alone would stop, with the same products (matmul of a vector
    with itself is numpy's ddot, as ``w.dot(w)``), so its estimate keeps the
    bits of such a loop.  ``settled`` is False where the slice fell into the
    kernel of M^T M or spent the budget.
    """
    k, n, _ = M.shape
    sigma = np.empty(k)
    settled = np.zeros(k, dtype=bool)
    live = np.arange(k)
    MT = M.transpose(0, 2, 1)
    v = np.broadcast_to((start / math.sqrt(start.dot(start)))[:, None], (k, n, 1))
    sigma_prev = np.full((k, 1, 1), -1.0)
    close_prev = np.zeros((k, 1, 1), dtype=bool)
    for _ in range(_POWER_BUDGET):
        w = M @ v
        sig = np.sqrt(w.transpose(0, 2, 1) @ w)
        g = MT @ w
        gn = np.sqrt(g.transpose(0, 2, 1) @ g)
        close = np.abs(sig - sigma_prev) <= _POWER_TOL * np.maximum(sig, 1e-300)
        stop = close & close_prev  # two relative changes in a row within the tolerance
        # gn == 0: the iterate fell into the kernel of M^T M, so that slice stops unsettled
        if np.count_nonzero(stop) or np.count_nonzero(gn) < gn.size:
            kernel = (gn == 0.0).ravel()
            done = stop.ravel() | kernel
            sigma[live[done]] = sig[done].ravel()
            settled[live[done]] = ~kernel[done]
            keep = ~done
            live, M, sig, g, gn, close = live[keep], M[keep], sig[keep], g[keep], gn[keep], close[keep]
            if not live.size:
                return sigma, settled
            MT = M.transpose(0, 2, 1)
        v = g / gn
        sigma_prev, close_prev = sig, close
    sigma[live] = sigma_prev.ravel()
    return sigma, settled


def _operator_norms(M: np.ndarray) -> list[float]:
    """``operator_norm`` of every slice of a (k, n, n) stack."""
    largest = np.abs(M).max(axis=(1, 2))
    norms = [0.0] * largest.size
    live = np.flatnonzero(largest)
    if not live.size:
        return norms
    # power-of-two rescale, capped at 2^1023: keeps M^T M v finite for huge entries, exactly
    scale = np.ldexp(1.0, np.minimum(np.frexp(largest[live])[1], 1023))
    M = M[live] / scale[:, None, None]
    lower, upper = _norm_bracket(M)
    sigma, settled = _power_run(M, np.ones(M.shape[1]))
    sigma = np.where(settled & (sigma >= upper * (1.0 - _BOUND_SLACK)), sigma, lower)
    for i, s, c in zip(live.tolist(), sigma.tolist(), scale.tolist()):
        norms[i] = finite(s * c, f"operator norm ({s!r} * {c!r})")
    return norms


def default_contraction_grid() -> np.ndarray:
    """x = 0 plus 64 log-spaced points on [0.01, 10]."""
    return np.concatenate(([0.0], np.geomspace(0.01, 10.0, 64)))


@dataclass(frozen=True, eq=False)
class NormCurve:
    """Operator norms of exp(Qx) along a grid of x values."""

    xs: np.ndarray
    norms: np.ndarray

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def _validate_grid(xs, allow_zero: bool) -> np.ndarray:
    if xs is None:
        grid = default_contraction_grid()
        return grid if allow_zero else grid[1:]
    grid = as_vector(xs, "grid")
    lo = 0.0 if allow_zero else np.nextafter(0.0, 1.0)
    if np.min(grid) < lo or np.max(grid) > 50.0:
        bound = "[0, 50]" if allow_zero else "(0, 50]"
        raise ValueError(f"grid values must lie in {bound}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _in_grid_order(batch, Q: np.ndarray, xs: np.ndarray):
    """batch(Q, xs), or else the failure of the first x that fails on its own.

    A batch meets failures stage by stage, a loop over xs point by point.  A
    batch fails exactly when one of its points fails alone, so on failure
    the first half and then the second are replayed the same way, and the
    loop's error is raised.
    """
    try:
        return batch(Q, xs)
    except (OverflowFailure, ConvergenceError):
        if xs.size > 1:
            half = xs.size // 2
            _in_grid_order(batch, Q, xs[:half])
            _in_grid_order(batch, Q, xs[half:])
        raise


def _norm_curve(Q: np.ndarray, grid: np.ndarray) -> NormCurve:
    norms = _in_grid_order(lambda Q, xs: _operator_norms(_expm_stack(Q, xs)), Q, grid)
    return NormCurve(xs=grid, norms=np.array(norms))


def contraction_check(Q, xs=None) -> NormCurve:
    """Norms of exp(Qx) along the grid; judging them is the caller's business."""
    Q = as_square_matrix(Q, "Q")
    grid = _validate_grid(xs, allow_zero=True)
    return _norm_curve(Q, grid)


def _propagator_rows(a: np.ndarray, x: float) -> list[float]:
    """Entries of exp(J_n(0) x) a, last first: row j is sum_{k<=j} x^k/k! a_{n-j+k}."""
    n = a.size
    with np.errstate(over="ignore", invalid="ignore"):  # _squared_norm checks the total
        coeff = _taylor_coefficients(n, x)
        return [float(coeff[: j + 1] @ a[n - 1 - j:]) for j in range(n)]


def _squared_norm(total: float, rows: list[float], x: float) -> float:
    """total plus the squares of rows, raising ``OverflowFailure`` if that is not finite."""
    # an explicit loop: sum() or a dot product would change the rounding
    for inner in rows:
        total += inner * inner
    return finite(total, f"propagator terms at x={x!r}")


def gftt_lhs(a, x: float) -> float:
    """sum_j ( sum_{k<=j} x^k/k! a_{n-j+k} )^2, the squared norm of the
    unit-diagonal Jordan propagator applied to a.

    Polynomial in x, hence evaluated for any finite x; the sharp bound it
    enters is claimed for x >= 0 only.  Overflow raises ``OverflowFailure``.
    """
    a = as_vector(a, "a")
    x = as_finite(x, "x")
    return _squared_norm(0.0, _propagator_rows(a, x), x)


def gftt_check(a, x: float, tol: float = 1e-10) -> CheckReport:
    """Check gftt_lhs(a, x) <= exp(2 x cos(pi/(n+1))) sum a_j^2.

    The rate 2 cos(pi/(n+1)) is -2 dissipativity_threshold(n, STANDARD).
    """
    a = as_vector(a, "a")
    x = as_finite(x, "x", minimum=0.0)
    tol = as_finite(tol, "tol", minimum=0.0)
    lhs = gftt_lhs(a, x)
    alpha = dissipativity_threshold(a.size, JordanVariant.STANDARD)
    with np.errstate(over="ignore"):  # checked just below
        energy = float(a @ a)
    rhs = finite(checked_exp(-2.0 * x * alpha) * energy, "gftt bound")
    margin = lhs - rhs
    return CheckReport(lhs=lhs, rhs=rhs, margin=margin, holds=margin <= tol)


def gftt2_toeplitz_lhs(a, x: float) -> float:
    """Free-end analogue of ``gftt_lhs`` built from the same Toeplitz
    coefficients, with the last-coordinate term replaced by e^{-x} a_n^2.

    This is a *hypothesized* closed form: it is NOT the exact semigroup
    quantity for n >= 2 (see ``gftt2_discrepancy_probe``), and the bound it
    suggests fails for n = 2.  Kept because measuring that failure is part
    of this package's job.  Overflow raises ``OverflowFailure``.
    """
    a = as_vector(a, "a")
    x = as_finite(x, "x")
    with np.errstate(over="ignore"):  # _squared_norm checks the total
        last = float(a[-1] ** 2)
    return _squared_norm(checked_exp(-x) * last, _propagator_rows(a, x)[1:], x)


def gftt2_exact_lhs(a, alpha: float, x: float) -> float:
    """||exp(J~_n(alpha) x) a||^2 through the exponential oracle."""
    a = as_vector(a, "a")
    block = UpperBidiagonal(a.size, alpha, JordanVariant.MODIFIED)
    propagator = expm_oracle(block.to_dense(), x)
    with np.errstate(over="ignore"):  # checked just below
        image = propagator @ a
        energy = float(image @ image)
    return finite(energy, "squared norm of exp(J~_n(alpha) x) a")


@dataclass(frozen=True, eq=False)
class ProbeWitness:
    """An extremum found by the probe together with the sample attaining it."""

    value: float
    x: float
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class Gftt2ProbeReport:
    """Evidence about the hypothesized free-end closed form at one n.

    ``bound_excess``       max of (toeplitz form - claimed bound); a positive
                           value is a counterexample to the hypothesized bound.
    ``exact_discrepancy``  max of |toeplitz form - exact semigroup quantity|
                           (exact rescaled by e^{-2 alpha x}); zero only for n=1.
    """

    n: int
    samples: int
    seed: int
    alpha: float
    bound_excess: ProbeWitness | None
    exact_discrepancy: ProbeWitness | None


def gftt2_discrepancy_probe(n: int, samples: int, seed: int) -> Gftt2ProbeReport:
    """Sample the gap between the hypothesized closed form and reality.

    Draws ``samples`` pairs (a, x) with entries uniform on [-1, 1) and x
    uniform on [0, 5), reproducibly from the given seed.  Exit semantics are
    the caller's business: the probe only reports extrema, it never asserts.
    """
    n = as_int(n, "dimension", minimum=1)
    samples = as_int(samples, "sample count", minimum=0)
    alpha = dissipativity_threshold(n, JordanVariant.MODIFIED)
    rng = SplitMix64(seed)
    excess: ProbeWitness | None = None
    discrepancy: ProbeWitness | None = None
    for _ in range(samples):
        a = rng.vector(n)
        x = 5.0 * rng.uniform()
        toeplitz = gftt2_toeplitz_lhs(a, x)
        bound = math.exp(-2.0 * alpha * x) * float(a @ a)
        exact = math.exp(-2.0 * alpha * x) * gftt2_exact_lhs(a, alpha, x)
        e_val = toeplitz - bound
        d_val = abs(toeplitz - exact)
        if excess is None or e_val > excess.value:
            excess = ProbeWitness(value=e_val, x=x, a=a)
        if discrepancy is None or d_val > discrepancy.value:
            discrepancy = ProbeWitness(value=d_val, x=x, a=a)
    return Gftt2ProbeReport(
        n=n, samples=samples, seed=int(seed), alpha=alpha,
        bound_excess=excess, exact_discrepancy=discrepancy,
    )


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis, one column per basis vector (may be empty)."""

    vectors: np.ndarray
    dim: int


def _sym_max_eigenvalue(Q: np.ndarray) -> float:
    """Largest eigenvalue of Q + Q^T: the quadratic form's verdict on Q."""
    with np.errstate(over="ignore"):  # checked just below
        form = Q + Q.T
    return finite(float(np.linalg.eigvalsh(finite(form, "Q + Q^T"))[-1]), "max eig(Q + Q^T)")


def norm_preserving_subspace(Q, x: float, tol: float = 1e-8) -> SubspaceBasis:
    """Basis of the subspace on which exp(Qx) preserves the norm.

    Computed as the kernel of the symmetric Gram defect
    I - exp(Q^T x) exp(Qx): eigenvectors whose eigenvalue is within ``tol``
    of zero.  For dissipative Q the dimension is independent of x > 0, which
    is re-verified at 2x; a mismatch raises ``ConsistencyError`` (tol too
    loose, or Q not actually dissipative).
    """
    Q = as_square_matrix(Q, "Q")
    x = as_finite(x, "x", above=0.0)
    tol = as_finite(tol, "tol", above=0.0)
    sym_max = _sym_max_eigenvalue(Q)
    if sym_max > tol:
        raise ValueError(
            f"generator is not dissipative within tol: max eig(Q+Q^T) = {sym_max!r}"
        )
    n = Q.shape[0]

    def kernel(propagator: np.ndarray) -> np.ndarray:
        defect = np.eye(n) - propagator.T @ propagator
        defect = 0.5 * (defect + defect.T)
        eigenvalues, eigenvectors = np.linalg.eigh(defect)
        return eigenvectors[:, np.abs(eigenvalues) <= tol]

    basis, check = map(kernel, _in_grid_order(_expm_stack, Q, np.array([x, 2.0 * x])))
    if basis.shape[1] != check.shape[1]:
        raise ConsistencyError(
            f"norm-preserving dimension differs between x={x!r} ({basis.shape[1]}) "
            f"and 2x ({check.shape[1]}); tol too loose or Q not dissipative"
        )
    return SubspaceBasis(vectors=basis, dim=basis.shape[1])


@dataclass(frozen=True, eq=False)
class StrictContractionReport:
    """Strict-dissipativity classification with norm-grid evidence.

    ``is_strict`` is the quadratic-form verdict (max eig(Q+Q^T) < -tol).
    ``grid_strict`` records whether every sampled norm sits below 1 - tol.
    The form verdict implies strict contraction for every x > 0, and that
    sound direction is enforced; the converse can genuinely fail (a boundary
    block has all norms strictly below one while its form vanishes on some
    vector), so ``agree`` is reported rather than asserted.
    """

    is_strict: bool
    sym_max_eigenvalue: float
    curve: NormCurve
    grid_strict: bool
    agree: bool


def strict_contraction_check(Q, xs=None, tol: float = 1e-6) -> StrictContractionReport:
    """Classify strict dissipativity and gather norm-grid evidence.

    Raises ``ConsistencyError`` only when the classification is violated in
    the provable direction: a strictly negative form with some grid norm at
    or above 1 + tol.
    """
    Q = as_square_matrix(Q, "Q")
    tol = as_finite(tol, "tol", above=0.0)
    grid = _validate_grid(xs, allow_zero=False)
    sym_max = _sym_max_eigenvalue(Q)
    form_strict = sym_max < -tol
    curve = _norm_curve(Q, grid)
    if form_strict and curve.max_norm >= 1.0 + tol:
        raise ConsistencyError(
            f"strictly dissipative generator produced norm {curve.max_norm!r} >= 1"
        )
    grid_strict = bool(np.all(curve.norms < 1.0 - tol))
    return StrictContractionReport(
        is_strict=form_strict,
        sym_max_eigenvalue=sym_max,
        curve=curve,
        grid_strict=grid_strict,
        agree=form_strict == grid_strict,
    )
