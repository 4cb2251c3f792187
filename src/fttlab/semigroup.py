"""Contraction semigroups generated by dissipative matrices.

A matrix semigroup x -> exp(Qx) is a contraction (operator norm <= 1 for all
x >= 0) exactly when Q is dissipative; this module provides both routes to
that statement and keeps them strictly separate so they can check each other:

* ``expm_oracle``      - scaling-and-squaring Taylor exponential, the oracle
* ``exp_jordan_closed``- the closed form for bidiagonal Jordan-type blocks
* ``operator_norm``    - power iteration on M^T M inside a squaring bracket
* ``contraction_check``- norm curve of exp(Qx) over a grid

A norm curve is one pass over the grid in chunks of a fixed byte budget,
each one exponential of the (k, n, n) stack of Qx, where a slice has its own
scale, Taylor length and squaring count and takes no Taylor product once its
series and those of the slices before it have ended, then one run of 32
power steps in lockstep, where a slice that settles stops at the step its
own loop would, then one norm bracket that squares each slice only until its
norm is decided: by a settled estimate within 1e-6 of the upper end, by a
bracket 4 eps wide (its lower end), or after 48 squarings (its lower end).
An exact multiple of the identity, as exp(0) is, keeps its settled estimate
without the bracket, which would admit it.
Each point keeps the bits of ``operator_norm(expm_oracle(Q, x))``, the
one-point calls of the same cores.  A chunk's exponentials and its norms are
each checked for overflow once, as whole arrays; a failing curve computes
nothing past its first failing point and raises that point's error.

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
below the bound; it is evidence-gathering, not an assertion.  It computes
its exponentials in the same chunked passes as a curve, each sample keeping
the bits of ``gftt2_exact_lhs``, and draws a chunk's samples in one
``vector`` call.

``norm_preserving_subspace`` computes the subspace on which exp(Qx) acts as
an isometry, the kernel of I - exp(Q^T x) exp(Qx); for dissipative Q its
dimension does not depend on x > 0 and it is invariant under the semigroup.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._validate import (
    as_finite, as_int, as_square_matrix, as_vector, as_vector_and_square, checked_exp, finite,
)
from .errors import ConsistencyError, NumericsError
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
_POWER_STEPS = 32  # power steps before an estimate counts as unsettled
_POWER_TOL = 1e-12  # relative change at which a power-iteration estimate counts as settled
_BOUND_SQUARINGS = 48  # normalized squarings of M^T M behind the operator-norm bracket
_BOUND_SLACK = 1e-6  # relative shortfall below the upper end at which an estimate is rejected
_BOUND_WIDTH = 4 * 2.0**-52  # relative bracket width at which a slice leaves the squaring loop
_CHUNK_BYTES = 8 * 2**20  # largest (k, n, n) stack of exponentials taken at once, in bytes


def expm_oracle(Q, x: float) -> np.ndarray:
    """exp(Qx) by scaling and squaring around a truncated Taylor core.

    The argument is halved until its 1-norm is at most 0.5, the series is
    summed until the additive term drops below 1e-18, and the result is
    squared back up.  ``OverflowFailure`` is raised where a value leaves
    double precision: an entry of the argument, then the squared result.  Any
    finite argument is scaled down; where its column sum overflows, the 1-norm
    is taken at the scale 2^-e, e the exponent of its largest entry.
    This is the one-point call of the grid pass behind ``contraction_check``,
    so a curve holds the bits of this function.
    """
    Q = as_square_matrix(Q, "Q")
    stack, error = _expm_stack(Q, np.array([as_finite(x, "x")]))
    if error is not None:
        raise error
    return stack[0]


def _expm_stack(Q: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, NumericsError | None]:
    """(stack, error): exp(Qx) by ``expm_oracle``'s recipe for each x in xs before
    the first that fails, and that x's error with its position in ``index``, else None.

    An x fails the first check that rejects it: an entry of Qx that overflows,
    which makes ||Qx||_1 inf, then the overflow of its squared result.  The
    second stage runs only on the slices before the first such x, so nothing
    past the first failing x is computed.  A slice of finite entries whose
    column sum overflows is measured as Qx 2^-e, e the exponent of max |Qx|,
    and takes e more halvings.  Every slice gets its own 2^-s scale, a product
    with 2^-s up to s = 1022 and ``np.ldexp`` beyond, with the same bits.  It
    leaves the Taylor sum once its own term drops below 1e-18; from the round
    in which no slice before it still adds, it takes no more products.  It is
    squared its own s times, all through the same per-matrix products as a
    single call, so each slice keeps its bits.
    The sum always ends: a scaled slice has ||A||_1 <= 1/2, so its k-th term is
    at most 2^-k / k!, below 1e-18 from k = 16 on.
    """
    with np.errstate(over="ignore"):  # an overflowed argument fails its 1-norm check below
        A = Q * xs[:, None, None]
        # numpy's matrix 1-norm, column sums then their maximum, per slice
        anorms = np.abs(A).sum(axis=1).max(axis=1).tolist()
    shifts = [0] * xs.size
    for i in [i for i, a in enumerate(anorms) if a == math.inf]:
        largest = max(A[i].max(), -A[i].min())  # max |A[i]|, inf where an entry overflowed
        if largest == math.inf:
            break
        shifts[i] = math.frexp(largest)[1]
        anorms[i] = float(np.abs(np.ldexp(A[i], -shifts[i])).sum(axis=0).max())
    in_range = next((i for i, a in enumerate(anorms) if a == math.inf), xs.size)
    # s of the 2^-s scale: e, plus halvings to a 1-norm of at most 0.5; 1025 once a / 0.5 is inf
    squarings = np.array([e + (0 if a <= 0.5 else math.ceil(min(math.log2(a / 0.5), 1025.0)))
                          for e, a in zip(shifts, anorms[:in_range])], dtype=int)
    A = A[:in_range]
    _scale_by_power_of_two(A, -squarings)

    # Taylor phase: term k is A^k / k!, the first A itself.  Each round works on
    # the window of slices from the first one still adding, as views; a slice in
    # the window that has stopped gets a zero term, which adds nothing, as no
    # result holds -0.0.  Four stack-sized arrays at most are alive.
    result = A + np.eye(Q.shape[0])
    term = A
    adding = _adding(term)
    for k in range(2, 64):
        if not adding.any():
            break
        adding = adding[adding.argmax():]
        start = in_range - adding.size
        term = term[-adding.size:] @ A[start:]
        term[~adding] = 0.0
        term /= k
        result[start:] += term
        adding = _adding(term)  # False where the term was zeroed
    del A, term

    # overflow here is an expected outcome that the check below reports, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(squarings.max(initial=0))):
            live = np.flatnonzero(squarings > j)
            square = result[live]
            result[live] = square @ square
    try:  # the checks below cover rising positions: the first to raise names the first failing x
        finite(result, "matrix exponential")
        if in_range < xs.size:
            finite(anorms[in_range], "||Qx||_1")
    except NumericsError as error:
        if error.index is None:  # the failing x follows the stack's last slice
            error.index = len(result)
        return result[:error.index], error
    return result, None


def _adding(term: np.ndarray) -> np.ndarray:
    """Per slice of a (k, n, n) stack: is some |entry| at least the Taylor tolerance."""
    # max |term| < tol without an |term| temporary
    return ~((term.max(axis=(1, 2)) < _TAYLOR_TOL) & (term.min(axis=(1, 2)) > -_TAYLOR_TOL))


def _scale_by_power_of_two(M: np.ndarray, exponents: np.ndarray) -> None:
    """M[i] *= 2^exponents[i] in place, bit for bit ``np.ldexp``: a product with a
    normal power of two is rounded once, as ldexp's result is, at a fraction of its cost."""
    if exponents.size and np.abs(exponents).max() <= 1022:
        M *= np.ldexp(1.0, exponents)[:, None, None]
    else:  # 2^exponent is subnormal, inf or 0
        np.ldexp(M, exponents[:, None, None], out=M)


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


def _frobenius(B: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice of a C-contiguous (k, n, n) stack, as np.linalg.norm sums it."""
    flat = B.reshape(B.shape[0], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()


def _witness(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """||M c|| / ||c|| per slice, c the largest column of B: a lower end of sigma_max(M)."""
    c = B[np.arange(B.shape[0]), :, (B * B).sum(axis=1).argmax(axis=1), None]
    w = M @ c
    return np.sqrt((w.transpose(0, 2, 1) @ w) / (c.transpose(0, 2, 1) @ c)).ravel()


def _norm_bracket(M: np.ndarray, estimates: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """lower <= sigma_max(M) <= upper per slice, each end up to 4 n eps off by rounding.

    B = M^T M is squared up to 48 times, rescaled to unit Frobenius norm before
    each squaring; ``upper`` = ||B^(2^k)||_F^(1/2^(k+1)), the product of the
    removed norms raised to the matching powers, falls to sigma_max as k grows
    and, up to rounding, never rises, as ||X^2||_F <= ||X||_F^2.  A largest
    column c of B is a witness: ||M c|| / ||c|| is a lower end.  A slice
    leaves the squaring at the first k where its norm is decided, and keeps
    as ``lower``:

    (a) its entry of ``estimates`` (settled power estimates, NaN where a slice
        has none), bit for bit, once that lies within a relative 1e-6 of
        ``upper``: as ``upper`` never rises, the 48th squaring would admit
        it too.  Its ``upper`` is the one at k, which may be that far off.
    (b) the witness, once ``upper`` is within 4 eps of it; the witness is
        formed only once the slice's factor of ``upper`` has reached 1.0.
    (c) the witness after the 48th squaring.

    Without estimates every slice ends by (b) or (c), so both ends hold the
    4 n eps above.  A slice's numbers do not depend on the others in M.
    An exact c I has upper = |c| n^(2^-(k+2)): (a) admits an estimate within
    2^-40 of |c| by k ~ 18-22, while its factor reaches 1.0 only from k = 52
    on for n >= 2, so (b) never comes first; ``_operator_norms`` keeps such
    an estimate without calling here.
    M is read by a slice's position and never copied: a round that retires a
    slice compacts only B and the per-slice state.
    """
    count = M.shape[0]
    lower, upper = np.zeros(count), np.zeros(count)
    live = np.arange(count)  # the stack's slices, by their place in M
    value = np.full(count, math.nan) if estimates is None else estimates.copy()
    B = M.transpose(0, 2, 1) @ M
    norms = _frobenius(B)
    bounds = np.sqrt(norms)
    flat = np.zeros(count, dtype=bool)  # a factor of exactly 1.0: upper has stopped moving
    for k in range(_BOUND_SQUARINGS + 1):
        if k:
            B /= norms[:, None, None]
            B = B @ B
            norms = _frobenius(B)
            power = 0.5 ** (k + 1)
            # Python's ** is libm's pow, as for one matrix; numpy's array power may take a SIMD pow
            factors = np.array([norm ** power for norm in norms.tolist()])
            bounds *= factors
            flat = factors == 1.0
        cap = k == _BOUND_SQUARINGS
        done = value >= bounds * (1.0 - _BOUND_SLACK)
        witness = ~done & (cap | flat)
        if witness.any():
            low = _witness(M[live[witness]], B[witness])
            done[witness] = cap | (bounds[witness] <= low * (1.0 + _BOUND_WIDTH))
            value[witness] = np.where(done[witness], low, value[witness])
        if done.any():
            lower[live[done]], upper[live[done]] = value[done], bounds[done]
            keep = ~done
            if not keep.any():
                break
            B, live, value, norms, bounds = (x[keep] for x in (B, live, value, norms, bounds))
    return lower, upper


def operator_norm(M) -> float:
    """Largest singular value: power iteration on M^T M, checked against a bracket.

    Deterministic: the power iteration starts from all ones and runs 32
    steps; its estimate counts as settled once two consecutive relative
    changes fall below 1e-12 within them.  ``_norm_bracket`` then squares
    M^T M until the norm is decided: a settled estimate is kept, bit for bit,
    once it lies within a relative 1e-6 of the bracket's upper end.  Any
    other estimate (the iterate fell into the kernel of M^T M, sat on an
    eigenvector for a smaller singular value or did not settle in 32 steps,
    as near x = 0 where exp(Qx) has two nearly equal singular values) is
    replaced by the bracket's lower end, taken once the bracket is 4 eps
    wide or after 48 squarings, which is within 4 n eps of the norm.  An
    exact multiple of the identity c I (as exp(0) = I) whose settled estimate
    lies within 2^-40 of |c| keeps it without squaring: the bracket would
    admit it after ~20 squarings, and reach nothing else first.
    This is the one-matrix call of the lockstep iteration that
    ``contraction_check`` runs over a whole stack of exponentials.
    """
    return float(_operator_norms(as_square_matrix(M, "M")[None])[0])


def _power_run(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_POWER_STEPS`` steps of power iteration on each M[i]^T M[i] from the
    normalized all-ones vector, all slices in lockstep.

    Returns (sigma, settled): a slice that settles stops at the step where a
    loop over that slice alone would stop, with the same products (matmul of
    a vector with itself is numpy's ddot, as ``w.dot(w)``), so its estimate
    keeps the bits of such a loop.  Each step writes its products into arrays
    allocated once and records only the squared norms of w = M v; one
    vectorized pass over the record then finds every slice's first stop.
    ``settled`` is False where the slice did not settle within
    the steps (past g = 0, in the kernel of M^T M, every estimate is nan);
    its ``sigma`` is then not an estimate.  The run comes before
    ``_norm_bracket``, which takes the settled estimates and keeps those
    that its upper end admits.
    """
    k, n, _ = M.shape
    MT = M.transpose(0, 2, 1)
    start = np.broadcast_to(np.full((n, 1), 1.0 / math.sqrt(n)), (k, n, 1))
    v, w, g = np.empty((k, n, 1)), np.empty((k, n, 1)), np.empty((k, n, 1))
    gg = np.empty((k, 1, 1))
    ww = np.empty((_POWER_STEPS, k, 1, 1))  # w^T w of every step
    # a slice runs on unread after its stop, through 0 / 0 past the kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        for step, ww_step in enumerate(ww):
            np.matmul(M, v if step else start, out=w)
            np.matmul(w.transpose(0, 2, 1), w, out=ww_step)
            np.matmul(MT, w, out=g)
            np.matmul(g.transpose(0, 2, 1), g, out=gg)
            np.divide(g, np.sqrt(gg, out=gg), out=v)
    sig = np.sqrt(ww.reshape(_POWER_STEPS, k))
    previous = np.vstack((np.full(k, -1.0), sig[:-1]))
    close = np.abs(sig - previous) <= _POWER_TOL * np.maximum(sig, 1e-300)
    # two relative changes in a row within the tolerance
    stop = close & np.vstack((np.zeros(k, dtype=bool), close[:-1]))
    at = stop.argmax(axis=0), np.arange(k)
    return sig[at], stop[at]


def _operator_norms(M: np.ndarray) -> np.ndarray:
    """``operator_norm`` of each slice of a (k, n, n) stack; an overflow's ``index`` is its slice."""
    largest = np.maximum(M.max(axis=(1, 2)), -M.min(axis=(1, 2)))  # max |M| without an |M| temporary
    norms = np.zeros(largest.size)
    live = np.flatnonzero(largest)
    if live.size:
        # power-of-two rescale by exponent: keeps M^T M v finite for huge entries, exactly
        e = np.frexp(largest[live])[1]
        M = M[live]
        _scale_by_power_of_two(M, -e)
        sigma, settled = _power_run(M)
        lower = np.where(settled, sigma, np.nan)
        # an exact c I keeps an estimate within 2^-40 of |c|, which the bracket admits
        near = np.flatnonzero(np.abs(lower - np.abs(M[:, 0, 0])) <= 2.0**-40)
        scalar = near[(M[near] == M[near, :1, :1] * np.eye(M.shape[1])).all(axis=(1, 2))]
        rest = np.delete(np.arange(lower.size), scalar)
        if scalar.size:
            M = M[rest]  # the bracket's slices replace the stack, which is no longer needed
        if rest.size:
            lower[rest] = _norm_bracket(M, lower[rest])[0]
        with np.errstate(over="ignore"):  # checked just below
            norms[live] = np.ldexp(lower, e)
    return finite(norms, "operator norm")


def default_contraction_grid() -> np.ndarray:
    """x = 0 plus 64 log-spaced points on [0.01, 10], a new array each call."""
    return _default_grid().copy()


@functools.cache
def _default_grid() -> np.ndarray:
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


def _norm_curve(Q: np.ndarray, grid: np.ndarray) -> NormCurve:
    """The norms of exp(Qx) along the grid, in one pass of chunks of at most
    ``_CHUNK_BYTES`` per (k, n, n) stack.

    A chunk's norms are checked before its exponentials' error is raised, so a
    failing curve raises the per-x loop's first failure, with its grid position
    in ``index``.
    """
    norms = []
    step = max(1, _CHUNK_BYTES // Q.nbytes)
    for start in range(0, grid.size, step):
        stack, error = _expm_stack(Q, grid[start:start + step])
        try:
            norms.append(_operator_norms(stack))
            if error is not None:
                raise error
        except NumericsError as failure:
            failure.index += start
            raise
    return NormCurve(xs=grid, norms=np.concatenate(norms))


def contraction_check(Q, xs=None) -> NormCurve:
    """Norms of exp(Qx) along the grid; judging them is the caller's business."""
    Q = as_square_matrix(Q, "Q")
    grid = _validate_grid(xs, allow_zero=True)
    return _norm_curve(Q, grid)


def _propagator_rows(a: np.ndarray, x: float) -> list[float]:
    """Entries of exp(J_n(0) x) a, last first: row j is sum_{k<=j} x^k/k! a_{n-j+k}.

    Overflow is left to the caller's ``np.errstate``; ``_squared_norm`` checks the total.
    """
    n = a.size
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
    with np.errstate(over="ignore", invalid="ignore"):  # _squared_norm checks the total
        return _squared_norm(0.0, _propagator_rows(a, x), x)


def gftt_check(a, x: float, tol: float = 1e-10) -> CheckReport:
    """Check gftt_lhs(a, x) <= exp(2 x cos(pi/(n+1))) sum a_j^2.

    The rate 2 cos(pi/(n+1)) is -2 dissipativity_threshold(n, STANDARD).
    """
    a, energy = as_vector_and_square(a, "a")
    x = as_finite(x, "x", minimum=0.0)
    tol = as_finite(tol, "tol", minimum=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # _squared_norm checks the total
        lhs = _squared_norm(0.0, _propagator_rows(a, x), x)
    alpha = dissipativity_threshold(a.size, JordanVariant.STANDARD)
    rhs = finite(checked_exp(-2.0 * x * alpha) * energy, "gftt bound")
    margin = lhs - rhs
    return CheckReport(lhs=lhs, rhs=rhs, margin=margin, holds=margin <= tol)


def gftt2_toeplitz_lhs(a, x: float) -> float:
    """Free-end analogue of ``gftt_lhs`` built from the same Toeplitz
    coefficients, with the last-coordinate term replaced by e^{-x} a_n^2.

    This is a *hypothesized* closed form: it is NOT the exact semigroup
    quantity for n >= 2 (see ``gftt2_discrepancy_probe``), and the bound it
    suggests, e^{2x cos(2pi/(2n+1))} ||a||^2, fails at every n >= 2 measured
    (2-8, 16, 30, 40), on a window of small x > 0.  The form is a quadratic
    form in a, and its top eigenvector v is a witness: at n = 5, x = 1 it
    gives 5.4929 against the bound 5.3790, while ``gftt2_exact_lhs(v, alpha*,
    1)`` at the threshold alpha* is 0.979, at most ||v||^2 = 1.  The random
    probe can miss it: with 200 samples at seed 1 it reports a negative
    excess for n = 5-8.
    Kept because measuring that failure is part of this package's job.
    Overflow raises ``OverflowFailure``.
    """
    a = as_vector(a, "a")
    x = as_finite(x, "x")
    with np.errstate(over="ignore", invalid="ignore"):  # _squared_norm checks the total
        return _toeplitz_lhs(a, x)


def _toeplitz_lhs(a: np.ndarray, x: float) -> float:
    """``gftt2_toeplitz_lhs`` of a checked vector and x, under the caller's ``np.errstate``."""
    return _squared_norm(checked_exp(-x) * float(a[-1] ** 2), _propagator_rows(a, x)[1:], x)


def gftt2_exact_lhs(a, alpha: float, x: float) -> float:
    """||exp(J~_n(alpha) x) a||^2 through the exponential oracle.

    The one-sample call of the probe's chunked pass, so the probe holds the
    bits of this function.  Overflow raises ``OverflowFailure`` with index 0.
    """
    a = as_vector(a, "a")
    block = UpperBidiagonal(a.size, alpha, JordanVariant.MODIFIED)
    return _image_energies(block.to_dense(), [a], np.array([as_finite(x, "x")]))[0]


def _image_energies(Q: np.ndarray, vectors: Sequence[np.ndarray], xs: np.ndarray) -> list[float]:
    """||exp(Q x_i) a_i||^2 for each pair, the exponentials in one ``_expm_stack``
    call; a failure's ``index`` is its pair's position."""
    stack, error = _expm_stack(Q, xs)
    if error is not None:
        raise error
    with np.errstate(over="ignore"):  # checked just below
        energies = [float(image @ image) for image in map(np.matmul, stack, vectors)]
    return finite(np.array(energies), "squared norm of exp(J~_n(alpha) x) a").tolist()


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

    The pairs are drawn in order, in chunks of at most ``_CHUNK_BYTES`` of
    n x n exponentials, each chunk's draws in one ``vector`` call, the bits
    of one call per sample, and its exponentials in one ``_expm_stack`` call;
    every value keeps the bits of the per-sample ``gftt2_toeplitz_lhs`` and
    ``gftt2_exact_lhs``.  Each witness's ``a`` is an array of its own.  No
    valid input can fail (|a_i| < 1, x < 5 and alpha in (-1, 1/2]); a
    failure's ``index`` would be its sample number.
    """
    n = as_int(n, "dimension", minimum=1)
    samples = as_int(samples, "sample count", minimum=0)
    alpha = dissipativity_threshold(n, JordanVariant.MODIFIED)
    # an empty probe allocates nothing, whatever n
    block = UpperBidiagonal(n, alpha, JordanVariant.MODIFIED).to_dense() if samples else None
    rng = SplitMix64(seed)
    excess: ProbeWitness | None = None
    discrepancy: ProbeWitness | None = None
    step = max(1, _CHUNK_BYTES // (8 * n * n))  # the samples whose exponentials fill a chunk
    for start in range(0, samples, step):
        count = min(step, samples - start)
        # one vector call holds the bits of count calls of n + 1 draws each
        rows = rng.vector((n + 1) * count).reshape(count, n + 1)
        # row[n] = m 2^-52 - 1 exactly, so (row[n] + 1) / 2 is uniform()'s m 2^-53, bit for bit
        xs = 5.0 * (0.5 * (rows[:, n] + 1.0))
        # each a its own array: BLAS ddot may round by where its operand sits in memory
        vectors = [row[:n].copy() for row in rows]
        try:
            energies = _image_energies(block, vectors, xs)
        except NumericsError as error:
            error.index += start
            raise
        with np.errstate(over="ignore", invalid="ignore"):  # _squared_norm checks each total
            for a, x, energy in zip(vectors, xs.tolist(), energies):
                rate = math.exp(-2.0 * alpha * x)
                toeplitz = _toeplitz_lhs(a, x)
                e_val = toeplitz - rate * float(a @ a)
                d_val = abs(toeplitz - rate * energy)
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

    stack, error = _expm_stack(Q, np.array([x, finite(2.0 * x, "2x")]))
    if error is not None:
        raise error
    basis, check = map(kernel, stack)
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
