"""Jordan-type bidiagonal blocks, symmetrizations, and dissipativity.

The central objects are the n x n upper bidiagonal blocks

    J_n(alpha)      : alpha on the diagonal, ones on the superdiagonal
    J~_n(alpha)     : the same, but the last diagonal entry is alpha - 1/2

stored structurally as (n, alpha, variant) so closed forms stay exact.  Their
symmetrizations B = J^T + J are symmetric tridiagonal with constant diagonal
2 alpha (last entry 2 alpha - 1 in the modified case) and unit off-diagonal,
and everything spectral reduces to Chebyshev polynomials:

    det B_n(x)  = U_n(x)  when built at alpha = x (standard variant)
    det B~_n(x) = U_n(x) - U_{n-1}(x)              (modified variant)

A matrix A is dissipative when <Aa, a> <= 0 for every real a, equivalently
when A + A^T is negative semidefinite.  For the blocks above this reduces to
a closed-form threshold on alpha, which ``check_dissipative`` verifies
independently through a Sturm-bisection eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import BlockSign, JordanVariant, _bisect, dissipativity_threshold
from ._validate import as_finite, as_int, as_vector, finite
from .errors import ConvergenceError

__all__ = [
    "JordanVariant",
    "BlockSign",
    "UpperBidiagonal",
    "SymTridiagonal",
    "DissipativityReport",
    "symmetrize",
    "det_recurrence",
    "eig_sturm",
    "eigvec_inverse_iteration",
    "quad_form",
    "dissipativity_threshold",
    "check_dissipative",
]


@dataclass(frozen=True)
class UpperBidiagonal:
    """Structural representation of J_n(alpha) or J~_n(alpha)."""

    n: int
    alpha: float
    variant: JordanVariant = JordanVariant.STANDARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "block size", minimum=1))
        object.__setattr__(self, "alpha", as_finite(self.alpha, "alpha"))

    def diagonal(self) -> np.ndarray:
        d = np.full(self.n, self.alpha)
        if self.variant is JordanVariant.MODIFIED:
            d[-1] -= 0.5
        return d

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diagonal())
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class SymTridiagonal:
    """Symmetric tridiagonal matrix in band storage (diag, offdiag)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        diag = as_vector(self.diag, "diag")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", as_vector(self.offdiag, "offdiag", size=diag.size - 1))

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True, eq=False)
class DissipativityReport:
    """Outcome of an eigenvalue-based dissipativity check."""

    threshold: float
    is_dissipative: bool
    max_eigenvalue: float
    witness: np.ndarray


def symmetrize(block: UpperBidiagonal) -> SymTridiagonal:
    """B = J^T + J: diagonal doubles, off-diagonal is identically one."""
    finite(2.0 * block.alpha, "J^T + J")  # bounds every entry, and a Python float never warns
    return SymTridiagonal(2.0 * block.diagonal(), np.ones(block.n - 1))


def det_recurrence(tri: SymTridiagonal) -> float:
    """Continuant: b_{-1} = 0, b_0 = 1, b_k = d_k b_{k-1} - e_{k-1}^2 b_{k-2}."""
    prev, curr = 0.0, 1.0
    for d, e2 in zip(tri.diag.tolist(), [0.0] + [e * e for e in tri.offdiag.tolist()]):
        prev, curr = curr, d * curr - e2 * prev  # Python floats overflow to inf silently
    return finite(curr, "continuant")


def _bisection_setup(
    tri: SymTridiagonal, tol: float
) -> tuple[list[tuple[float, float]], float, float, float, int]:
    """Sturm pairs (d_i, e_{i-1}^2), Gershgorin bracket [lo, hi], pivot floor and sweep budget.

    The first pair carries e_{-1}^2 = 0.0, so its pivot d_0 - mid needs no branch.
    Overflow shows up only as the ``OverflowFailure`` of the width guard, never as
    a numpy warning first.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        off2 = tri.offdiag * tri.offdiag
        radius = np.append(np.sqrt(off2), 0.0) + np.append(0.0, np.sqrt(off2))
        lo = float(np.min(tri.diag - radius)) - 1e-3
        hi = float(np.max(tri.diag + radius)) + 1e-3
        width = finite((hi - lo) / tol, "Gershgorin width / tol")
    pivmin = max(float(np.max(off2, initial=0.0)), 1.0) * 1e-292
    max_iter = 64 + int(math.ceil(math.log2(max(width, 1.0))))
    pairs = list(zip(tri.diag.tolist(), [0.0] + off2.tolist()))  # x - 0.0 / p == x
    return pairs, lo, hi, pivmin, max_iter


def _sturm_count(pairs: list[tuple[float, float]], pivmin: float, mid: float) -> int:
    """Eigenvalues below ``mid``: the negative LDL^T pivots of T - mid I.

    Kahan's clamp, as in LAPACK ``dstebz``: a pivot of modulus below ``pivmin``
    becomes -pivmin, so no division by zero happens and it counts as negative.
    """
    count, p = 0, 1.0
    for d, e2 in pairs:
        p = (d - mid) - e2 / p
        if abs(p) < pivmin:
            p = -pivmin
        if p < 0.0:
            count += 1
    return count


def eig_sturm(tri: SymTridiagonal, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of ``tri``, ascending, each bracketed to width <= tol.

    Sturm bisection of all n Gershgorin brackets in lockstep, as LAPACK
    ``dstebz`` does: each sweep halves every open bracket and counts the
    negative LDL^T pivots of T - mid I for all midpoints in one pass of n
    row steps, O(n^2) flops; about log2(width / tol) sweeps (46 at unit scale
    and tol = 1e-13).  A bracket closes at width <= tol or when its midpoint
    no longer splits it; ``ConvergenceError`` names one that stalls.

    A row step is two ufunc calls, ``row -= e2 / prev``, because ``dstebz``'s
    clamp (a pivot below ``pivmin`` in modulus becomes -pivmin) is deferred.
    Up to a column's first such pivot its unclamped pivots are the clamped
    ones bit for bit, so a column without one is counted exactly.  A column
    with one, where a zero pivot's inf or nan stays, is recounted by
    ``_sturm_count``, the clamped scalar count.
    """
    tol = as_finite(tol, "tol", above=0.0)
    n = tri.n
    pairs, lo0, hi0, pivmin, max_iter = _bisection_setup(tri, tol)
    lo, hi = np.full(n, lo0), np.full(n, hi0)

    k = np.arange(n)  # indices of the open brackets
    it = 0
    while (k := k[hi[k] - lo[k] > tol]).size:
        it += 1
        mid = 0.5 * lo[k] + 0.5 * hi[k]  # 0.5 * (lo + hi) overflows past ~9e307
        splits = ~((mid <= lo[k]) | (mid >= hi[k]))  # else at float resolution
        k, mid = k[splits], mid[splits]
        pivots = tri.diag[:, None] - mid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for (_, e2), prev, row in zip(pairs[1:], pivots, pivots[1:]):
                row -= e2 / prev  # a zero pivot's inf or nan only reaches its own column
        count = np.count_nonzero(pivots < 0.0, axis=0)
        for j in np.flatnonzero(((pivots > -pivmin) & (pivots < pivmin)).any(axis=0)):
            count[j] = _sturm_count(pairs, pivmin, float(mid[j]))
        below = count > k
        hi[k[below]] = mid[below]
        lo[k[~below]] = mid[~below]
        if it > max_iter and k.size:
            raise ConvergenceError(f"bisection for eigenvalue {k[0]} stalled on bracket "
                                   f"[{float(lo[k[0]])!r}, {float(hi[k[0]])!r}]")
    return finite(0.5 * lo + 0.5 * hi, "eigenvalue")


def _eig_sturm_one(tri: SymTridiagonal, index: int, tol: float) -> float:
    """Eigenvalue ``index`` (ascending) of ``tri``, bit for bit ``eig_sturm(tri, tol)[index]``.

    The one bracket evolves exactly as in the lockstep sweeps: the same set-up,
    midpoints, freeze and stall budget, and the clamped Sturm count that
    ``eig_sturm`` falls back on, ``_sturm_count`` over Python floats, O(n) per sweep.
    """
    pairs, lo, hi, pivmin, max_iter = _bisection_setup(tri, tol)

    def step(lo: float, mid: float, hi: float) -> tuple[float, float]:
        return (lo, mid) if _sturm_count(pairs, pivmin, mid) > index else (mid, hi)

    lo, hi, _ = _bisect(step, lo, hi, tol, max_iter, f"eigenvalue {index}")
    return finite(0.5 * lo + 0.5 * hi, "eigenvalue")


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """x with (sub, diag, sup) x = rhs: LAPACK ``dgtsv`` for one right-hand side,
    with its partial pivoting, its second superdiagonal fill-in (kept in ``dl``)
    and its operation order; a zero pad on ``du`` and ``b`` stands in for its
    special-cased last row.  An exactly zero pivot raises ``LinAlgError``.
    """
    dl, d, du, b = sub.tolist(), diag.tolist(), sup.tolist() + [0.0], rhs.tolist() + [0.0]
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b[:n])


def eigvec_inverse_iteration(
    tri: SymTridiagonal, eigenvalue: float, tol: float = 1e-12
) -> np.ndarray:
    """Unit eigenvector for an eigenvalue known to within ``tol``.

    Inverse iteration with pivoted tridiagonal solves; an (almost) singular
    shift is handled by jittering the eigenvalue by ``tol``.  The result
    satisfies ``|T v - eigenvalue v| <= 10 tol``; only that residual is
    guaranteed, not any particular sign or phase.
    """
    tol = as_finite(tol, "tol", above=0.0)
    n = tri.n
    if n == 1:
        if abs(tri.diag[0] - eigenvalue) > 10.0 * tol:
            raise ConvergenceError(
                f"{eigenvalue!r} is not an eigenvalue of the 1x1 matrix {tri.diag[0]!r}"
            )
        return np.ones(1)

    best_res = math.inf
    for jitter in (0.0, tol, -tol, 100.0 * tol, -100.0 * tol):
        shifted = tri.diag - (eigenvalue + jitter)
        v = np.full(n, 1.0 / math.sqrt(n))
        for _ in range(6):
            try:
                w = _solve_tridiagonal(tri.offdiag, shifted, tri.offdiag, v)
            except np.linalg.LinAlgError:
                break
            norm = float(np.linalg.norm(w))
            if not math.isfinite(norm) or norm == 0.0:
                break
            v = w / norm
            res = float(np.linalg.norm(tri.matvec(v) - eigenvalue * v))
            best_res = min(best_res, res)
            if res <= 10.0 * tol:
                return v
    raise ConvergenceError(f"inverse iteration residual {best_res!r} exceeds "
                           f"{10.0 * tol!r} for shift {eigenvalue!r}")


def quad_form(block: UpperBidiagonal, a: np.ndarray) -> float:
    """<J a, a> by the scalar formula, never by a dense product.

    Standard: alpha sum a_k^2 + sum_{k=2}^n a_k a_{k-1}; the modified variant
    subtracts a_n^2 / 2.
    """
    a = as_vector(a, "a", size=block.n)
    with np.errstate(over="ignore", invalid="ignore"):  # finite below raises instead
        out = block.alpha * float(a @ a)
        if block.n > 1:
            out += float(a[1:] @ a[:-1])
        if block.variant is JordanVariant.MODIFIED:
            out -= 0.5 * float(a[-1] ** 2)
    return finite(out, "quadratic form <J a, a>")


def _extreme_eigenpair(
    block: UpperBidiagonal, top: bool, tol: float
) -> tuple[float, np.ndarray]:
    """Largest (``top``) or smallest eigenvalue of J^T + J and a unit eigenvector.

    Only the extreme bracket is bisected, to width ``tol``; the eigenvector has
    residual <= 10 tol.
    """
    sym = symmetrize(block)
    mu = _eig_sturm_one(sym, sym.n - 1 if top else 0, tol)
    return mu, eigvec_inverse_iteration(sym, mu, tol=tol)


def check_dissipative(block: UpperBidiagonal, tol: float = 1e-10) -> DissipativityReport:
    """Decide dissipativity of the block from the spectrum of J^T + J.

    The block is dissipative iff the largest eigenvalue of its symmetrization
    is <= tol.  The witness is a unit eigenvector at that eigenvalue; its
    quadratic form equals max_eigenvalue / 2 up to the eigensolver residual.
    """
    tol = as_finite(tol, "tol", above=0.0)
    mu, witness = _extreme_eigenpair(block, top=True, tol=min(1e-13, tol * 1e-2))
    return DissipativityReport(
        threshold=dissipativity_threshold(block.n, block.variant, BlockSign.PLUS),
        is_dissipative=mu <= tol,
        max_eigenvalue=mu,
        witness=witness,
    )
