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
from enum import Enum

import numpy as np

from ._validate import as_finite, as_int, check_tol, finite
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


class JordanVariant(Enum):
    """STANDARD keeps the constant diagonal; MODIFIED lowers the last entry by 1/2."""

    STANDARD = "standard"
    MODIFIED = "modified"


class BlockSign(Enum):
    """Which signed block a dissipativity statement refers to: +J or -J."""

    PLUS = "plus"
    MINUS = "minus"


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
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.offdiag, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-D array")
        if off.shape != (diag.size - 1,):
            raise ValueError(f"offdiag must have length {diag.size - 1}, got {off.shape}")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

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
    return SymTridiagonal(finite(2.0 * block.diagonal(), "J^T + J"), np.ones(block.n - 1))


def det_recurrence(tri: SymTridiagonal) -> float:
    """Continuant: b_{-1} = 0, b_0 = 1, b_k = d_k b_{k-1} - e_{k-1}^2 b_{k-2}."""
    prev, curr = 0.0, 1.0
    d = tri.diag
    e2 = tri.offdiag * tri.offdiag
    for k in range(tri.n):
        prev, curr = curr, d[k] * curr - (e2[k - 1] * prev if k > 0 else 0.0)
    return finite(curr, "continuant")


def eig_sturm(tri: SymTridiagonal, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of ``tri``, ascending, each bracketed to width <= tol.

    Sturm bisection of all n Gershgorin brackets in lockstep, as LAPACK
    ``dstebz`` does: each sweep halves every open bracket and counts the
    negative LDL^T pivots of T - mid I for all midpoints in one pass of n
    numpy row steps, O(n^2) flops; about log2(width / tol) sweeps (46 at unit
    scale and tol = 1e-13).  A bracket closes at width <= tol or when its
    midpoint no longer splits it; ``ConvergenceError`` names one that stalls.
    """
    check_tol(tol)
    n = tri.n
    off2 = tri.offdiag * tri.offdiag
    radius = np.append(np.sqrt(off2), 0.0) + np.append(0.0, np.sqrt(off2))
    lo = np.full(n, np.min(tri.diag - radius) - 1e-3)
    hi = np.full(n, np.max(tri.diag + radius) + 1e-3)
    pivmin = max(float(np.max(off2, initial=0.0)), 1.0) * 1e-292
    max_iter = 64 + int(math.ceil(math.log2(
        max(finite((hi[0] - lo[0]) / tol, "Gershgorin width / tol"), 1.0))))

    k = np.arange(n)  # indices of the open brackets
    it = 0
    while (k := k[hi[k] - lo[k] > tol]).size:
        it += 1
        mid = 0.5 * (lo[k] + hi[k])
        splits = ~((mid <= lo[k]) | (mid >= hi[k]))  # else at float resolution
        k, mid = k[splits], mid[splits]
        pivots = tri.diag[:, None] - mid
        for i in range(n):
            if i > 0:
                pivots[i] -= off2[i - 1] / pivots[i - 1]
            pivots[i, np.abs(pivots[i]) < pivmin] = -pivmin
        below = np.count_nonzero(pivots < 0.0, axis=0) > k
        hi[k[below]] = mid[below]
        lo[k[~below]] = mid[~below]
        if it > max_iter and k.size:
            raise ConvergenceError(f"bisection for eigenvalue {k[0]} stalled on bracket "
                                   f"[{float(lo[k[0]])!r}, {float(hi[k[0]])!r}]")
    return finite(0.5 * (lo + hi), "eigenvalue")


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
    check_tol(tol)
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
    a = np.asarray(a, dtype=float)
    if a.shape != (block.n,):
        raise ValueError(f"vector of shape {a.shape} does not match block size {block.n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    out = block.alpha * float(a @ a)
    if block.n > 1:
        out += float(a[1:] @ a[:-1])
    if block.variant is JordanVariant.MODIFIED:
        out -= 0.5 * float(a[-1] ** 2)
    return finite(out, "quadratic form <J a, a>")


def dissipativity_threshold(
    n: int, variant: JordanVariant, sign: BlockSign = BlockSign.PLUS
) -> float:
    """Boundary alpha for dissipativity of +J (PLUS) or -J (MINUS).

    +J_n(alpha) is dissipative iff alpha <= -cos(pi/(n+1)); -J_n(alpha) iff
    alpha >= +cos(pi/(n+1)).  The modified block replaces these by
    -cos(2 pi/(2n+1)) and +cos(pi/(2n+1)); all four are largest/smallest
    zeros of the matching Chebyshev characteristic polynomial.  Every sharp
    constant in the package (inequality constants, semigroup and Bessel
    exponential rates) is derived from this function.
    """
    n = as_int(n, "block size", minimum=1)
    if variant is JordanVariant.STANDARD:
        boundary = math.cos(math.pi / (n + 1))
        return -boundary if sign is BlockSign.PLUS else boundary
    if sign is BlockSign.PLUS:
        return -math.cos(2.0 * math.pi / (2 * n + 1))
    return math.cos(math.pi / (2 * n + 1))


def _extreme_eigenpair(
    block: UpperBidiagonal, top: bool, tol: float
) -> tuple[float, np.ndarray]:
    """Largest (``top``) or smallest eigenvalue of J^T + J and a unit eigenvector.

    The eigenvalue is bisected to width ``tol`` and the eigenvector has
    residual <= 10 tol.
    """
    sym = symmetrize(block)
    eigenvalues = eig_sturm(sym, tol=tol)
    mu = float(eigenvalues[-1] if top else eigenvalues[0])
    return mu, eigvec_inverse_iteration(sym, mu, tol=tol)


def check_dissipative(block: UpperBidiagonal, tol: float = 1e-10) -> DissipativityReport:
    """Decide dissipativity of the block from the spectrum of J^T + J.

    The block is dissipative iff the largest eigenvalue of its symmetrization
    is <= tol.  The witness is a unit eigenvector at that eigenvalue; its
    quadratic form equals max_eigenvalue / 2 up to the eigensolver residual.
    """
    check_tol(tol)
    mu, witness = _extreme_eigenpair(block, top=True, tol=min(1e-13, tol * 1e-2))
    return DissipativityReport(
        threshold=dissipativity_threshold(block.n, block.variant, BlockSign.PLUS),
        is_dissipative=mu <= tol,
        max_eigenvalue=mu,
        witness=witness,
    )
