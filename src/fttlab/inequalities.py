"""Sharp discrete Wirtinger-type inequalities for the difference energy.

For a real vector a = (a_1, ..., a_n) the difference energy is

    pinned:  sum_{k=1}^{n+1} (a_k - a_{k-1})^2   with a_0 = a_{n+1} = 0
    free:    sum_{k=1}^{n}   (a_k - a_{k-1})^2   with a_0 = 0 only

and the four sharp bounds, each attained by an explicit vector, are

    LOWER_PINNED:  energy >= 2 (1 - cos(pi/(n+1)))   * sum a_k^2
    LOWER_FREE:    energy >= 2 (1 - cos(pi/(2n+1)))  * sum a_k^2
    UPPER_PINNED:  energy <= 2 (1 + cos(pi/(n+1)))   * sum a_k^2
    UPPER_FREE:    energy <= 2 (1 + cos(2pi/(2n+1))) * sum a_k^2

Every one of them is a dissipativity statement about a Jordan-type block at
a boundary alpha: with the alternating flip a~_k = (-1)^k a_k,

    pinned energy(a) = -2 <J_n(alpha) a, a>    + 2 (1 + alpha) sum a_k^2
    free   energy(a) =  2 <J~_n(alpha) a~, a~> + 2 (1 - alpha) sum a_k^2

for *every* alpha, so the margin of each inequality is exactly (+-2 times)
a quadratic form of the matching block at its threshold alpha, and the
equality cases are the corresponding kernel eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._scalar import BlockSign, InequalityKind, sharp_constant, threshold_alpha
from ._validate import as_finite, as_vector, as_vector_and_square, finite
from .tridiagonal import (
    UpperBidiagonal,
    _extreme_eigenpair,
    eig_sturm,  # noqa: F401  unused, but bench/test_bench.py patches it in this namespace
)

__all__ = [
    "InequalityKind",
    "CheckReport",
    "difference_energy",
    "sharp_constant",
    "threshold_alpha",
    "verify",
    "extremal_vector",
]

_EXTREMAL_TOL = 1e-13  # eigenvalue bracket width and eigenvector residual scale
# a.a at most this bounds each squared difference by 2 (a_k^2 + a_{k-1}^2), so the
# energy by 4 a.a <= 2^1022: no step of _energy can overflow
_QUIET_SQUARE = 2.0**1020


@dataclass(frozen=True)
class CheckReport:
    """One inequality evaluation; margin is always lhs - rhs.

    The report does not know which direction was being checked, so margin
    keeps its raw sign; orient it with the kind (margin for lower bounds,
    -margin for upper bounds) when a holds-iff-nonnegative number is wanted.
    """

    lhs: float
    rhs: float
    margin: float
    holds: bool


def difference_energy(a, kind: InequalityKind) -> float:
    """Sum of squared consecutive differences under the kind's padding."""
    a = as_vector(a, "a")
    with np.errstate(over="ignore"):  # _energy's finite guard raises right after
        return _energy(a, InequalityKind(kind).pins_right_end)


def _energy(a: np.ndarray, pins_right_end: bool) -> float:
    """``difference_energy`` of an already validated vector, under the caller's errstate.

    The same elements and the same pairwise sum as ``np.sum(np.diff(padded) ** 2)``.
    """
    padded = np.zeros(a.size + 1 + pins_right_end)
    padded[1:a.size + 1] = a
    d = padded[1:] - padded[:-1]
    d *= d
    return finite(float(d.sum()), "difference energy")


@lru_cache(maxsize=1024)
def _kind_at(kind: InequalityKind, n: int) -> tuple[float, bool, bool]:
    """(sharp constant, is_lower, pins_right_end): what ``verify`` reads of a kind at size n."""
    kind = InequalityKind(kind)
    return sharp_constant(kind, n), kind.is_lower, kind.pins_right_end


def verify(
    kind: InequalityKind, a, tol: float = 1e-10, *, constant_scale: float = 1.0
) -> CheckReport:
    """Evaluate one inequality on one vector.

    ``constant_scale``, a finite real, multiplies the sharp constant; it
    exists so sharpness can be probed (a perturbed constant must flip the
    verdict on the extremal vector) and defaults to the genuine constant.
    Entries large enough to overflow the energy or the squared norm raise
    ``OverflowFailure``, without a numpy warning first: the squared norm is
    a ddot that never warns, and numpy is quieted around the energy only when
    a·a exceeds 2^1020, below which nothing in it can overflow.
    """
    tol = as_finite(tol, "tol", minimum=0.0)
    constant_scale = as_finite(constant_scale, "constant_scale")
    a, square = as_vector_and_square(a, "a")
    try:
        constant, is_lower, pins_right_end = _kind_at(kind, a.size)
    except TypeError:  # the cache hashes the kind before _kind_at can check it
        InequalityKind(kind)  # an unhashable kind is no member: ValueError
        raise
    if square > _QUIET_SQUARE:
        with np.errstate(over="ignore"):  # _energy's finite guard raises right after
            lhs = _energy(a, pins_right_end)
    else:
        lhs = _energy(a, pins_right_end)
    rhs = constant_scale * constant * square
    margin = finite(lhs - rhs, "inequality margin")
    holds = margin >= -tol if is_lower else margin <= tol
    return CheckReport(lhs=lhs, rhs=rhs, margin=margin, holds=holds)


def extremal_vector(kind: InequalityKind, n: int) -> np.ndarray:
    """Unit vector attaining equality, to within the eigensolver residual.

    It is the eigenvector of the symmetrized block at the kind's threshold
    alpha, taken at the extreme (zero) eigenvalue: the largest one for kinds
    driven by +J, the smallest for kinds driven by -J.  Free-end kinds need
    the alternating flip to undo the sign substitution in their reduction.
    """
    kind = InequalityKind(kind)
    block = UpperBidiagonal(n, threshold_alpha(kind, n), kind.variant)
    _, v = _extreme_eigenpair(block, top=kind.sign is BlockSign.PLUS, tol=_EXTREMAL_TOL)
    if not kind.pins_right_end:
        v = v * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return v
