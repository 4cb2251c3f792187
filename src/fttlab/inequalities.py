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
from enum import Enum

import numpy as np

from ._validate import as_int, as_vector, check_tol, finite
from .tridiagonal import (
    BlockSign,
    JordanVariant,
    UpperBidiagonal,
    _extreme_eigenpair,
    dissipativity_threshold,
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


class InequalityKind(Enum):
    """Direction (lower/upper bound) and boundary convention (pinned/free end)."""

    LOWER_PINNED = "lower-pinned"
    LOWER_FREE = "lower-free"
    UPPER_PINNED = "upper-pinned"
    UPPER_FREE = "upper-free"

    @property
    def is_lower(self) -> bool:
        return self in (InequalityKind.LOWER_PINNED, InequalityKind.LOWER_FREE)

    @property
    def pins_right_end(self) -> bool:
        return self in (InequalityKind.LOWER_PINNED, InequalityKind.UPPER_PINNED)

    @property
    def variant(self) -> JordanVariant:
        return JordanVariant.STANDARD if self.pins_right_end else JordanVariant.MODIFIED

    @property
    def sign(self) -> BlockSign:
        """Sign of the block whose dissipativity the kind reduces to.

        Lower bounds on the pinned energy come from +J; the pinned upper
        bound from -J; the free-end kinds swap because of the alternating flip.
        """
        if self in (InequalityKind.LOWER_PINNED, InequalityKind.UPPER_FREE):
            return BlockSign.PLUS
        return BlockSign.MINUS


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
    a = as_vector(a)
    if kind.pins_right_end:
        padded = np.concatenate(([0.0], a, [0.0]))
    else:
        padded = np.concatenate(([0.0], a))
    return finite(float(np.sum(np.diff(padded) ** 2)), "difference energy")


def sharp_constant(kind: InequalityKind, n: int) -> float:
    """Best possible constant for the given kind and dimension.

    2 (1 + alpha) for the pinned kinds and 2 (1 - alpha) for the free-end
    kinds, with alpha = threshold_alpha(kind, n).
    """
    alpha = threshold_alpha(kind, n)
    return 2.0 * (1.0 + alpha) if kind.pins_right_end else 2.0 * (1.0 - alpha)


def threshold_alpha(kind: InequalityKind, n: int) -> float:
    """Boundary alpha of the dissipativity statement underlying the kind.

    It is the threshold of the kind's variant under ``kind.sign``.
    """
    return dissipativity_threshold(as_int(n, "dimension", minimum=1), kind.variant, kind.sign)


def verify(
    kind: InequalityKind, a, tol: float = 1e-10, *, constant_scale: float = 1.0
) -> CheckReport:
    """Evaluate one inequality on one vector.

    ``constant_scale`` multiplies the sharp constant; it exists so sharpness
    can be probed (a perturbed constant must flip the verdict on the
    extremal vector) and defaults to the genuine constant.
    """
    check_tol(tol, positive=False)
    a = as_vector(a)
    lhs = difference_energy(a, kind)
    rhs = constant_scale * sharp_constant(kind, a.size) * float(a @ a)
    margin = finite(lhs - rhs, "inequality margin")
    holds = margin >= -tol if kind.is_lower else margin <= tol
    return CheckReport(lhs=lhs, rhs=rhs, margin=margin, holds=holds)


def extremal_vector(kind: InequalityKind, n: int) -> np.ndarray:
    """Unit vector attaining equality, to within the eigensolver residual.

    It is the eigenvector of the symmetrized block at the kind's threshold
    alpha, taken at the extreme (zero) eigenvalue: the largest one for kinds
    driven by +J, the smallest for kinds driven by -J.  Free-end kinds need
    the alternating flip to undo the sign substitution in their reduction.
    """
    block = UpperBidiagonal(n, threshold_alpha(kind, n), kind.variant)
    _, v = _extreme_eigenpair(block, top=kind.sign is BlockSign.PLUS, tol=_EXTREMAL_TOL)
    if not kind.pins_right_end:
        v = v * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return v
