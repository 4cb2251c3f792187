"""The closed forms and the scalar bisection, without numpy.

``tridiagonal``, ``inequalities`` and ``bessel`` re-export or use what is
here, so the command line's scalar subcommands (``constants``, ``threshold``,
``bessel-sweep``) start without importing numpy.
"""

from __future__ import annotations

import math
from enum import Enum

from ._validate import as_int


class JordanVariant(Enum):
    """STANDARD keeps the constant diagonal; MODIFIED lowers the last entry by 1/2."""

    STANDARD = "standard"
    MODIFIED = "modified"


class BlockSign(Enum):
    """Which signed block a dissipativity statement refers to: +J or -J."""

    PLUS = "plus"
    MINUS = "minus"


def dissipativity_threshold(
    n: int, variant: JordanVariant, sign: BlockSign = BlockSign.PLUS
) -> float:
    """Boundary alpha for dissipativity of +J (PLUS) or -J (MINUS).

    +J_n(alpha) is dissipative iff alpha <= -cos(pi/(n+1)); -J_n(alpha) iff
    alpha >= +cos(pi/(n+1)).  The modified block replaces these by
    -cos(2 pi/(2n+1)) and +cos(pi/(2n+1)); all four are largest/smallest
    zeros of the matching Chebyshev characteristic polynomial.  Every sharp
    constant in the package (inequality constants, semigroup and Bessel
    exponential rates) is derived from this function.  ``variant`` and
    ``sign`` are members or their values ("standard", "plus", ...).
    """
    n = as_int(n, "block size", minimum=1)
    variant, sign = JordanVariant(variant), BlockSign(sign)
    if variant is JordanVariant.STANDARD:
        boundary = math.cos(math.pi / (n + 1))
        return -boundary if sign is BlockSign.PLUS else boundary
    if sign is BlockSign.PLUS:
        return -math.cos(2.0 * math.pi / (2 * n + 1))
    return math.cos(math.pi / (2 * n + 1))


def _bisect(step, lo: float, hi: float, tol: float):
    """Halve [lo, hi] to width <= tol, or until its midpoint no longer splits it.

    ``step(lo, mid, hi)`` returns the half to keep, or ``(mid, mid)`` on an exact
    hit.  Returns ``(lo, hi, halvings)``.  Each halving leaves at most half the
    width plus one rounding, so the loop ends by its own arithmetic within
    ceil(log2((hi - lo) / tol)) + 1 halvings.
    """
    halvings = 0
    while hi - lo > tol:
        halvings += 1
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) overflows past ~9e307
        if mid <= lo or mid >= hi:
            break  # float resolution reached before the requested width
        lo, hi = step(lo, mid, hi)
    return lo, hi, halvings


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


def sharp_constant(kind: InequalityKind, n: int) -> float:
    """Best possible constant for the given kind and dimension.

    2 (1 + alpha) for the pinned kinds and 2 (1 - alpha) for the free-end
    kinds, with alpha = threshold_alpha(kind, n).
    """
    kind = InequalityKind(kind)
    alpha = threshold_alpha(kind, n)
    return 2.0 * (1.0 + alpha) if kind.pins_right_end else 2.0 * (1.0 - alpha)


def threshold_alpha(kind: InequalityKind, n: int) -> float:
    """Boundary alpha of the dissipativity statement underlying the kind.

    It is the threshold of the kind's variant under ``kind.sign``.  ``kind``
    is a member or its value ("lower-pinned", ...), here and in every public
    function that takes one.
    """
    kind = InequalityKind(kind)
    return dissipativity_threshold(as_int(n, "dimension", minimum=1), kind.variant, kind.sign)
