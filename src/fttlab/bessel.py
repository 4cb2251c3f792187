"""Partial sums of the modified Bessel function I_0(2x) and their bounds.

I_0(2x) = sum_{j>=0} x^{2j} / (j!)^2.  Writing s_n(x) for the partial sum
through j = n - 1, two candidate upper bounds are tracked:

    bound1(n, x) = exp(2 x cos(pi/(n+1)))
    bound2(n, x) = 1 - e^{-x} + exp(2 x cos(2 pi/(2n+1)))

The first dominates s_n on x >= 0 for every n.  The second does NOT: at
n = 2 it fails exactly on the open window (x_lo, x_hi), x_lo ~ 1.54341 and
x_hi ~ 5.54081, whose endpoints are the two positive roots of

    x^2 + e^{-x} = e^{x (sqrt(5) - 1)/2}

(s_2(x) = 1 + x^2 and 2 cos(2 pi/5) = (sqrt(5) - 1)/2); for example
s_2(2) = 5 against bound2(2, 2) about 4.3067.  Acceptance criterion 9b
checks that window on a 100-point grid of [0, 20] and checks that bound2
dominates s_n there for every n <= 20 other than 2 (with equality at
n = 1).  bound2 is implemented exactly as written; it is kept to be
measured, not trusted.

``threshold_x0`` compares the two bounds against each other.  Their gap
g_n(x) = bound2(n, x) - bound1(n, x) vanishes at x = 0 and grows linearly
with positive slope 1 + 2cos(2 pi/(2n+1)) - 2cos(pi/(n+1)), so bound2
starts out as the larger bound; for large x the strictly smaller
exponential rate in bound2 makes it the sharper one, and x0(n) is the
crossing point.  The gap has exactly one sign change on [1e-3, 100] for
moderate n >= 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._scalar import JordanVariant, _bisect, dissipativity_threshold
from ._validate import as_finite, as_int, checked_exp, finite

__all__ = [
    "ThresholdResult",
    "i0_partial",
    "i0_reference",
    "bound1",
    "bound2",
    "threshold_x0",
]

_REFERENCE_TOL = 1e-16  # relative size of the last term i0_reference adds


def i0_partial(n: int, x: float) -> float:
    """First n terms of I_0(2x): sum_{j=0}^{n-1} x^{2j} / (j!)^2.

    Terms accumulate by the ratio t_j = t_{j-1} (x/j)^2, which avoids
    forming x^{2j} and (j!)^2 separately.  Overflow of the sum raises
    ``OverflowFailure``; that happens near x = 1.3e154 for n = 2, 3.5e22
    for n = 8 and 1.2e11 for n = 16.  The loop ends early once a term is
    0 (every later one is 0 too, so the bits are those of all n terms) or
    the sum is inf, so a huge n costs no more than the terms that count.
    """
    n = as_int(n, "term count", minimum=1)
    x = as_finite(x, "argument", minimum=0.0)
    term = 1.0
    total = 1.0
    for j in range(1, n):
        term *= (x * x) / (j * j)
        total += term
        if term == 0.0 or total == math.inf:
            break
    return finite(total, f"partial sum at n={n}, x={x!r}")


def i0_reference(x: float) -> float:
    """I_0(2x) summed until a term adds less than 1e-16 of the total.

    The ratio (x/j)^2 tends to 0, so the loop ends by its own arithmetic: a
    term falls below the tolerance or underflows to 0, or the total is inf.
    """
    x = as_finite(x, "argument", minimum=0.0)
    term = 1.0
    total = 1.0
    j = 0
    while term > _REFERENCE_TOL * total:
        j += 1
        term *= (x * x) / (j * j)
        total += term
    return finite(total, f"series at x={x!r}")


def bound1(n: int, x: float) -> float:
    """exp(2 x cos(pi/(n+1))); dominates i0_partial(n, .) on x >= 0.

    The rate is -2 dissipativity_threshold(n, STANDARD); ``threshold_x0``
    evaluates the same formula, ``_bound1``, at a rate it computes once.
    """
    alpha = dissipativity_threshold(as_int(n, "term count", minimum=1), JordanVariant.STANDARD)
    return _bound1(alpha, as_finite(x, "argument", minimum=0.0))


def _bound1(alpha: float, x: float) -> float:
    return checked_exp(-2.0 * x * alpha)


def bound2(n: int, x: float) -> float:
    """1 - e^{-x} + exp(2 x cos(2 pi/(2n+1))), exactly as the sharper
    free-end constant would suggest.

    This candidate FAILS for n = 2 on the open window between the roots
    of x^2 + e^{-x} = e^{x (sqrt(5) - 1)/2}, about (1.54341, 5.54081); it
    is checked to hold for n <= 20, n != 2, x <= 20.  It is provided to be
    measured, not trusted.  The rate is
    -2 dissipativity_threshold(n, MODIFIED); ``threshold_x0`` evaluates the
    same formula, ``_bound2``, at a rate it computes once.
    """
    alpha = dissipativity_threshold(as_int(n, "term count", minimum=1), JordanVariant.MODIFIED)
    return _bound2(alpha, as_finite(x, "argument", minimum=0.0))


def _bound2(alpha: float, x: float) -> float:
    return 1.0 - math.exp(-x) + checked_exp(-2.0 * x * alpha)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the sign-change scan for g_n(x) = bound2(n, x) - bound1(n, x).

    ``found`` is False when no sign change was seen in the scan range, in
    which case x0 and the bracket are NaN.  ``sign_changes`` counts scan
    intervals whose endpoints have opposite signs; ``sign_pattern`` is the
    run-length-compressed sequence of signs over the scan grid.
    """

    n: int
    found: bool
    x0: float = math.nan
    bracket_lo: float = math.nan
    bracket_hi: float = math.nan
    sign_changes: int = 0
    sign_pattern: str = ""
    iterations: int = 0


def threshold_x0(
    n: int,
    tol: float = 1e-12,
    search_hi: float = 100.0,
    scan_points: int = 512,
) -> ThresholdResult:
    """Locate the first zero crossing of bound2(n, .) - bound1(n, .).

    A geometric scan over [1e-3, search_hi] finds sign changes, then
    bisection refines the first one to absolute width ``tol``.  n = 1 is
    rejected: there cos(pi/2) = 0 and cos(2 pi/3) = -1/2 make both bounds
    identically 1, the gap vanishes everywhere, and no crossing exists.
    The two rates are computed once; every gap value has the bits of
    ``bound2(n, x) - bound1(n, x)``.
    """
    n = as_int(n, "term count", minimum=2)
    tol = as_finite(tol, "tol", above=0.0)
    search_hi = as_finite(search_hi, "search_hi", above=1e-3)  # the scan floor
    scan_points = as_int(scan_points, "scan_points", minimum=2)

    alpha1 = dissipativity_threshold(n, JordanVariant.STANDARD)
    alpha2 = dissipativity_threshold(n, JordanVariant.MODIFIED)

    def gap(x: float) -> float:
        return _bound2(alpha2, x) - _bound1(alpha1, x)

    ratio = finite(search_hi / 1e-3, "scan ratio search_hi / 1e-3") ** (1.0 / (scan_points - 1))
    xs = [1e-3 * ratio ** k for k in range(scan_points)]
    xs[-1] = search_hi
    values = [gap(x) for x in xs]

    signs = [1 if v > 0 else (-1 if v < 0 else 0) for v in values]
    pattern = "".join({1: "+", -1: "-", 0: "0"}[s] for s, _ in itertools.groupby(signs))
    # a sign change: neighbouring scan points of opposite, nonzero signs
    changes = [k for k, (s, t) in enumerate(zip(signs, signs[1:])) if s * t < 0]
    if not changes:
        return ThresholdResult(n=n, found=False, sign_changes=0, sign_pattern=pattern)
    first = changes[0]

    positive_below = signs[first] > 0  # the gap's side at the bracket's left end

    def step(lo: float, mid: float, hi: float) -> tuple[float, float]:
        fmid = gap(mid)
        if fmid == 0.0:
            return mid, mid
        return (mid, hi) if (fmid > 0) == positive_below else (lo, mid)

    lo, hi, iterations = _bisect(step, xs[first], xs[first + 1], tol)
    return ThresholdResult(
        n=n, found=True, x0=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
        sign_changes=len(changes), sign_pattern=pattern, iterations=iterations,
    )
