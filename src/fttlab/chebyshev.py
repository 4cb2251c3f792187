"""Chebyshev polynomials of the second kind and two closed-form zero sets.

U_n is defined by the three-term recurrence

    U_{-1} = 0,  U_0 = 1,  U_k(x) = 2x U_{k-1}(x) - U_{k-2}(x),

equivalently U_n(cos t) = sin((n+1)t)/sin(t).  The difference U_n - U_{n-1}
shows up as the characteristic polynomial of a Jordan block whose last
diagonal entry is lowered by one half; both zero sets below are exact:

    zeros of U_n:           cos(k pi/(n+1)),            k = 1..n
    zeros of U_n - U_{n-1}: (-1)^(k+1) cos(k pi/(2n+1)), k = 1..n

Zero lists are returned sorted descending.  Root-finding never happens here;
a bisection root-finder exists only inside the test suite as an independent
oracle for these formulas.
"""

from __future__ import annotations

import math

import numpy as np

from ._validate import as_int, as_real_array, finite

__all__ = ["u_eval", "u_zeros", "u_diff_eval", "u_diff_zeros"]


def _recurrence(n: int, x):
    """(U_{n-1}(x), U_n(x)) by the forward recurrence: floats for a scalar x, else arrays.

    A scalar runs on Python floats, the same IEEE operations as a 0-d array at
    a tenth of the cost; an overflow gives inf or nan either way, never an error.
    """
    x = as_real_array(x, "x")
    if x.ndim == 0:
        x, prev, curr = float(x), 0.0, 1.0  # U_{-1}, U_0
    else:
        prev, curr = np.zeros_like(x), np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers' finite guard raises
        for _ in range(n):
            prev, curr = curr, 2.0 * x * curr - prev
    return prev, curr


def u_eval(n: int, x):
    """Evaluate U_n(x) by the forward recurrence.

    ``x`` may be a float or an ndarray; the result matches its shape.
    """
    return finite(_recurrence(as_int(n, "polynomial order", minimum=0), x)[1], "U_n(x)")


def u_diff_eval(n: int, x):
    """Evaluate (U_n - U_{n-1})(x).  Requires n >= 1."""
    prev, curr = _recurrence(as_int(n, "polynomial order", minimum=1), x)
    with np.errstate(over="ignore", invalid="ignore"):
        return finite(curr - prev, "U_n(x) - U_{n-1}(x)")


def u_zeros(n: int) -> np.ndarray:
    """All n zeros of U_n, descending: cos(k pi/(n+1)) for k = 1..n."""
    n = as_int(n, "polynomial order", minimum=1)
    k = np.arange(1, n + 1)
    return np.cos(k * math.pi / (n + 1))


def u_diff_zeros(n: int) -> np.ndarray:
    """All n zeros of U_n - U_{n-1}, descending.

    The raw set is (-1)^(k+1) cos(k pi/(2n+1)), k = 1..n, which alternates in
    sign; it is re-sorted so the ordering convention matches ``u_zeros``.
    Max is cos(pi/(2n+1)), min is -cos(2 pi/(2n+1)) (for n = 1 both collapse
    to cos(pi/3) = 1/2).
    """
    n = as_int(n, "polynomial order", minimum=1)
    k = np.arange(1, n + 1)
    raw = np.where(k % 2 == 1, 1.0, -1.0) * np.cos(k * math.pi / (2 * n + 1))
    return np.sort(raw)[::-1]
