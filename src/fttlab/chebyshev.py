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

from ._validate import as_int, finite

__all__ = ["u_eval", "u_zeros", "u_diff_eval", "u_diff_zeros"]


def _recurrence(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """(U_{n-1}(x), U_n(x)) by the forward recurrence."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    prev = np.zeros_like(x)          # U_{-1}
    curr = np.ones_like(x)           # U_0
    for _ in range(n):
        prev, curr = curr, 2.0 * x * curr - prev
    return prev, curr


def u_eval(n: int, x):
    """Evaluate U_n(x) by the forward recurrence.

    ``x`` may be a float or an ndarray; the result matches its shape.
    """
    curr = finite(_recurrence(as_int(n, "polynomial order", minimum=0), x)[1], "U_n(x)")
    return float(curr) if curr.ndim == 0 else curr


def u_diff_eval(n: int, x):
    """Evaluate (U_n - U_{n-1})(x).  Requires n >= 1."""
    prev, curr = _recurrence(as_int(n, "polynomial order", minimum=1), x)
    out = finite(curr - prev, "U_n(x) - U_{n-1}(x)")
    return float(out) if out.ndim == 0 else out


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
