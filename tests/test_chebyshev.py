"""Chebyshev evaluation and zero sets against independent oracles.

The closed-form zero sets in the library are cosine formulas; here they are
cross-checked against a bisection root finder that knows nothing about the
formulas, and the recurrence evaluation is checked against the trigonometric
identity U_n(cos t) = sin((n+1) t) / sin t.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fttlab import u_diff_eval, u_diff_zeros, u_eval, u_zeros


def bisect_roots(f, lo, hi, samples):
    """All roots of f on [lo, hi] found by sign scanning plus bisection.

    Oracle-quality on purpose: dense linear scan, no use of any closed form.
    """
    xs = np.linspace(lo, hi, samples)
    vals = [f(x) for x in xs]
    roots = []
    for k in range(samples - 1):
        a, b, fa, fb = xs[k], xs[k + 1], vals[k], vals[k + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            fm = f(m)
            if fm == 0.0:
                a = b = m
                break
            if (fa > 0) == (fm > 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return np.array(roots)


class TestEval:
    def test_low_orders_match_hand_expansion(self):
        xs = np.linspace(-2.0, 2.0, 41)
        for x in xs:
            assert u_eval(0, x) == 1.0
            assert u_eval(1, x) == pytest.approx(2 * x, abs=1e-14)
            assert u_eval(2, x) == pytest.approx(4 * x * x - 1, abs=1e-13)
            assert u_eval(3, x) == pytest.approx(8 * x**3 - 4 * x, abs=1e-12)

    @given(
        n=st.integers(min_value=0, max_value=60),
        t=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    )
    @settings(max_examples=200)
    def test_matches_sine_ratio_identity(self, n, t):
        got = u_eval(n, math.cos(t))
        want = math.sin((n + 1) * t) / math.sin(t)
        assert got == pytest.approx(want, abs=1e-9 * (n + 1))

    def test_array_input_round_trips(self):
        xs = np.linspace(-1.0, 1.0, 7)
        out = u_eval(5, xs)
        assert isinstance(out, np.ndarray)
        assert out.shape == xs.shape
        for x, y in zip(xs, out):
            assert y == pytest.approx(u_eval(5, float(x)), abs=1e-14)

    def test_scalar_input_returns_float(self):
        assert isinstance(u_eval(4, 0.3), float)

    def test_difference_matches_subtraction(self):
        for n in range(1, 12):
            for x in np.linspace(-1.2, 1.2, 25):
                want = u_eval(n, x) - u_eval(n - 1, x)
                assert u_diff_eval(n, x) == pytest.approx(want, abs=1e-11)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            u_eval(-1, 0.5)
        with pytest.raises(ValueError):
            u_eval(2.0, 0.5)
        with pytest.raises(ValueError):
            u_eval(True, 0.5)
        with pytest.raises(ValueError):
            u_diff_eval(0, 0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.5, -math.inf])])
    def test_rejects_non_finite_arguments(self, x):
        # a non-finite argument is bad input, not an overflow
        with pytest.raises(ValueError, match="x must be finite"):
            u_eval(3, x)
        with pytest.raises(ValueError, match="x must be finite"):
            u_diff_eval(3, x)


class TestZeros:
    def test_zeros_against_bisection_oracle(self):
        for n in range(1, 13):
            found = np.sort(bisect_roots(lambda x: u_eval(n, x), -0.9999, 0.9999, 2000))
            claimed = np.sort(u_zeros(n))
            assert found.size == claimed.size == n
            assert np.max(np.abs(found - claimed)) < 1e-10

    def test_diff_zeros_against_bisection_oracle(self):
        for n in range(1, 13):
            found = np.sort(
                bisect_roots(lambda x: u_diff_eval(n, x), -0.9999, 0.9999, 2000)
            )
            claimed = np.sort(u_diff_zeros(n))
            assert found.size == claimed.size == n
            assert np.max(np.abs(found - claimed)) < 1e-10

    def test_zeros_annihilate_to_tight_tolerance(self):
        for n in range(1, 41):
            assert np.max(np.abs(u_eval(n, u_zeros(n)))) <= 1e-11
            assert np.max(np.abs(u_diff_eval(n, u_diff_zeros(n)))) <= 1e-11

    def test_zero_sets_sorted_descending_and_inside_interval(self):
        for n in range(1, 30):
            for zs in (u_zeros(n), u_diff_zeros(n)):
                assert zs.shape == (n,)
                assert np.all(np.diff(zs) < 0) or n == 1
                assert np.all(np.abs(zs) < 1.0)

    def test_diff_zeros_extremes_closed_form(self):
        for n in range(1, 41):
            zs = u_diff_zeros(n)
            assert abs(np.max(zs) - math.cos(math.pi / (2 * n + 1))) <= 1e-14
            assert abs(np.min(zs) - (-math.cos(2 * math.pi / (2 * n + 1)))) <= 1e-14

    def test_interlacing_with_plain_zeros(self):
        # roots of U_n - U_{n-1} interlace with those of U_n
        for n in range(2, 20):
            plain = np.sort(u_zeros(n))
            diff = np.sort(u_diff_zeros(n))
            assert np.all(diff[1:] > plain[:-1])
            assert np.all(diff[:-1] < plain[1:])
