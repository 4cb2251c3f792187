"""Bessel partial sums, the two exponential bounds, and the crossing scan.

scipy.special.i0 is the second route for the series code.  The known
failure of the second bound at n = 2 is asserted here as a fact about
bound2, not worked around.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fttlab import (
    ThresholdResult,
    bound1,
    bound2,
    gftt_lhs,
    i0_partial,
    i0_reference,
    threshold_x0,
)
from fttlab.errors import OverflowFailure


class TestPartialSums:
    def test_hand_expansions(self):
        for x in (0.0, 0.5, 1.7, 3.0):
            assert i0_partial(1, x) == 1.0
            assert i0_partial(2, x) == pytest.approx(1 + x * x, rel=1e-15)
            assert i0_partial(3, x) == pytest.approx(
                1 + x * x + x**4 / 4, rel=1e-15
            )

    def test_monotone_in_term_count(self):
        for x in (0.3, 2.0, 11.0):
            values = [i0_partial(n, x) for n in range(1, 25)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_partials_increase_to_reference(self):
        for x in (0.1, 1.0, 4.0):
            ref = i0_reference(x)
            assert i0_partial(40, x) == pytest.approx(ref, rel=1e-13)
            assert all(i0_partial(n, x) <= ref * (1 + 1e-15) for n in (1, 3, 8))

    def test_reference_against_scipy(self):
        for x in (0.0, 0.5, 1.0, 3.5, 10.0, 40.0):
            assert i0_reference(x) == pytest.approx(
                float(scipy.special.i0(2 * x)), rel=1e-13
            )

    @given(x=st.floats(min_value=0.0, max_value=25.0), n=st.integers(1, 30))
    @settings(max_examples=150)
    def test_property_partial_below_reference(self, x, n):
        assert i0_partial(n, x) <= i0_reference(x) * (1 + 1e-14)

    def test_partial_sum_is_scalar_shadow_of_gftt_lhs(self):
        # s_n(x) = ||exp(J_n(0) x) e_n||^2, so bound1 is the generalized
        # bound at a = e_n
        for n in range(1, 31):
            e_n = np.zeros(n)
            e_n[-1] = 1.0
            for x in np.linspace(0.0, 50.0, 26):
                assert i0_partial(n, float(x)) == pytest.approx(
                    gftt_lhs(e_n, float(x)), rel=1e-13
                ), (n, x)

    def test_overflow_raises(self):
        with pytest.raises(OverflowFailure):
            i0_partial(4, 1e200)

    def test_early_exit_keeps_the_bits_of_every_term(self):
        def all_terms(n, x):
            term = total = 1.0
            for j in range(1, n):
                term *= (x * x) / (j * j)
                total += term
            return total

        for x in (0.0, 1e-200, 0.5, 3.0, 30.0, 300.0):
            for n in (1, 2, 5, 50, 200, 1000):
                assert i0_partial(n, x).hex() == all_terms(n, x).hex(), (n, x)

    def test_huge_term_count_ends_with_the_last_nonzero_term(self):
        # used to loop over range(1, n) until killed
        assert i0_partial(10**300, 3.0).hex() == i0_partial(200, 3.0).hex()
        assert i0_partial(10**300, 0.0) == 1.0
        with pytest.raises(OverflowFailure, match=r"x=1e\+200 overflows"):
            i0_partial(10**300, 1e200)

    def test_validation(self):
        with pytest.raises(ValueError):
            i0_partial(0, 1.0)
        with pytest.raises(ValueError):
            i0_partial(2, -1.0)
        with pytest.raises(ValueError):
            i0_partial(2.0, 1.0)


class TestBounds:
    def test_bound1_formula(self):
        assert bound1(2, 1.0) == pytest.approx(math.e, rel=1e-15)
        # cos(pi/2) is ~6e-17 in floats, not exactly zero
        assert bound1(1, 7.3) == pytest.approx(1.0, abs=1e-14)
        for n in (1, 2, 5, 40):
            for x in (0.0, 0.3, 2.0, 17.5):
                want = math.exp(2.0 * x * math.cos(math.pi / (n + 1)))
                assert bound1(n, x) == want, (n, x)

    def test_bound2_formula(self):
        want = 1 - math.exp(-2.0) + math.exp(4.0 * math.cos(2 * math.pi / 5))
        assert bound2(2, 2.0) == pytest.approx(want, rel=1e-15)
        for n in (1, 2, 5, 40):
            for x in (0.0, 0.3, 2.0, 17.5):
                want = 1.0 - math.exp(-x) + math.exp(
                    2.0 * x * math.cos(2.0 * math.pi / (2 * n + 1))
                )
                assert bound2(n, x) == want, (n, x)

    def test_first_bound_dominates_partials(self):
        for n in range(1, 21):
            for x in np.linspace(0.0, 20.0, 100):
                p = i0_partial(n, float(x))
                assert p <= bound1(n, float(x)) * (1 + 1e-12), (n, x)

    def test_second_bound_fails_at_n2(self):
        # the documented counterexample window; x = 2 is well inside it
        assert i0_partial(2, 2.0) == 5.0
        assert bound2(2, 2.0) < 4.31
        violations = [
            float(x)
            for x in np.linspace(0.0, 20.0, 100)
            if i0_partial(2, float(x)) > bound2(2, float(x)) * (1 + 1e-12)
        ]
        assert violations, "expected a nonempty violation window at n = 2"
        assert 1.5 < min(violations) < 2.1
        assert 5.0 < max(violations) < 5.7

    def test_equalities_at_n1(self):
        for x in np.linspace(0.0, 20.0, 100):
            assert abs(i0_partial(1, float(x)) - bound1(1, float(x))) <= 1e-14
            assert abs(i0_partial(1, float(x)) - bound2(1, float(x))) <= 1e-14

    def test_bound_overflow(self):
        with pytest.raises(OverflowFailure):
            bound1(5, 1000.0)
        with pytest.raises(OverflowFailure):
            bound2(5, 1000.0)


class TestThreshold:
    def test_single_crossing_for_small_n(self):
        for n in range(2, 11):
            result = threshold_x0(n)
            assert isinstance(result, ThresholdResult)
            assert result.found
            assert result.sign_changes == 1
            assert result.sign_pattern == "+-"
            assert result.bracket_hi - result.bracket_lo <= 1e-10
            assert result.bracket_lo <= result.x0 <= result.bracket_hi

    def test_crossing_is_a_bound_equality_point(self):
        for n in (2, 5, 10):
            x0 = threshold_x0(n).x0
            assert bound2(n, x0) == pytest.approx(bound1(n, x0), rel=1e-10)
            # the gap really changes sign across the bracket
            assert bound2(n, x0 - 1e-6) > bound1(n, x0 - 1e-6)
            assert bound2(n, x0 + 1e-6) < bound1(n, x0 + 1e-6)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_zero_of_the_gap_closes_the_bracket(self, n):
        # at tol = 1e-15 the bisection lands on a midpoint where the gap is exactly 0
        result = threshold_x0(n, tol=1e-15)
        assert result.bracket_lo == result.bracket_hi == result.x0
        assert bound2(n, result.x0) - bound1(n, result.x0) == 0.0

    def test_threshold_grows_with_n(self):
        values = [threshold_x0(n).x0 for n in range(2, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_not_found_before_the_crossing(self):
        result = threshold_x0(2, search_hi=0.5)
        assert not result.found
        assert math.isnan(result.x0)
        assert result.sign_changes == 0
        assert result.sign_pattern == "+"

    def test_deterministic(self):
        a = threshold_x0(4)
        b = threshold_x0(4)
        assert a.x0 == b.x0
        assert a.bracket_lo == b.bracket_lo
        assert a.iterations == b.iterations

    def test_overflowing_scan_ratio_is_a_numeric_failure(self):
        # search_hi / 1e-3 used to reach the scan as inf and fail as bad input
        with pytest.raises(OverflowFailure, match="scan ratio"):
            threshold_x0(3, search_hi=1e306)

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_x0(1)
        with pytest.raises(ValueError):
            threshold_x0(3, tol=0.0)
        with pytest.raises(ValueError):
            threshold_x0(3, search_hi=1e-4)
        with pytest.raises(ValueError):
            threshold_x0(3, scan_points=1)
        with pytest.raises(ValueError):
            threshold_x0(3, scan_points=10.0)
