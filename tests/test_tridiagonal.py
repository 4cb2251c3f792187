"""Structured matrices, Sturm eigenvalues, and dissipativity classification.

Dense numpy routines (eigvalsh, det, explicit matvec) serve as the second
route throughout, and scipy's solve_banded (LAPACK dgtsv) for the tridiagonal
solve; the library never calls them for these quantities.
"""

import ast
import inspect
import itertools
import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from fttlab import (
    BlockSign,
    InequalityKind,
    JordanVariant,
    SymTridiagonal,
    UpperBidiagonal,
    check_dissipative,
    det_recurrence,
    dissipativity_threshold,
    eig_sturm,
    eigvec_inverse_iteration,
    extremal_vector,
    quad_form,
    symmetrize,
    tridiagonal,
    u_diff_zeros,
    u_eval,
    u_zeros,
)
from fttlab.errors import ConvergenceError
from fttlab.rng import SplitMix64
from fttlab.tridiagonal import (
    _bisect,
    _bisection_setup,
    _block_guesses,
    _eig_sturm,
    _eig_sturm_one,
    _extreme_eigenpair,
    _halve,
    _solve_tridiagonal,
    _sturm_count,
    _sturm_counts,
)


def random_tridiagonal(rng, n):
    diag = 3.0 * np.array([rng.symmetric() for _ in range(n)])
    off = 2.0 * np.array([rng.symmetric() for _ in range(n - 1)])
    return SymTridiagonal(diag, off)


def one_bracket(tri, index, tol, guess=math.nan):
    """``_eig_sturm_one`` on the set-up of ``tri``."""
    return _eig_sturm_one(_bisection_setup(tri), index, tol, guess)


def extreme_guess(block, top):
    """The closed form 2 (alpha - threshold) of J^T + J's largest (``top``) or smallest
    eigenvalue, the threshold under PLUS for the top end and MINUS for the bottom."""
    sign = BlockSign.PLUS if top else BlockSign.MINUS
    return 2.0 * (block.alpha - dissipativity_threshold(block.n, block.variant, sign))


def steering_margin(alpha):
    """32 eps (|alpha| + 2), the steering margin of the one-bracket route on a block."""
    return 32.0 * math.ulp(1.0) * (abs(alpha) + 2.0)


class TestStructures:
    def test_block_dense_layout(self):
        b = UpperBidiagonal(3, 0.25)
        want = np.array([[0.25, 1, 0], [0, 0.25, 1], [0, 0, 0.25]])
        assert np.array_equal(b.to_dense(), want)

    def test_modified_block_shifts_last_diagonal(self):
        b = UpperBidiagonal(3, 0.25, JordanVariant.MODIFIED)
        assert np.array_equal(b.diagonal(), [0.25, 0.25, -0.25])
        assert b.to_dense()[2, 2] == -0.25

    def test_one_by_one_blocks(self):
        assert np.array_equal(UpperBidiagonal(1, 0.5).to_dense(), [[0.5]])
        assert np.array_equal(
            UpperBidiagonal(1, 0.5, JordanVariant.MODIFIED).to_dense(), [[0.0]]
        )

    def test_block_validation(self):
        with pytest.raises(ValueError):
            UpperBidiagonal(0, 0.1)
        with pytest.raises(ValueError):
            UpperBidiagonal(3, math.nan)
        with pytest.raises(ValueError):
            UpperBidiagonal(2.5, 0.1)

    def test_a_variant_or_sign_given_by_value_reads_as_its_member(self):
        for variant, sign in itertools.product(JordanVariant, BlockSign):
            assert (dissipativity_threshold(3, variant.value, sign.value)
                    == dissipativity_threshold(3, variant, sign))
            block = UpperBidiagonal(3, -0.65, variant.value)
            assert block == UpperBidiagonal(3, -0.65, variant) and block.variant is variant
        # dissipative as the modified block; the standard block at -0.65 is not
        report = check_dissipative(UpperBidiagonal(3, -0.65, "modified"))
        assert report.threshold == dissipativity_threshold(3, JordanVariant.MODIFIED)
        assert report.is_dissipative and report.max_eigenvalue < 0.0

    @pytest.mark.parametrize("bogus", ["Standard", "bogus", None, 1])
    def test_a_bogus_variant_or_sign_raises_value_error(self, bogus):
        with pytest.raises(ValueError):
            UpperBidiagonal(3, 0.2, bogus)
        with pytest.raises(ValueError):
            dissipativity_threshold(3, bogus)
        with pytest.raises(ValueError):
            dissipativity_threshold(3, JordanVariant.STANDARD, bogus)
        with pytest.raises(ValueError):
            UpperBidiagonal(3, 0.2, BlockSign.PLUS)
        with pytest.raises(ValueError):
            dissipativity_threshold(3, JordanVariant.STANDARD, JordanVariant.STANDARD)

    def test_symmetrize_matches_dense_transpose_sum(self):
        for variant in JordanVariant:
            for n in (1, 2, 5):
                b = UpperBidiagonal(n, -0.3, variant)
                J = b.to_dense()
                assert np.allclose(symmetrize(b).to_dense(), J.T + J, atol=0)

    def test_tridiagonal_validation(self):
        with pytest.raises(ValueError):
            SymTridiagonal(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SymTridiagonal(np.array([[1.0]]), np.array([]))
        with pytest.raises(ValueError):
            SymTridiagonal(np.array([1.0, math.inf]), np.array([0.0]))

    def test_matvec_matches_dense(self):
        rng = SplitMix64(11)
        for n in (1, 2, 7):
            t = random_tridiagonal(rng, n)
            v = rng.vector(n)
            assert np.allclose(t.matvec(v), t.to_dense() @ v, atol=1e-14)


class TestDeterminant:
    def test_against_numpy_det(self):
        rng = SplitMix64(21)
        for n in (1, 2, 3, 6, 10):
            t = random_tridiagonal(rng, n)
            want = np.linalg.det(t.to_dense())
            assert det_recurrence(t) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_standard_symmetrization_det_is_second_kind_polynomial(self):
        for n in range(1, 13):
            for x in np.linspace(-1.5, 1.5, 50):
                tri = symmetrize(UpperBidiagonal(n, x))
                want = u_eval(n, x)
                assert det_recurrence(tri) == pytest.approx(
                    want, abs=1e-9 * max(1.0, abs(want))
                )

    def test_modified_symmetrization_det_is_difference_polynomial(self):
        from fttlab import u_diff_eval

        for n in range(1, 13):
            for x in np.linspace(-1.5, 1.5, 50):
                tri = symmetrize(UpperBidiagonal(n, x, JordanVariant.MODIFIED))
                want = u_diff_eval(n, x)
                assert det_recurrence(tri) == pytest.approx(
                    want, abs=1e-9 * max(1.0, abs(want))
                )


class TestEigSturm:
    def test_against_eigvalsh(self):
        rng = SplitMix64(31)
        for n in (1, 2, 3, 8, 16):
            for _ in range(5):
                t = random_tridiagonal(rng, n)
                got = eig_sturm(t)
                want = np.linalg.eigvalsh(t.to_dense())
                assert got.shape == (n,)
                assert np.all(np.diff(got) >= 0)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_clustered_eigenvalues(self):
        # near-multiple eigenvalues still come out right
        t = SymTridiagonal(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1e-8, 2.0, 1e-8]))
        got = eig_sturm(t)
        want = np.linalg.eigvalsh(t.to_dense())
        assert np.max(np.abs(got - want)) < 1e-10

    def test_symmetrized_standard_block_spectrum_closed_form(self):
        for n in range(1, 11):
            alpha = -0.37
            tri = symmetrize(UpperBidiagonal(n, alpha))
            want = np.sort(2 * alpha + 2 * u_zeros(n))
            assert np.max(np.abs(eig_sturm(tri) - want)) < 1e-12

    def test_symmetrized_modified_block_spectrum_closed_form(self):
        for n in range(1, 11):
            alpha = 0.21
            tri = symmetrize(UpperBidiagonal(n, alpha, JordanVariant.MODIFIED))
            want = np.sort(2 * alpha - 2 * u_diff_zeros(n))
            assert np.max(np.abs(eig_sturm(tri) - want)) < 1e-12

    @given(n=st.integers(min_value=1, max_value=10), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_property_sorted_and_complete(self, n, seed):
        t = random_tridiagonal(SplitMix64(seed), n)
        got = eig_sturm(t)
        want = np.linalg.eigvalsh(t.to_dense())
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - want)) < 1e-9


class TestOneBracketBisection:
    """The extreme eigenvalue from one bracket is eig_sturm's, bit for bit."""

    @staticmethod
    def assert_extremes_match(tri, tol):
        full = eig_sturm(tri, tol)
        assert one_bracket(tri, 0, tol).hex() == float(full[0]).hex()
        assert one_bracket(tri, tri.n - 1, tol).hex() == float(full[-1]).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 50, 200, 400])
    def test_symmetrized_blocks(self, n):
        for variant in JordanVariant:
            for alpha in (-1.0, dissipativity_threshold(n, variant), 0.35, 1.0):
                for tol in (1e-15, 1e-13, 1e-12):
                    self.assert_extremes_match(symmetrize(UpperBidiagonal(n, alpha, variant)), tol)

    def test_random_tridiagonals_over_ten_decades(self):
        # at scale 1e5 a 1e-13 bracket is below float resolution: the freeze decides
        rng = SplitMix64(2024)
        for _ in range(300):
            t = random_tridiagonal(rng, rng.integer(1, 59))
            diag_scale, off_scale = 10.0 ** rng.integer(-5, 5), 10.0 ** rng.integer(-5, 5)
            tol = (1e-15, 1e-13, 1e-9 * diag_scale)[rng.integer(0, 2)]
            self.assert_extremes_match(
                SymTridiagonal(diag_scale * t.diag, off_scale * t.offdiag), tol)

    def test_extreme_scales_down_to_the_smallest_tol(self):
        # scales 1e-300 to 1e300, and tol down to 5e-324: the guard checks only
        # the width hi - lo, so no tol is refused and both routes return
        rng = SplitMix64(2026)
        for _ in range(40):
            t = random_tridiagonal(rng, rng.integer(1, 12))
            decade = rng.integer(-300, 300)
            diag_scale, off_scale = 10.0 ** decade, 10.0 ** min(decade + rng.integer(-5, 5), 150)
            tri = SymTridiagonal(diag_scale * t.diag, off_scale * t.offdiag)
            _, lo, hi, _ = _bisection_setup(tri)
            for tol in (1e-13 * diag_scale, max((hi - lo) / 2.0 ** 1022, 5e-324), 5e-324):
                self.assert_extremes_match(tri, tol)  # raises nothing


def guided_sweep(sizes):
    """(block, top) over both variants and ends, with alpha at the end's threshold,
    one ulp and 5e-3 either side of it, and at +-1, 1e13, 1e300 and -5e307."""
    for n in sizes:
        for variant in JordanVariant:
            for top in (True, False):
                t = dissipativity_threshold(n, variant, BlockSign.PLUS if top else BlockSign.MINUS)
                for alpha in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf),
                              t + 5e-3, t - 5e-3, 1.0, -1.0, 1e13, 1e300, -5e307):
                    yield UpperBidiagonal(n, alpha, variant), top


@pytest.fixture
def counted_shifts(monkeypatch):
    """The shifts of every real Sturm count made while the test runs."""
    shifts = []

    def spy(pairs, pivmin, mid):
        shifts.append(mid)
        return _sturm_count(pairs, pivmin, mid)

    monkeypatch.setattr(tridiagonal, "_sturm_count", spy)
    return shifts


class TestGuidedBisection:
    """The closed form settles far halvings only; real counts keep the plain bits."""

    @pytest.mark.parametrize("sizes", [range(1, 14), (16, 31, 64), (100, 200), (400,)],
                             ids=["1-13", "16-64", "100-200", "400"])
    def test_the_guided_route_keeps_the_plain_bits(self, sizes, counted_shifts):
        for block, top in guided_sweep(sizes):
            sym, index = symmetrize(block), block.n - 1 if top else 0
            for tol in (1e-13, 1e-10):
                plain = one_bracket(sym, index, tol)
                del counted_shifts[:]
                guided = one_bracket(sym, index, tol, extreme_guess(block, top))
                assert guided.hex() == plain.hex()
                assert len(counted_shifts) <= 7  # no fallback ran

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_the_guided_route_gives_eig_sturms_extremes(self, n):
        # at n = 1 the free-end block's margin is read off d_0 / 2 = alpha - 1/2
        for variant in JordanVariant:
            for alpha in (dissipativity_threshold(n, variant, BlockSign.PLUS),
                          dissipativity_threshold(n, variant, BlockSign.MINUS), 0.0, 1e-300):
                block = UpperBidiagonal(n, alpha, variant)
                sym = symmetrize(block)
                for tol in (1e-13, 1e-10, 1e-15, 5e-324):
                    full = eig_sturm(sym, tol)
                    for top, want in ((True, full[-1]), (False, full[0])):
                        got = one_bracket(sym, n - 1 if top else 0, tol, extreme_guess(block, top))
                        assert got.hex() == float(want).hex()

    @given(n=st.integers(1, 60),
           alpha=st.one_of(st.floats(-2.0, 2.0), st.integers(-80, 80).map(lambda k: k / 40),
                           st.sampled_from([-0.0, 1e-300, 5e-324, math.nextafter(1.0, 0.0)])),
           variant=st.sampled_from(list(JordanVariant)), tol=st.sampled_from([1e-13, 1e-15]),
           top=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_property_the_guided_extreme_is_the_clamped_sweeps(self, n, alpha, variant, tol,
                                                                top):
        # the reference shares no code with _eig_sturm_one: not _bisect, _far or _sturm_count
        block = UpperBidiagonal(n, alpha, variant)
        want = clamped_lockstep_sturm(symmetrize(block), tol)[n - 1 if top else 0]
        assert _extreme_eigenpair(block, top, tol)[0].hex() == float(want).hex()

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_a_wrong_guess_falls_back_to_the_plain_bits(self, n, counted_shifts):
        for block, top in guided_sweep([n]):
            sym, index = symmetrize(block), n - 1 if top else 0
            guess, margin = extreme_guess(block, top), steering_margin(block.alpha)
            for tol in (1e-13, 1e-15):
                del counted_shifts[:]
                plain = one_bracket(sym, index, tol)
                plain_counts = len(counted_shifts)
                for wrong in (guess + 0.1, guess - 0.1, guess + 10 * margin, guess - 10 * margin):
                    del counted_shifts[:]
                    assert one_bracket(sym, index, tol, wrong).hex() == plain.hex()
                    if abs(block.alpha) <= 1.0 and tol == 1e-15:
                        # the bracket narrows past the error, so a settled side was wrong
                        assert len(counted_shifts) > plain_counts
                del counted_shifts[:]
                assert one_bracket(sym, index, tol, math.inf).hex() == plain.hex()
                assert len(counted_shifts) == plain_counts  # an inf guess steers nothing

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_the_count_is_monotone_around_each_extreme_eigenvalue(self, n):
        # the premise that lets two real counts vouch for every settled side
        for block, top in guided_sweep([n]):
            sym = symmetrize(block)
            pairs, _, _, pivmin = _bisection_setup(sym)
            mu = one_bracket(sym, n - 1 if top else 0, 1e-13)
            below, above = [mu], [mu]
            for _ in range(1000):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            counts = [_sturm_count(pairs, pivmin, shift) for shift in below[::-1] + above[1:]]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 200, 400])
    def test_certifying_a_block_takes_a_few_real_counts(self, n, counted_shifts):
        # the plain route takes about 46; a silent fallback would show here
        for kind in InequalityKind:
            alpha = dissipativity_threshold(n, kind.variant, kind.sign)
            for block in (UpperBidiagonal(n, alpha, kind.variant),
                          UpperBidiagonal(n, -1.0, kind.variant)):
                del counted_shifts[:]
                check_dissipative(block)
                assert len(counted_shifts) <= 8
            del counted_shifts[:]
            extremal_vector(kind, n)
            assert len(counted_shifts) <= 8


def steered_sweep(sizes, seed):
    """(block, tol) over both variants and tol 1e-13, 1e-10, 5e-324, 1e-3 and 1e300,
    with alpha drawn from [-1, 1) and, in turn over the sizes, at +-1e3, +-1e6, 0 and
    1e-300, and at 3e100 and +-8e307.

    At tol 5e-324 the far run ends at float resolution, at 1e-3 by width, and at
    1e300, or where 2 alpha swallows the Gershgorin radius, it never starts."""
    rng, fixed = SplitMix64(seed), itertools.cycle((1e3, -1e3, 1e6, -1e6, 0.0, 1e-300))
    huge = itertools.cycle((3e100, 8e307, -8e307))
    for n in sizes:
        for variant in JordanVariant:
            for alpha in (rng.symmetric(), next(fixed), next(huge)):
                for tol in (1e-13, 1e-10, 5e-324, 1e-3, 1e300):
                    yield UpperBidiagonal(n, alpha, variant), tol


@pytest.fixture
def count_passes(monkeypatch):
    """The shifts of every lockstep count pass made while the test runs, one array a pass."""
    passes, counts = [], tridiagonal._sturm_counts

    def spy(diag, pairs, pivmin, mids):
        passes.append(mids.copy())
        return counts(diag, pairs, pivmin, mids)

    monkeypatch.setattr(tridiagonal, "_sturm_counts", spy)
    return passes


def hexes(values):
    return [v.hex() for v in values.tolist()]


def lockstep_to_guess(lo, hi, guess, tol):
    """Halve, in place, every open bracket to its guess's side, ``mid > guess``, with a
    full-width mask a sweep and no count: the reference for ``_halve``'s guess side."""
    while True:
        mid = 0.5 * lo + 0.5 * hi
        open_ = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not open_.any():
            return
        below = mid > guess
        np.copyto(hi, mid, where=open_ & below)
        np.copyto(lo, mid, where=open_ & ~below)


def steered_brackets(tri, tol, guess):
    """The final brackets of the run to ``guess``, the Gershgorin ends, and the columns that
    fail the confirmation count(lo) <= index < count(hi) at an end that moved."""
    pairs, lo0, hi0, pivmin = _bisection_setup(tri)
    lo, hi = np.full(tri.n, lo0), np.full(tri.n, hi0)
    lockstep_to_guess(lo, hi, guess, tol)
    index = np.arange(tri.n)
    wrong = (((lo != lo0) & (_sturm_counts(tri.diag, pairs, pivmin, lo) > index))
             | ((hi != hi0) & (_sturm_counts(tri.diag, pairs, pivmin, hi) <= index)))
    return lo, hi, lo0, hi0, np.flatnonzero(wrong).tolist()


@pytest.fixture
def reruns(monkeypatch):
    """The column of every steered call of ``_eig_sturm_one`` made while the test runs:
    the reruns of ``_eig_sturm``, not their own unsteered fallback."""
    columns, one = [], tridiagonal._eig_sturm_one
    signature = inspect.signature(one)

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        if abs(call.arguments["guess"]) < math.inf:
            columns.append(call.arguments["index"])
        return one(*args, **kwargs)

    monkeypatch.setattr(tridiagonal, "_eig_sturm_one", spy)
    return columns


@pytest.fixture
def setups(monkeypatch):
    """The matrix of every ``_bisection_setup`` call made while the test runs."""
    calls, setup = [], tridiagonal._bisection_setup

    def spy(tri):
        calls.append(tri)
        return setup(tri)

    monkeypatch.setattr(tridiagonal, "_bisection_setup", spy)
    return calls


class TestSteeredSweeps:
    """The closed-form spectrum settles every halving of a block; one count pass and a rerun
    of each column that fails it keep the clamped bits."""

    @pytest.mark.parametrize("sizes", [range(1, 41), (50, 64, 100, 127), (200, 300), (400,)],
                             ids=["1-40", "50-127", "200-300", "400"])
    def test_the_steered_sweeps_keep_the_clamped_bits(self, sizes):
        for block, tol in steered_sweep(sizes, seed=len(sizes)):
            tri = symmetrize(block)
            assert hexes(eig_sturm(tri, tol)) == hexes(clamped_lockstep_sturm(tri, tol))

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_wrong_guesses_cost_counts_not_bits(self, n, count_passes, reruns):
        # only the columns that fail their confirmation rerun, each alone through
        # _eig_sturm_one; the one count pass is the confirmation's
        for variant in JordanVariant:
            for alpha in (-0.3, 0.7):
                tri = symmetrize(UpperBidiagonal(n, alpha, variant))
                guess, margin = _block_guesses(tri), steering_margin(alpha)
                moved = guess.copy()
                moved[n // 2] += 0.5
                for tol in (1e-13, 1e-15):
                    del count_passes[:]
                    plain = hexes(tridiagonal._eig_sturm(tri, tol, np.full(n, math.nan)))
                    plain_passes = len(count_passes)
                    assert plain == hexes(clamped_lockstep_sturm(tri, tol))  # shares no code
                    for wrong in (guess + 0.1, guess - 0.1, guess + 10 * margin,
                                  guess - 10 * margin, moved):
                        del count_passes[:], reruns[:]
                        assert hexes(tridiagonal._eig_sturm(tri, tol, wrong)) == plain
                        assert reruns == steered_brackets(tri, tol, wrong)[-1]
                        assert len(count_passes) == 1
                        if tol == 1e-15 or wrong is moved:
                            # the bracket narrows past the error, so a settled side was wrong
                            assert reruns
                        if wrong is moved:
                            assert n // 2 in reruns
                    for steers_nothing in (math.inf, -math.inf, math.nan):
                        del count_passes[:], reruns[:]
                        got = tridiagonal._eig_sturm(tri, tol, np.full(n, steers_nothing))
                        assert hexes(got) == plain
                        assert len(count_passes) == plain_passes and not reruns

    @pytest.mark.parametrize("n, alpha, column", [(3, -1.0, 1), (2, -0.5, 0)])
    def test_a_rounded_guess_reruns_its_column_alone(self, n, alpha, column, count_passes,
                                                     reruns):
        # the eigenvalue is -2 exactly, but its closed form rounds above it: 2 alpha + 2 cos(pi/2)
        # is -2 + 2.2e-16 at n = 3 and 2 alpha + 2 cos(2 pi/3) is -2 + 4.4e-16 at n = 2, so a
        # midpoint between the two takes the wrong side and only that column fails
        tri = symmetrize(UpperBidiagonal(n, alpha))
        got = eig_sturm(tri)
        assert reruns == [column] and len(count_passes) == 1
        assert hexes(got) == hexes(_eig_sturm(tri, 1e-13, np.full(n, math.nan)))
        assert hexes(got) == hexes(clamped_lockstep_sturm(tri))

    def test_a_rerun_reuses_the_set_up(self, setups, count_passes, reruns):
        # the rerun of column 1 (the rounded guess above) takes the set-up _eig_sturm holds
        tri = symmetrize(UpperBidiagonal(3, -1.0))
        eig_sturm(tri)
        assert reruns == [1] and len(count_passes) == 1 and len(setups) == 1

    def test_the_unsteered_fallback_reuses_the_set_up(self, setups, counted_shifts):
        block = UpperBidiagonal(5, -0.3)
        setup = _bisection_setup(symmetrize(block))
        plain = _eig_sturm_one(setup, 4, 1e-15)
        plain_counts = len(counted_shifts)
        del counted_shifts[:], setups[:]
        wrong = extreme_guess(block, True) + 0.1
        assert _eig_sturm_one(setup, 4, 1e-15, wrong).hex() == plain.hex()
        # the fallback ran, and _eig_sturm_one built no set-up of its own
        assert len(counted_shifts) > plain_counts and not setups

    @given(n=st.integers(1, 60),
           alpha=st.one_of(st.floats(-2.0, 2.0), st.integers(-80, 80).map(lambda k: k / 40),
                           st.sampled_from([-0.0, 1e-300, 5e-324, math.nextafter(1.0, 0.0)])),
           variant=st.sampled_from(list(JordanVariant)), tol=st.sampled_from([1e-13, 1e-15]))
    @settings(max_examples=150, deadline=None)
    def test_property_a_block_keeps_the_plain_sweeps_bits(self, n, alpha, variant, tol):
        tri = symmetrize(UpperBidiagonal(n, alpha, variant))
        want = _eig_sturm(tri, tol, np.full(n, math.nan))
        assert hexes(eig_sturm(tri, tol)) == hexes(want)
        assert hexes(want) == hexes(clamped_lockstep_sturm(tri, tol))  # shares no code

    @pytest.mark.parametrize("n", [2, 3, 16, 100])
    def test_a_block_one_ulp_off_is_not_steered(self, n, count_passes):
        for variant in JordanVariant:
            sym = symmetrize(UpperBidiagonal(n, 0.3, variant))
            for j in sorted({0, (n - 1) // 2, n - 2}):
                off = sym.offdiag.copy()
                off[j] = math.nextafter(1.0, 2.0)
                tri = SymTridiagonal(sym.diag, off)
                del count_passes[:]
                got = eig_sturm(tri)
                steered = [hexes(mids) for mids in count_passes]
                del count_passes[:]
                _eig_sturm(tri, 1e-13, np.full(n, math.nan))
                assert steered == [hexes(mids) for mids in count_passes]
                assert hexes(got) == hexes(clamped_lockstep_sturm(tri))

    def test_a_block_takes_a_few_count_passes(self, count_passes):
        # the plain sweeps take about 46; a silent rerun or an unsteered block would show here
        rng = SplitMix64(28)
        for n in [*range(1, 41), 50, 64, 100, 127, 200, 300, 400]:
            for variant in JordanVariant:
                for alpha in (rng.symmetric(), rng.symmetric()):
                    del count_passes[:]
                    eig_sturm(symmetrize(UpperBidiagonal(n, alpha, variant)))
                    assert len(count_passes) <= 12

    def test_a_block_takes_one_count_pass(self, count_passes):
        # the run to the guesses takes no count, and one pass confirms every end that moved
        rng = SplitMix64(31)
        for n in [*range(1, 41), 50, 64, 100, 127, 200, 300, 400]:
            for variant in JordanVariant:
                for alpha in (rng.symmetric(), rng.symmetric()):
                    del count_passes[:]
                    eig_sturm(symmetrize(UpperBidiagonal(n, alpha, variant)), 1e-13)
                    assert len(count_passes) == 1

    @pytest.mark.parametrize("alpha", [1e3, -1e3, 1e6, -1e6])
    def test_a_large_alpha_takes_as_many_passes_at_every_size(self, alpha, count_passes):
        # the brackets end at float resolution, where a column often fails its confirmation,
        # but its rerun takes scalar counts, so one pass still serves every n
        passes = {}
        for n in [*range(1, 41), 50, 64, 100, 127, 200, 300, 400]:
            for variant in JordanVariant:
                del count_passes[:]
                eig_sturm(symmetrize(UpperBidiagonal(n, alpha, variant)), 1e-13)
                passes[n] = max(passes.get(n, 0), len(count_passes))
        assert set(passes.values()) == {1}

    @pytest.mark.parametrize("sizes", [range(1, 41), (50, 64, 100, 127), (200, 300), (400,)],
                             ids=["1-40", "50-127", "200-300", "400"])
    def test_one_pass_counts_the_final_ends_that_moved(self, sizes, count_passes, reruns):
        # the run counts nothing; one pass counts each final end that moved, lo ends
        # first, and a column that fails reruns alone, so its value is the plain bits
        for block, tol in steered_sweep(sizes, seed=len(sizes)):
            tri = symmetrize(block)
            lo, hi, lo0, hi0, wrong = steered_brackets(tri, tol, _block_guesses(tri))
            ends = np.concatenate((lo[lo != lo0], hi[hi != hi0]))
            del count_passes[:], reruns[:]
            got = eig_sturm(tri, tol)
            assert [hexes(mids) for mids in count_passes] == ([hexes(ends)] if ends.size else [])
            assert reruns == wrong
            want = 0.5 * lo + 0.5 * hi
            want[wrong] = [one_bracket(tri, j, tol) for j in wrong]
            assert hexes(got) == hexes(want)

    def test_the_plain_sweeps_count_the_open_brackets_only(self, count_passes):
        # with no guess every step counts the midpoints of exactly the brackets still
        # open, column by column, as the reference's compacted column list does; at
        # n >= 64 and tol 5e-324 or 1e-3 the run's deferred open test decides which
        rng = SplitMix64(30)
        cases = [(random_tridiagonal(rng, rng.integer(1, 40)), (1e-13, 1e-15)[rng.integer(0, 1)])
                 for _ in range(40)]
        for n, tol in itertools.product((64, 127, 200, 400), (5e-324, 1e-3, 1e300)):
            tri = random_tridiagonal(rng, n)
            diag, off = 10.0 ** rng.integer(-3, 3) * tri.diag, tri.offdiag.copy()
            off[::7], off[3::11], off[5::13] = 0.0, -0.0, 1.0  # exact zeros split the matrix
            diag[::9] = -0.0  # so row 0 alone has the eigenvalue zero
            cases.append((tri, tol))
            if n == 64 or tol > 5e-324:  # zero needs ~1030 sweeps of the reference's row loop
                cases.append((SymTridiagonal(diag, off), tol))
        cases += [(SymTridiagonal(np.array([0.7]), np.empty(0)), tol)
                  for tol in (5e-324, 1e-3, 1e-13, 1e300)]
        for tri, tol in cases:
            sweeps = []
            want = clamped_lockstep_sturm(tri, tol, sweeps)
            del count_passes[:]
            got = _eig_sturm(tri, tol, np.full(tri.n, math.nan))  # a 1x1 matrix is a block
            assert hexes(got) == hexes(want)
            assert [hexes(mids) for mids in count_passes] == [hexes(mids) for mids in sweeps]
            assert all(mids.size for mids in count_passes)  # no empty pass
            if tol == 1e300:
                assert not count_passes  # every Gershgorin bracket is closed on entry

    def test_only_halve_holds_a_lockstep_loop(self):
        # every loop in src/ that takes a midpoint of two names, by file and function: the
        # lockstep run _halve and the scalar _bisect; and every _sturm_counts call, which
        # only _eig_sturm makes, outside any loop (the run calls its counting side)
        src = Path(__file__).resolve().parent.parent / "src"
        midpoint = re.compile(r"0\.5 \* (\w+) \+ 0\.5 \* (\w+)|0\.5 \* \((\w+) \+ (\w+)\)"
                              r"|\((\w+) \+ (\w+)\) / 2")
        halving, counting = [], []
        for path in sorted(src.rglob("*.py")):
            for func in ast.parse(path.read_text(encoding="utf-8")).body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                loops = [node for node in ast.walk(func)
                         if isinstance(node, (ast.For, ast.While, ast.comprehension))]
                halving += [(path.name, func.name) for loop in loops
                            if any(isinstance(node, ast.BinOp)
                                   and midpoint.fullmatch(ast.unparse(node))
                                   for node in ast.walk(loop))]
                calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                         and ast.unparse(node.func) == "_sturm_counts"]
                in_loops = {id(node) for loop in loops for node in ast.walk(loop)}
                counting += [(path.name, func.name, id(call) in in_loops) for call in calls]
        assert halving == [("_scalar.py", "_bisect"), ("tridiagonal.py", "_halve")]
        assert counting == [("tridiagonal.py", "_eig_sturm", False)] * 2


def lockstep_counted(tri, lo, hi, tol, passes):
    """Halve, in place, every open bracket to the side the scalar ``_sturm_count`` of its
    column gives, with a full-width mask a sweep; each sweep's open midpoints go to
    ``passes``: the reference for ``_halve``'s counting side."""
    pairs, _, _, pivmin = _bisection_setup(tri)
    while True:
        mid = 0.5 * lo + 0.5 * hi
        open_ = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not open_.any():
            return
        passes.append(mid[open_])
        below = np.zeros(tri.n, dtype=bool)
        below[open_] = [_sturm_count(pairs, pivmin, m) > j
                        for j, m in zip(np.flatnonzero(open_).tolist(), mid[open_].tolist())]
        np.copyto(hi, mid, where=open_ & below)
        np.copyto(lo, mid, where=open_ & ~below)


class TestGuessRun:
    """_halve closes every bracket as masked lockstep sweeps do, on either side: to the
    guesses, or by a count at each open midpoint."""

    @pytest.mark.parametrize("side", ["guess", "count"])
    @pytest.mark.parametrize("with_closed", [True, False])
    @pytest.mark.parametrize("tol", [1e-13, 5e-324, 1e-3])
    @pytest.mark.parametrize("n", [3, 16, 101])
    def test_open_brackets_close_and_closed_ones_keep_their_ends(self, n, tol, with_closed,
                                                                 side):
        # uneven entry widths: a narrow bracket around its guess, a Gershgorin one, and
        # one already closed, whose width would start the open test at once
        for variant in JordanVariant:
            tri = symmetrize(UpperBidiagonal(n, 0.3, variant))
            guess = _block_guesses(tri)
            pairs, lo0, hi0, pivmin = _bisection_setup(tri)
            lo, hi = np.full(n, lo0), np.full(n, hi0)
            narrow, closed = np.arange(0, n, 3), np.arange(1, n, 3) if with_closed else []
            lo[narrow], hi[narrow] = guess[narrow] - 0.25, guess[narrow] + 2.0 ** -30
            lo[closed] = guess[closed] + 0.5  # far from the guess, but no wider than tol
            hi[closed] = lo[closed] + 0.5 * tol
            want_lo, want_hi = lo.copy(), hi.copy()
            got_lo, got_hi = lo.copy(), hi.copy()
            fine = max(tol, 4.0 * math.ulp(max(abs(lo0), abs(hi0))))
            if side == "guess":
                lockstep_to_guess(want_lo, want_hi, guess, tol)
                assert _halve(got_lo, got_hi, guess, np.greater, tol, fine) is None
            else:
                want_passes, got_passes = [], []
                lockstep_counted(tri, want_lo, want_hi, tol, want_passes)

                def counted(mid, j):
                    got_passes.append(mid.copy())
                    return _sturm_counts(tri.diag, pairs, pivmin, mid) > j

                assert _halve(got_lo, got_hi, np.arange(n), counted, tol, fine) is None
                assert [hexes(m) for m in got_passes] == [hexes(m) for m in want_passes]
                assert all(m.size for m in got_passes)  # no empty count pass
            assert hexes(got_lo) == hexes(want_lo) and hexes(got_hi) == hexes(want_hi)
            assert hexes(got_lo[closed]) == hexes(lo[closed])
            assert hexes(got_hi[closed]) == hexes(hi[closed])
            mid = 0.5 * got_lo + 0.5 * got_hi
            assert not ((got_hi - got_lo > tol) & (mid > got_lo) & (mid < got_hi)).any()
            halved = np.setdiff1d(np.arange(n), closed)
            assert (got_hi[halved] - got_lo[halved] < hi[halved] - lo[halved]).all()
            if side == "guess":
                assert ((got_lo <= guess) & (guess <= got_hi))[halved].all()


def clamped_lockstep_sturm(tri, tol=1e-13, sweeps=None):
    """The lockstep sweep with dstebz's pivmin clamp in every row step.

    The reference that eig_sturm's deferred clamp must match bit for bit.
    Each sweep's midpoints, those of the open brackets, go to ``sweeps``
    when it is a list.
    """
    pairs, lo0, hi0, pivmin = _bisection_setup(tri)
    off2 = [e2 for _, e2 in pairs]
    lo, hi = np.full(tri.n, lo0), np.full(tri.n, hi0)
    k = np.arange(tri.n)
    while (k := k[hi[k] - lo[k] > tol]).size:
        mid = 0.5 * lo[k] + 0.5 * hi[k]
        splits = ~((mid <= lo[k]) | (mid >= hi[k]))
        k, mid = k[splits], mid[splits]
        if not k.size:
            break  # every bracket left is at float resolution: no sweep to count
        if sweeps is not None:
            sweeps.append(mid)
        pivots = tri.diag[:, None] - mid
        for i in range(tri.n):
            if i > 0:
                pivots[i] -= off2[i] / pivots[i - 1]
            pivots[i, np.abs(pivots[i]) < pivmin] = -pivmin
        below = np.count_nonzero(pivots < 0.0, axis=0) > k
        hi[k[below]] = mid[below]
        lo[k[~below]] = mid[~below]
    return 0.5 * lo + 0.5 * hi


class TestDeferredClamp:
    """eig_sturm's unclamped row steps give the clamped sweep's bits."""

    @staticmethod
    def assert_matches_clamped_sweep(tri, tol=1e-13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero pivot's inf or nan stays silent
            got = eig_sturm(tri, tol)
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in clamped_lockstep_sturm(tri, tol).tolist()]

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_symmetrized_blocks_up_to_the_benchmark_sizes(self, n):
        for variant in JordanVariant:
            for alpha in (0.0, dissipativity_threshold(n, variant), 1.0):
                self.assert_matches_clamped_sweep(symmetrize(UpperBidiagonal(n, alpha, variant)))

    def test_random_tridiagonals_with_exact_and_signed_zeros(self):
        rng = SplitMix64(77)
        for _ in range(200):
            t = random_tridiagonal(rng, rng.integer(1, 40))
            diag = 10.0 ** rng.integer(-5, 5) * t.diag
            off = 10.0 ** rng.integer(-5, 5) * t.offdiag
            diag[[rng.integer(0, 3) == 0 for _ in diag]] = 0.0
            diag[[rng.integer(0, 5) == 0 for _ in diag]] = -0.0
            off[[rng.integer(0, 3) == 0 for _ in off]] = 0.0
            off[[rng.integer(0, 5) == 0 for _ in off]] = -0.0
            tol = (1e-15, 1e-13)[rng.integer(0, 1)]
            self.assert_matches_clamped_sweep(SymTridiagonal(diag, off), tol)

    @pytest.mark.parametrize("n", [3, 5, 50, 51])
    def test_a_zero_first_pivot_is_recounted_by_the_clamped_count(self, n, monkeypatch):
        # at alpha = 0 the first midpoint is exactly 0.0 and the first pivot d_0 - 0.0 is 0;
        # a block's closed form settles every midpoint, so the recount is shown on a matrix
        # that is not a block, whose first midpoint is 0.0 too
        recounted, count = [], tridiagonal._sturm_count

        def spy(pairs, pivmin, mid):
            recounted.append(mid)
            return count(pairs, pivmin, mid)

        monkeypatch.setattr(tridiagonal, "_sturm_count", spy)
        for variant in JordanVariant:
            self.assert_matches_clamped_sweep(symmetrize(UpperBidiagonal(n, 0.0, variant)))
        del recounted[:]
        self.assert_matches_clamped_sweep(SymTridiagonal(np.zeros(n), np.full(n - 1, 0.5)))
        assert 0.0 in recounted

    def test_the_clamp_is_written_once(self):
        src = Path(__file__).resolve().parent.parent / "src"
        clamps = []
        for path in sorted(src.rglob("*.py")):
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(func, ast.FunctionDef):
                    clamps += [(path.name, func.name) for node in ast.walk(func)
                               if isinstance(node, ast.Compare)
                               and "abs(" in ast.unparse(node) and "pivmin" in ast.unparse(node)]
        assert clamps == [("tridiagonal.py", "_sturm_count")]

    def test_the_steering_rule_is_written_once(self):
        # by file and function in src/: every comparison with a name ``margin``, which
        # only verify and gftt_check make, of an inequality's margin with tol; every
        # comparison of a distance from a guess, the steering rule, only in _far; the
        # steering margin 32 eps (|alpha| + 2) worked out only in _eig_sturm_one, from
        # its set-up, so no function takes a parameter ``margin``
        src = Path(__file__).resolve().parent.parent / "src"
        compares, steering, margins, params, texts = [], [], [], [], 0
        for path in sorted(src.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            texts += text.count("32.0 * math.ulp(1.0)")
            for func in ast.walk(ast.parse(text)):
                if isinstance(func, (ast.FunctionDef, ast.Lambda)):
                    args = func.args
                    params += [(path.name, getattr(func, "name", "<lambda>"))
                               for arg in args.posonlyargs + args.args + args.kwonlyargs
                               if arg.arg == "margin"]
                if isinstance(func, ast.FunctionDef):
                    cmps = [node for node in ast.walk(func) if isinstance(node, ast.Compare)]
                    compares += [(path.name, func.name) for node in cmps
                                 if any(isinstance(name, ast.Name) and name.id == "margin"
                                        for name in ast.walk(node))]
                    steering += [(path.name, func.name) for node in cmps
                                 if re.search(r"abs\(\w+ - guess\)", ast.unparse(node))]
                    margins += [(path.name, func.name) for node in ast.walk(func)
                                if isinstance(node, ast.BinOp)
                                and ast.unparse(node) == "32.0 * math.ulp(1.0)"]
        assert compares == [("inequalities.py", "verify"), ("inequalities.py", "verify"),
                            ("semigroup.py", "gftt_check")]
        assert steering == [("tridiagonal.py", "_far")]
        assert margins == [("tridiagonal.py", "_eig_sturm_one")] and texts == 1
        assert params == []


class TestRowBlocks:
    """_sturm_counts builds its pivots 32 rows at a time, the last row carried to the next
    block; every count is ``_sturm_count``'s, at every shift."""

    @staticmethod
    def assert_counts_match(tri, recounted=None):
        pairs, lo0, hi0, pivmin = _bisection_setup(tri)
        mids = np.concatenate((np.linspace(lo0, hi0, 41), tri.diag,
                               np.linalg.eigvalsh(tri.to_dense()), [0.0, -0.0]))
        if recounted is not None:
            del recounted[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero pivot's inf or nan stays silent
            got = _sturm_counts(tri.diag, pairs, pivmin, mids)
        assert got.tolist() == [_sturm_count(pairs, pivmin, mid) for mid in mids.tolist()]
        return mids

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97])
    def test_every_block_size_counts_as_the_scalar_count(self, n):
        rng = SplitMix64(n)
        for variant in JordanVariant:  # unit rows only
            self.assert_counts_match(symmetrize(UpperBidiagonal(n, rng.symmetric(), variant)))
        for _ in range(3):  # no unit row
            self.assert_counts_match(random_tridiagonal(rng, n))

    @pytest.mark.parametrize("kind", [0.0, 1e-300])
    @pytest.mark.parametrize("row", [0, 31, 32, 63, 64, 96])
    def test_a_tiny_pivot_at_a_block_edge_is_recounted(self, row, kind, counted_shifts):
        # at shift 0.0 the pivot of ``row`` is its diagonal ``kind``, below pivmin: a zero
        # e2 cuts it off from the row above
        rng = SplitMix64(row)
        diag = 3.0 * np.array([rng.symmetric() for _ in range(97)])
        off = np.ones(96)
        diag[row] = kind
        if row:
            off[row - 1] = 0.0
        mids = self.assert_counts_match(SymTridiagonal(diag, off), counted_shifts)
        assert counted_shifts.count(0.0) == np.count_nonzero(mids == 0.0)

    @pytest.mark.parametrize("row", [30, 31, 32])
    def test_a_nan_crosses_a_block_boundary(self, row, counted_shifts):
        # a zero pivot at ``row`` and a zero e2 below it give 0 / 0 in the next row, and
        # the nan runs down its column across the boundary after row 31
        rng = SplitMix64(row)
        diag = 3.0 * np.array([rng.symmetric() for _ in range(97)])
        off = np.ones(96)
        diag[row], off[row - 1], off[row] = 0.0, 0.0, 0.0
        tri = SymTridiagonal(diag, off)
        with np.errstate(divide="ignore", invalid="ignore"):
            pivots = [p := diag[0]] + [p := d - e2 / p for d, e2 in zip(diag[1:], off * off)]
        assert pivots[row] == 0.0 and np.isnan(pivots[row + 1:]).all()
        mids = self.assert_counts_match(tri, counted_shifts)
        assert counted_shifts.count(0.0) == np.count_nonzero(mids == 0.0)

    @pytest.mark.parametrize("n", [33, 97])
    def test_unit_and_other_rows_mix_in_one_call(self, n):
        # e2 == 1.0 takes the reciprocal, any other e2 the division, in one pass
        rng = SplitMix64(n + 1)
        for _ in range(3):
            tri = random_tridiagonal(rng, n)
            off = tri.offdiag.copy()
            off[::2], off[1::5] = 1.0, -1.0
            self.assert_counts_match(SymTridiagonal(tri.diag, off))

    @staticmethod
    def runs(*pieces):
        """The diagonal of the (value, length) runs ``pieces``, in order."""
        return np.concatenate([np.full(length, value) for value, length in pieces])

    @pytest.mark.parametrize("off", [1.0, 0.625])
    @pytest.mark.parametrize("start", [30, 31, 32, 33])
    @pytest.mark.parametrize("end", [63, 64, 65, 97])
    def test_a_run_edge_near_a_block_edge(self, start, end, off):
        # a 32-row block shares one d - sigma row only when all its rows carry one d
        diag = self.runs((1.5, start), (-0.5, end - start), (1.5, 97 - end))
        self.assert_counts_match(SymTridiagonal(diag, np.full(96, off)))

    @pytest.mark.parametrize("off", [1.0, 0.625])
    @pytest.mark.parametrize("row", [0, 45, 96])
    def test_a_lone_entry_breaks_its_block_only(self, row, off):
        diag = np.full(97, 1.5)
        diag[row] = 0.25
        self.assert_counts_match(SymTridiagonal(diag, np.full(96, off)))

    @pytest.mark.parametrize("off", [1.0, 0.625])
    def test_a_run_value_comes_back_after_a_mixed_block(self, off):
        # rows 32-63 are filled row by row, and rows 64-96 take up the row of rows 0-31 again
        rng = SplitMix64(38)
        diag = self.runs((0.75, 32), (0.0, 32), (0.75, 33))
        diag[32:64] = [rng.symmetric() for _ in range(32)]
        self.assert_counts_match(SymTridiagonal(diag, np.full(96, off)))

    @pytest.mark.parametrize("off", [1.0, 0.625])
    @pytest.mark.parametrize("pieces", [
        ((0.0, 40), (-0.0, 30), (0.0, 27)),
        ((-0.0, 32), (0.0, 32), (-0.0, 33)),
        ((0.0, 31), (-0.0, 1), (0.0, 33)),
    ])
    def test_signed_zero_runs(self, pieces, off):
        # 0.0 == -0.0, so a block of -0.0 may take the row of 0.0: the two differ only in
        # the sign of a zero pivot, which is below pivmin and recounted; the shifts include
        # +-0.0 and every diagonal value
        diag = self.runs(*pieces)
        self.assert_counts_match(SymTridiagonal(diag, np.full(diag.size - 1, off)))

    @given(pieces=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                                     st.integers(1, 40)), min_size=1, max_size=12),
           n=st.integers(1, 130), off=st.sampled_from([1.0, -1.0, 0.625, 0.0]))
    @settings(max_examples=150, deadline=None)
    def test_property_run_length_diagonals_count_as_the_scalar_count(self, pieces, n, off):
        diag = np.resize(self.runs(*pieces), n)  # the runs repeated up to n rows
        self.assert_counts_match(SymTridiagonal(diag, np.full(n - 1, off)))

    def test_a_large_block_counts_in_flat_memory(self):
        # the pivots of 32 rows at a time: the n by 2n matrix of one pass would take 64 MB
        tri = symmetrize(UpperBidiagonal(2000, 0.3))
        eig_sturm(tri)  # loads chebyshev
        tracemalloc.start()
        try:
            eig_sturm(tri)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestScalarBisection:
    """The one scalar bisection loop: its freeze, its bound, and its home."""

    def test_freezes_when_the_midpoint_no_longer_splits(self):
        # 52 halvings leave [1, 1 + 2^-52]; the 53rd finds its midpoint rounds to 1
        assert _bisect(lambda lo, mid, hi: (lo, mid), 1.0, 2.0, 0.0) == (
            1.0, math.nextafter(1.0, 2.0), 53)

    @given(
        lo=st.floats(min_value=-1e308, max_value=1e308),
        width_exp=st.floats(min_value=-1074.0, max_value=1023.0),
        tol_exp=st.floats(min_value=-1074.0, max_value=-16.0),
        keep_low=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_ends_by_its_own_arithmetic(self, lo, width_exp, tol_exp, keep_low):
        # each halving leaves at most half the width plus one rounding, so no
        # bracket, subnormal to ~1e308 wide, needs a budget of halvings
        hi = lo + 2.0 ** width_exp
        assume(hi > lo and math.isfinite(hi - lo))
        tol = max(2.0 ** tol_exp * (hi - lo), 5e-324)

        def step(lo, mid, hi):
            return (lo, mid) if keep_low else (mid, hi)

        got_lo, got_hi, halvings = _bisect(step, lo, hi, tol)
        assert lo <= got_lo <= got_hi <= hi
        assert halvings <= math.ceil(math.log2(hi - lo) - math.log2(tol)) + 1

    def test_only_bisect_holds_a_scalar_bisection_loop(self):
        src = Path(__file__).resolve().parent.parent / "src"
        loops = []
        for path in sorted(src.rglob("*.py")):
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(func, ast.FunctionDef):
                    loops += [(path.name, func.name) for node in ast.walk(func)
                              if isinstance(node, ast.While)
                              and ast.unparse(node.test) == "hi - lo > tol"]
        assert loops == [("_scalar.py", "_bisect")]


def test_spectral_core_bit_matches_fixture():
    # eig_sturm on symmetrized blocks and the extremal vectors, as float.hex,
    # frozen from the scalar bisection and scipy's banded solve
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "spectral_bits.json")
    assert os.path.exists(fixture), "the committed fixture is missing; it is never regenerated"
    with open(fixture, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for key, want in frozen["eig_sturm"].items():
        variant, n, alpha = key.split("/")
        block = UpperBidiagonal(int(n), float(alpha), JordanVariant(variant))
        assert [v.hex() for v in eig_sturm(symmetrize(block))] == want, key
    for key, want in frozen["extremal_vector"].items():
        kind, n = key.split("/")
        assert [v.hex() for v in extremal_vector(InequalityKind(kind), int(n))] == want, key
    assert len(frozen["eig_sturm"]) == 30 and len(frozen["extremal_vector"]) == 12


class TestInverseIteration:
    def test_residuals_small(self):
        rng = SplitMix64(41)
        for n in (2, 5, 9):
            t = random_tridiagonal(rng, n)
            dense = t.to_dense()
            for lam in eig_sturm(t):
                v = eigvec_inverse_iteration(t, lam)
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(dense @ v - lam * v) < 1e-9

    @pytest.mark.parametrize(
        "diag, offdiag, lam", [([2.0, 2.0, 2.0], [0.0, 0.0], 2.0), ([0.0, 0.0], [1.0], 1.0)]
    )
    def test_singular_shift_is_jittered(self, diag, offdiag, lam):
        # T - lam I has an exactly zero pivot, so the first solve fails
        t = SymTridiagonal(np.array(diag), np.array(offdiag))
        with pytest.raises(np.linalg.LinAlgError):
            _solve_tridiagonal(t.offdiag, t.diag - lam, t.offdiag, np.ones(t.n))
        tol = 1e-12
        v = eigvec_inverse_iteration(t, lam, tol=tol)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(t.matvec(v) - lam * v) <= 10.0 * tol

    def test_solve_matches_lapack_gtsv_bit_for_bit(self):
        # scipy's solve_banded calls LAPACK dgtsv for (1, 1) bands
        rng = SplitMix64(43)
        for trial in range(300):
            n = rng.integer(2, 12)
            sub, diag, sup, rhs = (rng.vector(m) for m in (n - 1, n, n - 1, n))
            if trial % 2:  # entries in {-1, -0, 0, 1}: ties, signed zeros, zero pivots
                sub, diag = np.round(sub), np.round(diag)
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
            try:
                want = solve_banded((1, 1), ab, rhs)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    _solve_tridiagonal(sub, diag, sup, rhs)
                continue
            assert _solve_tridiagonal(sub, diag, sup, rhs).tobytes() == want.tobytes()

    def test_one_dimensional_case(self):
        t = SymTridiagonal(np.array([0.7]), np.array([]))
        v = eigvec_inverse_iteration(t, 0.7)
        assert np.array_equal(v, [1.0])
        with pytest.raises(ConvergenceError):
            eigvec_inverse_iteration(t, 0.9)

    @pytest.mark.parametrize("eigenvalue", [True, math.nan, math.inf, "2", 10**400],
                             ids=["bool", "nan", "inf", "text", "huge-int"])
    def test_the_eigenvalue_is_a_finite_real(self, eigenvalue):
        for n in (1, 3):
            with pytest.raises(ValueError, match="eigenvalue"):
                eigvec_inverse_iteration(symmetrize(UpperBidiagonal(n, 0.5)), eigenvalue)

    def test_convergence_error_carries_the_shift_and_the_residual(self):
        t = SymTridiagonal(np.array([0.7]), np.array([]))
        with pytest.raises(ConvergenceError) as failure:
            eigvec_inverse_iteration(t, 0.9)
        assert (failure.value.shift, failure.value.residual) == (0.9, abs(0.7 - 0.9))
        t = SymTridiagonal(np.array([1.0, 2.0]), np.array([1.0]))  # eigenvalues (3 ± √5) / 2
        with pytest.raises(ConvergenceError) as failure:
            eigvec_inverse_iteration(t, 1.5)
        error = failure.value
        assert error.shift == 1.5 and 0.5 < error.residual < 1.2
        assert str(error) == f"inverse iteration residual {error.residual!r} exceeds 1e-11 for shift 1.5"

    @pytest.mark.parametrize("diag, offdiag", [
        ([1e308], []), ([1e308, 1e308], [1.0]), ([-1e308, 1e308, 1.0], [1.0, 0.0]),
    ], ids=["1x1", "2x2", "nan-pivot"])
    def test_a_shift_across_the_range_raises_without_a_warning(self, diag, offdiag):
        # diag - shift overflows to inf: no pivot or residual is finite.  In the
        # 3x3 case the first interchange leaves 0 * inf = nan on the diagonal,
        # which then meets the zero off-diagonal: a zero pivot, not a division by it
        t = SymTridiagonal(np.array(diag), np.array(offdiag))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as failure:
                eigvec_inverse_iteration(t, -1e308)
        assert (failure.value.shift, failure.value.residual) == (-1e308, math.inf)

    def test_modified_block_eigenvector_closed_form(self):
        # for the symmetrized modified block, the eigenvector at eigenvalue
        # 2 alpha - 2 z has entries (-1)^(k-1) U_(k-1)(z), z a difference zero
        alpha = -0.4
        for n in (2, 3, 6):
            tri = symmetrize(UpperBidiagonal(n, alpha, JordanVariant.MODIFIED))
            dense = tri.to_dense()
            for z in u_diff_zeros(n):
                w = np.array(
                    [(-1.0) ** k * u_eval(k, z) for k in range(n)]
                )
                w /= np.linalg.norm(w)
                lam = 2 * alpha - 2 * z
                assert np.linalg.norm(dense @ w - lam * w) < 1e-11
                v = eigvec_inverse_iteration(tri, lam)
                # same vector up to sign
                assert min(
                    np.linalg.norm(v - w), np.linalg.norm(v + w)
                ) < 1e-8


class TestQuadForm:
    def test_matches_dense_quadratic(self):
        rng = SplitMix64(51)
        for variant in JordanVariant:
            for n in (1, 2, 4, 12):
                b = UpperBidiagonal(n, 0.6, variant)
                a = rng.vector(n)
                want = float(a @ (b.to_dense() @ a))
                assert quad_form(b, a) == pytest.approx(want, abs=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=12),
        alpha=st.floats(min_value=-2, max_value=2),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80)
    def test_property_matches_dense(self, n, alpha, seed):
        a = SplitMix64(seed).vector(n)
        for variant in JordanVariant:
            b = UpperBidiagonal(n, alpha, variant)
            want = float(a @ (b.to_dense() @ a))
            assert quad_form(b, a) == pytest.approx(want, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quad_form(UpperBidiagonal(3, 0.0), np.ones(4))


class TestDissipativity:
    def test_threshold_closed_forms(self):
        for n in range(1, 12):
            t_std = dissipativity_threshold(n, JordanVariant.STANDARD)
            assert t_std == pytest.approx(-math.cos(math.pi / (n + 1)), abs=1e-15)
            t_mod = dissipativity_threshold(n, JordanVariant.MODIFIED)
            assert t_mod == pytest.approx(
                -math.cos(2 * math.pi / (2 * n + 1)), abs=1e-15
            )
            assert dissipativity_threshold(n, JordanVariant.STANDARD, BlockSign.MINUS) \
                == pytest.approx(math.cos(math.pi / (n + 1)), abs=1e-15)
            assert dissipativity_threshold(n, JordanVariant.MODIFIED, BlockSign.MINUS) \
                == pytest.approx(math.cos(math.pi / (2 * n + 1)), abs=1e-15)

    def test_classification_against_quadratic_form_sampling(self):
        # dissipative iff the form is nonpositive for every vector; sample it
        rng = SplitMix64(61)
        for variant in JordanVariant:
            for n in (1, 2, 5):
                thr = dissipativity_threshold(n, variant)
                for shift in (-0.2, -0.01, 0.01, 0.2):
                    block = UpperBidiagonal(n, thr + shift, variant)
                    report = check_dissipative(block)
                    assert report.is_dissipative == (shift < 0)
                    if not report.is_dissipative:
                        w = report.witness
                        assert quad_form(block, w) > 0

    def test_boundary_alpha_counts_as_dissipative(self):
        for variant in JordanVariant:
            for n in (1, 3, 7):
                thr = dissipativity_threshold(n, variant)
                report = check_dissipative(UpperBidiagonal(n, thr, variant))
                assert report.is_dissipative
                assert abs(report.max_eigenvalue) < 1e-12

    @pytest.mark.parametrize("variant", list(JordanVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [1e14, -1e14, 1e16, -1e16, 1e100, -1e100, 1e300, -5e307])
    def test_blocks_where_ten_tol_is_below_float_resolution(self, variant, n, alpha):
        # check_dissipative asks inverse iteration for 10 tol = 1e-12, below eps ||T||
        # here; from about 1e16 on every jitter by tol also rounds to the same shift,
        # whose solve can meet an exactly zero pivot
        block = UpperBidiagonal(n, alpha, variant)
        tri = symmetrize(block)
        report = check_dissipative(block)
        assert report.is_dissipative == (alpha < 0)
        w = report.witness
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        off = np.abs(tri.offdiag)
        gershgorin = float(np.max(np.abs(tri.diag) + np.append(off, 0.0) + np.append(0.0, off)))
        gate = 10.0 * 1e-13 + n * np.finfo(float).eps * gershgorin
        assert np.linalg.norm(tri.matvec(w) - report.max_eigenvalue * w) <= gate
        far = 2.0 * alpha * (1.0 + 1e-6)  # 2e-6 |alpha| from every eigenvalue
        with pytest.raises(ConvergenceError) as failure:
            eigvec_inverse_iteration(tri, far, tol=1e-13)
        assert failure.value.shift == far

    def test_every_positive_tol_gets_a_verdict(self):
        # tol * 1e-2 underflows to 0 at tol = 5e-324; a 1x1 eigenvalue comes back an ulp,
        # or a pivot floor, off its entry; and at the n = 2 threshold, jitters below
        # ulp(max |diag|) leave every shifted diagonal exactly singular
        for n in (1, 2, 3, 16):
            for variant in JordanVariant:
                thr = dissipativity_threshold(n, variant)
                for alpha in (thr, math.nextafter(thr, 2.0), math.nextafter(thr, -2.0),
                              thr + 1e-3, 0.0, 0.3, 1e300, -5e307):
                    block = UpperBidiagonal(n, alpha, variant)
                    tri = symmetrize(block)
                    off = np.abs(tri.offdiag)
                    rows = np.abs(tri.diag) + np.append(off, 0.0) + np.append(0.0, off)
                    for tol in (1e-10, 1e-15, 1e-20, 1e-300, 5e-324):
                        report = check_dissipative(block, tol)
                        inner = max(min(1e-13, tol * 1e-2), math.ulp(0.0))
                        mu = report.max_eigenvalue
                        assert mu.hex() == float(eig_sturm(tri, inner)[-1]).hex()
                        assert report.is_dissipative == (mu <= tol)
                        w = report.witness
                        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                        gate = 10.0 * inner + n * np.finfo(float).eps * rows.max()
                        gate += 2e-292 if n == 1 else 0.0  # twice the Sturm count's pivot floor
                        assert np.linalg.norm(tri.matvec(w) - mu * w) <= gate

    def test_report_max_eigenvalue_matches_eigvalsh(self):
        for variant in JordanVariant:
            block = UpperBidiagonal(6, 0.11, variant)
            report = check_dissipative(block)
            J = block.to_dense()
            want = np.linalg.eigvalsh(J.T + J)[-1]
            assert report.max_eigenvalue == pytest.approx(want, abs=1e-11)
