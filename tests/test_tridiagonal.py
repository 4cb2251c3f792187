"""Structured matrices, Sturm eigenvalues, and dissipativity classification.

Dense numpy routines (eigvalsh, det, explicit matvec) serve as the second
route throughout, and scipy's solve_banded (LAPACK dgtsv) for the tridiagonal
solve; the library never calls them for these quantities.
"""

import ast
import itertools
import json
import math
import os
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
    _extreme_guess,
    _solve_tridiagonal,
    _sturm_count,
)


def random_tridiagonal(rng, n):
    diag = 3.0 * np.array([rng.symmetric() for _ in range(n)])
    off = 2.0 * np.array([rng.symmetric() for _ in range(n - 1)])
    return SymTridiagonal(diag, off)


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
        assert _eig_sturm_one(tri, 0, tol).hex() == float(full[0]).hex()
        assert _eig_sturm_one(tri, tri.n - 1, tol).hex() == float(full[-1]).hex()

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
                plain = _eig_sturm_one(sym, index, tol)
                del counted_shifts[:]
                guided = _eig_sturm_one(sym, index, tol, *_extreme_guess(block, top))
                assert guided.hex() == plain.hex()
                assert len(counted_shifts) <= 7  # no fallback ran

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_the_guided_route_gives_eig_sturms_extremes(self, n):
        for variant in JordanVariant:
            for alpha in (dissipativity_threshold(n, variant, BlockSign.PLUS),
                          dissipativity_threshold(n, variant, BlockSign.MINUS)):
                block = UpperBidiagonal(n, alpha, variant)
                sym = symmetrize(block)
                for tol in (1e-13, 1e-10):
                    full = eig_sturm(sym, tol)
                    for top, want in ((True, full[-1]), (False, full[0])):
                        got = _eig_sturm_one(sym, n - 1 if top else 0, tol,
                                             *_extreme_guess(block, top))
                        assert got.hex() == float(want).hex()

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_a_wrong_guess_falls_back_to_the_plain_bits(self, n, counted_shifts):
        for block, top in guided_sweep([n]):
            sym, index = symmetrize(block), n - 1 if top else 0
            guess, margin = _extreme_guess(block, top)
            for tol in (1e-13, 1e-15):
                del counted_shifts[:]
                plain = _eig_sturm_one(sym, index, tol)
                plain_counts = len(counted_shifts)
                for wrong in (guess + 0.1, guess - 0.1, guess + 10 * margin, guess - 10 * margin):
                    del counted_shifts[:]
                    assert _eig_sturm_one(sym, index, tol, wrong, margin).hex() == plain.hex()
                    if abs(block.alpha) <= 1.0 and tol == 1e-15:
                        # the bracket narrows past the error, so a settled side was wrong
                        assert len(counted_shifts) > plain_counts
                del counted_shifts[:]
                assert _eig_sturm_one(sym, index, tol, math.inf, margin).hex() == plain.hex()
                assert len(counted_shifts) == plain_counts  # an inf guess steers nothing

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_the_count_is_monotone_around_each_extreme_eigenvalue(self, n):
        # the premise that lets two real counts vouch for every settled side
        for block, top in guided_sweep([n]):
            sym = symmetrize(block)
            pairs, _, _, pivmin = _bisection_setup(sym)
            mu = _eig_sturm_one(sym, n - 1 if top else 0, 1e-13)
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
    """(block, tol) over both variants and tol 1e-13 and 1e-10, with alpha drawn
    from [-1, 1) and, in turn over the sizes, at +-1e3, +-1e6, 0 and 1e-300."""
    rng, fixed = SplitMix64(seed), itertools.cycle((1e3, -1e3, 1e6, -1e6, 0.0, 1e-300))
    for n in sizes:
        for variant in JordanVariant:
            for alpha in (rng.symmetric(), next(fixed)):
                for tol in (1e-13, 1e-10):
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


class TestSteeredSweeps:
    """The closed-form spectrum settles eig_sturm's far halvings; counts keep the clamped bits."""

    @pytest.mark.parametrize("sizes", [range(1, 41), (50, 64, 100, 127), (200, 300), (400,)],
                             ids=["1-40", "50-127", "200-300", "400"])
    def test_the_steered_sweeps_keep_the_clamped_bits(self, sizes):
        for block, tol in steered_sweep(sizes, seed=len(sizes)):
            tri = symmetrize(block)
            assert hexes(eig_sturm(tri, tol)) == hexes(clamped_lockstep_sturm(tri, tol))

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_wrong_guesses_cost_counts_not_bits(self, n, count_passes, monkeypatch):
        swept, sweeps = [], tridiagonal._sweeps  # the columns of each run of the sweeps

        def spy(diag, pairs, pivmin, lo, hi, k, *rest):
            swept.append(k.tolist())
            return sweeps(diag, pairs, pivmin, lo, hi, k, *rest)

        monkeypatch.setattr(tridiagonal, "_sweeps", spy)
        for variant in JordanVariant:
            for alpha in (-0.3, 0.7):
                tri = symmetrize(UpperBidiagonal(n, alpha, variant))
                guess, margin = _block_guesses(tri)
                moved = guess.copy()
                moved[n // 2] += 0.5
                for tol in (1e-13, 1e-15):
                    del count_passes[:]
                    plain = hexes(_eig_sturm(tri, tol, np.full(n, math.nan), margin))
                    plain_passes = len(count_passes)
                    for wrong in (guess + 0.1, guess - 0.1, guess + 10 * margin,
                                  guess - 10 * margin, moved):
                        del swept[:]
                        assert hexes(_eig_sturm(tri, tol, wrong, margin)) == plain
                        if tol == 1e-15 or wrong is moved:
                            # the bracket narrows past the error, so a settled side was wrong
                            want = [n // 2] if wrong is moved else list(range(n))
                            assert swept == [list(range(n)), want]
                    for steers_nothing in (math.inf, -math.inf, math.nan):
                        del count_passes[:], swept[:]
                        got = _eig_sturm(tri, tol, np.full(n, steers_nothing), margin)
                        assert hexes(got) == plain
                        assert len(count_passes) == plain_passes and len(swept) == 1

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
                _eig_sturm(tri, 1e-13, np.full(n, math.nan), 0.0)
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


def clamped_lockstep_sturm(tri, tol=1e-13):
    """The lockstep sweep with dstebz's pivmin clamp in every row step.

    The reference that eig_sturm's deferred clamp must match bit for bit.
    """
    pairs, lo0, hi0, pivmin = _bisection_setup(tri)
    off2 = [e2 for _, e2 in pairs]
    lo, hi = np.full(tri.n, lo0), np.full(tri.n, hi0)
    k = np.arange(tri.n)
    while (k := k[hi[k] - lo[k] > tol]).size:
        mid = 0.5 * lo[k] + 0.5 * hi[k]
        splits = ~((mid <= lo[k]) | (mid >= hi[k]))
        k, mid = k[splits], mid[splits]
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
        # a block's closed form settles that midpoint for every column not near 0.0, so the
        # recount is shown on a matrix that is not a block, whose first midpoint is 0.0 too
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

    def test_report_max_eigenvalue_matches_eigvalsh(self):
        for variant in JordanVariant:
            block = UpperBidiagonal(6, 0.11, variant)
            report = check_dissipative(block)
            J = block.to_dense()
            want = np.linalg.eigvalsh(J.T + J)[-1]
            assert report.max_eigenvalue == pytest.approx(want, abs=1e-11)
