"""Exponentials, operator norms, contraction checks, and the free-end probe.

scipy.linalg.expm and numpy's SVD are the second routes for the oracle
functions; the hand-computed 2x2 modified-block exponential

    exp(J~_2(alpha) x) = e^{alpha x} [[1, 2(1 - e^{-x/2})], [0, e^{-x/2}]]

pins down the non-Toeplitz last column that the discrepancy probe measures.
"""

import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fttlab import (
    InequalityKind,
    JordanVariant,
    UpperBidiagonal,
    check_dissipative,
    contraction_check,
    default_contraction_grid,
    dissipativity_threshold,
    exp_jordan_closed,
    expm_oracle,
    gftt2_discrepancy_probe,
    gftt2_exact_lhs,
    gftt2_toeplitz_lhs,
    gftt_check,
    gftt_lhs,
    norm_preserving_subspace,
    operator_norm,
    strict_contraction_check,
    verify,
)
from fttlab import semigroup
from fttlab.errors import ConsistencyError, OverflowFailure
from fttlab.rng import SplitMix64


def random_matrix(rng, n, scale=1.0):
    return scale * np.array([[rng.symmetric() for _ in range(n)] for _ in range(n)])


def shifted_dissipative(rng, n, margin):
    """Random matrix shifted so max eig(Q+Q^T) = -2*margin exactly."""
    A = random_matrix(rng, n)
    top = np.linalg.eigvalsh(A + A.T)[-1]
    return A - (0.5 * top + margin) * np.eye(n)


class TestExpmOracle:
    def test_against_scipy(self):
        rng = SplitMix64(101)
        for n in (1, 2, 4, 8):
            for _ in range(6):
                Q = random_matrix(rng, n, scale=2.0)
                x = 4.0 * rng.uniform()
                got = expm_oracle(Q, x)
                want = scipy.linalg.expm(Q * x)
                assert np.max(np.abs(got - want)) < 1e-11 * max(
                    1.0, float(np.max(np.abs(want)))
                )

    def test_zero_argument_gives_identity(self):
        Q = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(expm_oracle(Q, 0.0), np.eye(2))
        assert np.array_equal(expm_oracle(np.zeros((3, 3)), 5.0), np.eye(3))

    def test_semigroup_law(self):
        rng = SplitMix64(111)
        for _ in range(10):
            Q = random_matrix(rng, 5)
            x, y = 3.0 * rng.uniform(), 3.0 * rng.uniform()
            lhs = expm_oracle(Q, x + y)
            rhs = expm_oracle(Q, x) @ expm_oracle(Q, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(
                1.0, float(np.max(np.abs(lhs)))
            )

    def test_taylor_sum_ends_by_its_sixteenth_term(self):
        # a slice scaled to ||A||_1 <= 1/2 has k-th term at most 2^-k / k!
        assert 0.5**16 / math.factorial(16) < semigroup._TAYLOR_TOL

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    def test_argument_at_the_scaling_boundary(self, n, seed):
        # positive integers over a power of two, one column summing to exactly
        # that power: ||A||_1 = 1/2 exactly, so no squaring and the longest Taylor sum
        rng = SplitMix64(seed)
        K = np.array([[float(rng.integer(1, 1000)) for _ in range(n)] for _ in range(n)])
        sums = K.sum(axis=0)
        top = 2.0 ** math.ceil(math.log2(sums.max()))
        j = int(sums.argmax())
        K[j, j] += top - sums[j]
        A = K / (2.0 * top)
        assert np.abs(A).sum(axis=0).max() == 0.5
        got = expm_oracle(A, 1.0)
        want = scipy.linalg.expm(A)
        assert np.max(np.abs(got - want) / want) < 1e-13

    def test_overflow_raises(self):
        with pytest.raises(OverflowFailure):
            expm_oracle(np.diag([1000.0, 1000.0]), 1.0)

    def test_a_column_sum_that_overflows_over_finite_entries(self):
        # Q^2 = -c Q, so exp(Q) = I + Q (1 - e^-c) / c = [[0, 0], [-1, 1]] for c = 1e308,
        # although Q's first column sums to 2e308
        Q = np.array([[-1e308, 0.0], [-1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm_oracle(Q, 1.0)
            curve = contraction_check(Q, xs=[0.25, 1.0, 1.5])
        assert np.abs(got - [[0.0, 0.0], [-1.0, 1.0]]).max() < 1e-15
        # a curve keeps the bits of the one-point calls
        want = [operator_norm(expm_oracle(Q, x)) for x in (0.25, 1.0, 1.5)]
        assert curve.norms.tolist() == want
        # at x = 2 the entries themselves overflow, and ||Qx||_1 with them
        with pytest.raises(OverflowFailure, match=r"^\|\|Qx\|\|_1 overflows") as failure:
            contraction_check(Q, xs=[1.0, 2.0])
        assert failure.value.index == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expm_oracle(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            expm_oracle(np.eye(2), math.nan)


class TestJordanClosedForm:
    def test_matches_oracle(self):
        for n in (1, 2, 5, 10):
            for alpha in (-1.0, -0.3, 0.0, 0.8):
                for x in (0.0, 0.7, 4.9):
                    got = exp_jordan_closed(n, alpha, x)
                    block = UpperBidiagonal(n, alpha).to_dense()
                    want = expm_oracle(block, x)
                    assert np.max(np.abs(got - want)) < 1e-11 * max(
                        1.0, float(np.max(np.abs(want)))
                    )

    def test_matches_scipy_on_modified_blocks_via_oracle(self):
        # the modified block has no Toeplitz form; oracle vs scipy instead
        for n in (2, 3, 6):
            block = UpperBidiagonal(n, -0.4, JordanVariant.MODIFIED).to_dense()
            for x in (0.5, 2.0):
                got = expm_oracle(block, x)
                want = scipy.linalg.expm(block * x)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_hand_computed_modified_2x2(self):
        for alpha in (-0.5, 0.0, 0.3):
            for x in (0.25, 1.0, 3.0):
                block = UpperBidiagonal(2, alpha, JordanVariant.MODIFIED).to_dense()
                got = expm_oracle(block, x)
                want = math.exp(alpha * x) * np.array(
                    [
                        [1.0, 2.0 * (1.0 - math.exp(-x / 2.0))],
                        [0.0, math.exp(-x / 2.0)],
                    ]
                )
                assert np.max(np.abs(got - want)) < 1e-13

    def test_overflow_raises(self):
        with pytest.raises(OverflowFailure):
            exp_jordan_closed(3, 200.0, 10.0)

    def test_overflowing_coefficients_raise_instead_of_nan(self):
        # e^{alpha x} underflows to 0 while x^2/2 overflows: 0 * inf would be NaN
        with pytest.raises(OverflowFailure):
            exp_jordan_closed(3, -1.0, 1e200)


class TestOperatorNorm:
    def test_against_svd(self):
        rng = SplitMix64(121)
        for n in (1, 2, 3, 7):
            for _ in range(8):
                M = random_matrix(rng, n, scale=3.0)
                want = float(np.linalg.svd(M, compute_uv=False)[0])
                assert operator_norm(M) == pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_property_against_svd(self, n, seed):
        M = random_matrix(SplitMix64(seed), n)
        want = float(np.linalg.svd(M, compute_uv=False)[0])
        assert operator_norm(M) == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_start_vector_in_the_kernel(self):
        # the all-ones start vector lies exactly in the kernel of M^T M
        M = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert operator_norm(M) == pytest.approx(2.0, abs=1e-10)

    def test_start_vector_on_a_smaller_singular_value(self):
        # all ones is an eigenvector of M^T M for sigma = 1; the norm is 2
        M = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert operator_norm(M) == pytest.approx(2.0, abs=1e-12)

    def test_estimates_short_of_the_bound_take_the_lower_end(self, monkeypatch):
        # the settled estimate 0.375 lies far below the upper end 0.5, so it is rejected
        M = 0.5 * np.eye(2)
        lower, upper = semigroup._norm_bracket(M[None])
        assert semigroup._norm_bracket(M[None], np.array([0.375]))[0].tolist() == lower.tolist()
        monkeypatch.setattr(semigroup, "_power_run",
                            lambda M: (np.array([0.375]), np.array([True])))
        assert operator_norm(M) == lower[0] == 0.5
        # an estimate within the slack of the upper end is kept, bit for bit; twice that short, not
        close = upper[0] * (1.0 - 0.5 * semigroup._BOUND_SLACK)
        assert semigroup._norm_bracket(M[None], np.array([close]))[0].tolist() == [close]
        short = upper[0] * (1.0 - 2.0 * semigroup._BOUND_SLACK)
        assert semigroup._norm_bracket(M[None], np.array([short]))[0].tolist() == lower.tolist()

    def test_bracket_contains_svd(self):
        # random dense stacks, and Jordan exponentials up to n = 40 on a grid
        # reaching down to x = 0.001, where sigma_1 and sigma_2 nearly coincide
        rng = SplitMix64(311)
        stacks = [np.array([random_matrix(rng, n, scale=3.0) for _ in range(12)])
                  for n in (1, 2, 3, 7, 16, 40)]
        grid = np.concatenate(([0.0, 0.001, 0.003], default_contraction_grid()[1:]))
        for n in (1, 2, 5, 12, 13, 20, 40):
            for variant in JordanVariant:
                block = UpperBidiagonal(n, dissipativity_threshold(n, variant), variant)
                stacks.append(semigroup._expm_stack(block.to_dense(), grid)[0])
        for M in stacks:
            lower, upper = semigroup._norm_bracket(M)
            sigma = np.linalg.svd(M, compute_uv=False)[:, 0]
            allowance = 4 * M.shape[1] * np.finfo(float).eps
            assert np.all(upper >= sigma * (1.0 - allowance)), M.shape
            assert np.all(lower <= sigma * (1.0 + allowance)), M.shape
            assert np.all(upper - lower <= 1e-14 * upper), M.shape

    def test_huge_entries_do_not_overflow(self):
        M = math.exp(300) * np.array([[1.0, 1.0], [0.0, 1.0]])
        want = math.exp(300) * float(np.linalg.svd(M / math.exp(300), compute_uv=False)[0])
        assert operator_norm(M) == pytest.approx(want, rel=1e-10)


class TestContraction:
    def test_default_grid_shape(self):
        grid = default_contraction_grid()
        assert grid[0] == 0.0
        assert grid.size == 65
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == pytest.approx(10.0, abs=1e-12)

    def test_dissipative_generators_contract_everywhere(self):
        rng = SplitMix64(131)
        for _ in range(60):
            n = rng.integer(1, 6)
            Q = shifted_dissipative(rng, n, margin=0.0)
            curve = contraction_check(Q)
            assert curve.max_norm <= 1.0 + 1e-9

    def test_non_dissipative_generators_escape(self):
        rng = SplitMix64(141)
        for _ in range(60):
            n = rng.integer(2, 6)
            Q = shifted_dissipative(rng, n, margin=-0.1)  # pushed past zero
            curve = contraction_check(Q)
            assert curve.max_norm > 1.0

    # (n, past the threshold by: a miss, an escape)
    GRID_GAP = [(2, 2e-6, 3e-6), (8, 1e-7, 3e-7), (30, 5e-9, 8e-9)]

    @pytest.mark.parametrize("n, missed, caught", GRID_GAP)
    def test_the_default_grid_misses_blocks_just_past_the_threshold(self, n, missed, caught):
        # a known limit, measured: log N(x)/x reaches -threshold only as x -> 0+, so a grid
        # whose first positive point is 0.01 passes blocks up to O(0.01^2) past it
        for variant in JordanVariant:
            threshold = dissipativity_threshold(n, variant)
            block = UpperBidiagonal(n, threshold + missed, variant)
            assert not check_dissipative(block).is_dissipative, (n, variant)
            curve = contraction_check(block.to_dense())
            assert curve.max_norm == 1.0 and curve.norms.argmax() == 0, (n, variant)
            escaping = contraction_check(UpperBidiagonal(n, threshold + caught, variant).to_dense())
            assert escaping.max_norm > 1.0, (n, variant)

    def test_norm_at_zero_is_one(self):
        Q = np.array([[-1.0, 0.5], [0.0, -2.0]])
        curve = contraction_check(Q, xs=np.array([0.0, 1.0]))
        assert curve.norms[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_validation(self):
        Q = -np.eye(2)
        with pytest.raises(ValueError):
            contraction_check(Q, xs=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            contraction_check(Q, xs=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            contraction_check(Q, xs=np.array([1.0, 60.0]))


class TestBatchedCurve:
    """A norm curve is one pass over the grid in chunks, each one batched
    exponential and one lockstep power iteration; every point keeps the
    bits of a per-x call."""

    def test_curves_keep_the_bits_of_the_per_x_loop(self):
        fixture = Path(__file__).resolve().parent / "fixtures" / "norm_curve_bits.json"
        curves = json.loads(fixture.read_text(encoding="utf-8"))["curves"]
        assert len(curves) == 30
        for c in curves:
            block = UpperBidiagonal(c["n"], float.fromhex(c["alpha"]), JordanVariant(c["variant"]))
            got = [v.hex() for v in contraction_check(block.to_dense()).norms]
            assert got == c["norms"], (c["n"], c["variant"], c["position"])

    def test_each_slice_of_a_batched_exponential_is_a_single_call(self):
        rng = SplitMix64(301)
        xs = np.array([0.0, 1e-3, 0.2, 0.9, 3.0, 11.0, 40.0])
        for n in (1, 2, 5, 9):
            Q = random_matrix(rng, n)
            stack = semigroup._expm_stack(Q, xs)[0]
            anorms = [float(np.linalg.norm(Q * x, 1)) for x in xs]
            assert len({math.ceil(math.log2(a / 0.5)) if a > 0.5 else 0 for a in anorms}) >= 4
            for x, got in zip(xs, stack):
                assert got.tobytes() == expm_oracle(Q, x).tobytes(), (n, x)

    @pytest.mark.parametrize("growth", [-1.0, 20.0])  # 20: e^{20x} overflows from x ~ 35.4 on
    def test_a_shuffled_grid_keeps_each_slice_and_the_first_failure(self, growth):
        # slices leave the Taylor sum in no particular order, so windows hold stopped slices
        rng = SplitMix64(17)
        grid = np.geomspace(1e-8, 50.0, 120)[np.argsort(rng.vector(120))]
        Q = random_matrix(rng, 6) + growth * np.eye(6)
        stack, error = semigroup._expm_stack(Q, grid)
        first = None
        for i, x in enumerate(grid):
            try:
                want = expm_oracle(Q, x)
            except OverflowFailure as failure:
                first = i, str(failure)
                break
            assert stack[i].tobytes() == want.tobytes(), (i, x)
        if growth < 0:
            assert first is None and error is None and len(stack) == grid.size
        else:
            assert first is not None and 0 < first[0] < grid.size // 2
            assert (error.index, str(error)) == first and len(stack) == first[0]

    KERNEL_STACK = np.array([
        [[2.0, 0.3], [-0.4, 1.1]],
        [[1.0, -1.0], [1.0, -1.0]],  # all ones lies in the kernel of M^T M
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.5, -0.5], [-0.5, 1.5]],  # all ones is an eigenvector for sigma = 1
        [[-3.0, 0.5], [0.25, 0.75]],
    ])

    def test_rejected_slices_take_the_lower_end_inside_a_batch(self, monkeypatch):
        stack = self.KERNEL_STACK
        runs = []
        power_run = semigroup._power_run

        def counted(M):
            runs.append(M.shape[0])
            return power_run(M)

        monkeypatch.setattr(semigroup, "_power_run", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a kernel slice stops before g / |g| divides by zero
            got = semigroup._operator_norms(stack)
        assert runs == [4]  # the zero slice never iterates, and nothing restarts
        # slices 1 and 3 share the power-of-two scale 2 and take the bracket's lower end
        lower, _ = semigroup._norm_bracket(stack[[1, 3]] / 2.0)
        assert [got[1], got[3]] == (2.0 * lower).tolist()
        assert got[1] == pytest.approx(2.0, abs=1e-10)
        assert got[2] == 0.0
        assert got[3] == pytest.approx(2.0, abs=1e-12)
        assert [v.hex() for v in got] == [operator_norm(M).hex() for M in stack]

    @pytest.mark.parametrize("steps", [None, 1, 2, 31, 32, 33, 100])  # None: the real count
    def test_power_blocks_keep_the_bits_of_the_step_loop(self, monkeypatch, steps):
        if steps is not None:
            monkeypatch.setattr(semigroup, "_POWER_STEPS", steps)
        stacks = [self.KERNEL_STACK]
        rng = SplitMix64(23)
        for n in range(3, 9):  # rows that sum to 0: the all-ones start lies in the kernel
            M = np.round(4.0 * rng.vector(n * n)).reshape(n, n)
            M[:, -1] = -M[:, :-1].sum(axis=1)
            stacks.append(np.stack([M, M + np.eye(n), M.T]))
        for n in (8, 30):
            for variant in JordanVariant:
                Q = UpperBidiagonal(n, dissipativity_threshold(n, variant), variant).to_dense()
                stacks.append(semigroup._expm_stack(Q, default_contraction_grid())[0])
        for M in stacks:
            # the power-of-two rescale of _operator_norms
            M = M / np.ldexp(1.0, np.frexp(np.abs(M).max(axis=(1, 2)))[1])[:, None, None]
            want_sigma, want_settled = _step_loop(M, np.ones(M.shape[1]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an unread slice past the kernel divides 0 / 0
                sigma, settled = semigroup._power_run(M)
            assert settled.tolist() == want_settled.tolist(), M.shape
            assert [v.hex() for v in sigma[settled]] == [v.hex() for v in want_sigma[settled]], M.shape
            if steps is None and M.shape[1] == 30:  # both routes: a settled estimate, the lower end
                assert settled.any() and not settled.all(), M.shape

    def test_the_first_failing_point_names_the_error(self):
        # x = 1 and x = 50 both overflow while squaring; x = 1 comes first
        with pytest.raises(OverflowFailure, match="matrix exponential overflows"):
            contraction_check(np.array([[1e18]]), xs=np.array([1.0, 50.0]))
        # x = 50 fails the earlier stage, its ||Qx||_1 overflowing; x = 1 still names the error
        with pytest.raises(OverflowFailure, match="matrix exponential overflows") as failure:
            contraction_check(np.array([[1e307]]), xs=np.array([1.0, 50.0]))
        assert failure.value.index == 0

    def test_threshold_blocks_near_zero_match_svd(self):
        # near x = 0, exp(Qx) is close to I and sigma_2 / sigma_1 is close to 1,
        # where the power iteration does not settle and the bracket's lower end is used
        fine = np.concatenate(([0.0, 0.001], default_contraction_grid()[1:]))
        for n, grid in ((40, None), (12, fine), (13, fine)):
            Q = UpperBidiagonal(n, dissipativity_threshold(n, JordanVariant.STANDARD)).to_dense()
            curve = contraction_check(Q, grid)
            want = [float(np.linalg.svd(scipy.linalg.expm(Q * x), compute_uv=False)[0])
                    for x in curve.xs]
            assert curve.norms.tolist() == pytest.approx(want, rel=1e-9, abs=1e-11), n
            assert curve.max_norm <= 1.0 + 1e-9, n

    def test_threshold_blocks_match_svd_of_the_same_matrix(self):
        # a slice that has not settled within the power steps takes the bracket's
        # lower end, so near x = 0 no norm keeps a power estimate's ~1e-9 shortfall
        grid = np.concatenate(([0.0, 0.001, 0.003], default_contraction_grid()[1:]))
        unsettled = 0
        for n in range(1, 41):
            for variant in JordanVariant:
                Q = UpperBidiagonal(n, dissipativity_threshold(n, variant), variant).to_dense()
                norms = contraction_check(Q, grid).norms
                stack = semigroup._expm_stack(Q, grid)[0]
                want = np.linalg.svd(stack, compute_uv=False)[:, 0]
                assert np.all(np.abs(norms - want) <= 1e-10 * want), (n, variant)
                # the power-of-two rescale of _operator_norms
                scale = np.ldexp(1.0, np.frexp(np.abs(stack).max(axis=(1, 2)))[1])
                M = stack / scale[:, None, None]
                lower, _ = semigroup._norm_bracket(M)
                settled = semigroup._power_run(M)[1]
                assert norms[~settled].tolist() == (lower * scale)[~settled].tolist(), (n, variant)
                unsettled += np.count_nonzero(~settled)
        assert unsettled > 0

    def test_the_bracket_squares_a_slice_only_until_its_norm_is_decided(self, monkeypatch):
        # squaring all 65 slices 48 times would be 3120 slice-squarings in 48 rounds
        sizes = []
        frobenius = semigroup._frobenius

        def counted(B):
            sizes.append(B.shape[0])
            return frobenius(B)

        monkeypatch.setattr(semigroup, "_frobenius", counted)
        for variant in JordanVariant:
            Q = UpperBidiagonal(30, dissipativity_threshold(30, variant), variant).to_dense()
            sizes.clear()
            contraction_check(Q)
            # M^T M of every slice but x = 0, an exact I, before the first squaring
            assert sizes[0] == 64
            squarings, rounds = sum(sizes[1:]), len(sizes) - 1
            assert squarings <= 1000 and rounds <= 24, (variant, squarings, rounds)

    def test_a_default_grid_curve_has_no_one_slice_tail(self, monkeypatch):
        # x = 0, an exact I, never enters the bracket, so no round squares one slice alone
        sizes = []
        frobenius = semigroup._frobenius

        def counted(B):
            sizes.append(B.shape[0])
            return frobenius(B)

        monkeypatch.setattr(semigroup, "_frobenius", counted)
        for n in (1, 2, 8):
            for variant in JordanVariant:
                Q = UpperBidiagonal(n, dissipativity_threshold(n, variant), variant).to_dense()
                sizes.clear()
                contraction_check(Q)
                if n == 1:  # every slice of a 1 x 1 curve is an exact c I
                    assert sizes == [], variant
                else:
                    assert sizes[0] == 64 and min(sizes) > 1, (n, variant, sizes)

    def test_an_exact_multiple_of_the_identity_skips_the_bracket(self, monkeypatch):
        # the bypass must give the lower end the bracket itself returns from the same estimates
        wants = {}
        for n in range(1, 65):
            M = np.stack([sign * 2.0**-k * np.eye(n) for k in (-3, 0, 1, 7, 30, 1000)
                          for sign in (1.0, -1.0)])
            scale = np.ldexp(1.0, np.frexp(np.abs(M).max(axis=(1, 2)))[1])
            sigma, settled = semigroup._power_run(M / scale[:, None, None])
            assert settled.all(), n
            lower = semigroup._norm_bracket(M / scale[:, None, None], sigma)[0]
            wants[n] = M, _hexes(lower * scale)
        brackets = []
        norm_bracket = semigroup._norm_bracket

        def counted(M, estimates=None):
            brackets.append(M.shape)
            return norm_bracket(M, estimates)

        monkeypatch.setattr(semigroup, "_norm_bracket", counted)
        for n, (M, want) in wants.items():
            assert _hexes(semigroup._operator_norms(M)) == want, n
        assert brackets == []
        # a slice that is not c I still goes to the bracket, alone
        M = np.stack([np.eye(3), np.diag([1.0, 1.0, 1.0 - 2.0**-45]), np.eye(3)])
        semigroup._operator_norms(M)
        assert brackets == [(1, 3, 3)]

    def test_the_taylor_sum_works_from_the_first_slice_still_adding(self, monkeypatch):
        # _adding sees each round's window; it starts where the last round's first True was
        calls = []
        adding = semigroup._adding

        def counted(term):
            flags = adding(term)
            calls.append(flags.copy())
            return flags

        monkeypatch.setattr(semigroup, "_adding", counted)
        Q = UpperBidiagonal(8, dissipativity_threshold(8, JordanVariant.STANDARD)).to_dense()
        grid = default_contraction_grid()
        stack = semigroup._expm_stack(Q, grid)[0]
        assert calls[0].size == grid.size
        for before, after in zip(calls, calls[1:]):
            assert after.size == before.size - before.argmax() and before.any()
        assert not calls[-1].any()
        assert len({flags.size for flags in calls}) >= 4  # the window shrinks along the grid
        assert [m.tobytes() for m in stack] == [expm_oracle(Q, x).tobytes() for x in grid]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 30, 40])
    def test_retiring_slices_early_keeps_each_route(self, monkeypatch, n):
        grid = np.concatenate(([0.0, 0.001, 0.003], default_contraction_grid()[1:]))
        cases = []
        for variant in JordanVariant:
            for offset in (-0.02, 0.0, 0.02):
                alpha = dissipativity_threshold(n, variant) + offset
                stack = semigroup._expm_stack(UpperBidiagonal(n, alpha, variant).to_dense(), grid)[0]
                # the power-of-two rescale of _operator_norms
                M = stack / np.ldexp(1.0, np.frexp(np.abs(stack).max(axis=(1, 2)))[1])[:, None, None]
                sigma, settled = semigroup._power_run(M)
                lower, upper = _full_bracket(M)
                admitted = settled & (sigma >= upper * (1.0 - semigroup._BOUND_SLACK))
                estimates = np.where(settled, sigma, np.nan)
                cases.append((M, estimates, lower, upper, admitted))
                got = semigroup._norm_bracket(M, estimates)[0]
                # an estimate the 48th squaring admits keeps its bits; any other slice
                # takes the lower end it gets without estimates
                assert _hexes(got[admitted]) == _hexes(sigma[admitted]), (variant, offset)
                own = semigroup._norm_bracket(M)[0]
                assert _hexes(got[~admitted]) == _hexes(own[~admitted]), (variant, offset)
        assert any(admitted.any() for *_, admitted in cases)
        # both routes occur, except at n = 1, where every estimate is admitted
        assert n == 1 or any((~admitted).any() for *_, admitted in cases)
        # a width never met: every slice that no estimate decides is squared 48 times
        monkeypatch.setattr(semigroup, "_BOUND_WIDTH", -1.0)
        for M, estimates, lower, upper, admitted in cases:
            got_lower, got_upper = semigroup._norm_bracket(M)
            assert (_hexes(got_lower), _hexes(got_upper)) == (_hexes(lower), _hexes(upper))
            want = np.where(admitted, estimates, lower)
            assert _hexes(semigroup._norm_bracket(M, estimates)[0]) == _hexes(want)

    def test_a_failing_curve_costs_one_chunk(self, monkeypatch):
        # e^{20x} overflows from x ~ 35.4 on: the grid fits in one chunk, whose
        # first overflowing slice is the per-x loop's first failure
        Q = UpperBidiagonal(3, 20.0).to_dense()
        grid = np.linspace(0.0, 50.0, 1024)
        with pytest.raises(OverflowFailure) as single:
            for x in grid:
                operator_norm(expm_oracle(Q, x))
        calls = []
        expm_stack = semigroup._expm_stack

        def counted(Q, xs):
            calls.append(xs.size)
            return expm_stack(Q, xs)

        monkeypatch.setattr(semigroup, "_expm_stack", counted)
        with pytest.raises(OverflowFailure) as batched:
            contraction_check(Q, grid)
        assert str(batched.value) == str(single.value)
        assert calls == [grid.size]

    def test_a_late_failure_costs_one_batch(self, monkeypatch):
        # n = 40, alpha = 30: from x ~ 22.91 the norm of exp(Qx) overflows while
        # its entries stay finite a few points longer, so the loop's error is a
        # norm's; the grid fits in one chunk, and its norms find it
        Q = UpperBidiagonal(40, 30.0).to_dense()
        grid = np.linspace(0.0, 50.0, 5001)[2200:2400]
        with pytest.raises(OverflowFailure, match="operator norm") as single:
            for x in grid:
                operator_norm(expm_oracle(Q, x))
        slices = []
        expm_stack = semigroup._expm_stack

        def counted(Q, xs):
            slices.append(xs.size)
            return expm_stack(Q, xs)

        monkeypatch.setattr(semigroup, "_expm_stack", counted)
        with pytest.raises(OverflowFailure) as batched:
            contraction_check(Q, grid)
        assert str(batched.value) == str(single.value)
        assert slices == [grid.size]

    def test_a_passing_curve_is_checked_once_per_array(self, monkeypatch):
        # the 65 exponentials and the 65 norms are each one finite check, not one per slice
        checked = []
        check = semigroup.finite

        def counted(value, what):
            checked.append((what, np.shape(value)))
            return check(value, what)

        monkeypatch.setattr(semigroup, "finite", counted)
        Q = UpperBidiagonal(8, dissipativity_threshold(8, JordanVariant.STANDARD)).to_dense()
        contraction_check(Q)
        assert checked == [("matrix exponential", (65, 8, 8)), ("operator norm", (65,))]

    def test_the_stack_stops_at_its_first_failing_slice(self):
        # e^{20x} overflows from x ~ 35.4 on: grid point 720 is the first to fail
        grid = np.linspace(0.0, 50.0, 1024)
        stack, error = semigroup._expm_stack(UpperBidiagonal(3, 20.0).to_dense(), grid)
        assert stack.shape == (720, 3, 3) and np.isfinite(stack).all()
        assert isinstance(error, OverflowFailure) and error.index == 720
        assert "matrix exponential overflows" in str(error)
        # a passing stack has no error
        stack, error = semigroup._expm_stack(UpperBidiagonal(3, 20.0).to_dense(), grid[:720])
        assert stack.shape == (720, 3, 3) and error is None

    # (n, alpha, grid, message, index of the per-x loop's first failure)
    FAILING_CURVES = [
        (3, 20.0, np.linspace(0.0, 50.0, 1024), "matrix exponential overflows", 720),
        (40, 30.0, np.linspace(0.0, 50.0, 5001)[2200:2400], "operator norm", 91),
        (1, 1e18, np.array([1.0, 50.0]), "matrix exponential overflows", 0),
    ]

    @pytest.mark.parametrize("slices", [1, 7, None])  # None: the whole grid in one chunk
    def test_chunks_do_not_change_a_curve(self, monkeypatch, slices):
        sizes = []
        expm_stack = semigroup._expm_stack

        def counted(Q, xs):
            sizes.append(xs.size)
            return expm_stack(Q, xs)

        def chunk_of(n):  # sets the budget to the given number of n x n slices
            sizes.clear()
            monkeypatch.setattr(semigroup, "_CHUNK_BYTES", 8 * n * n * (slices or 10**6))
            return slices or 10**6

        monkeypatch.setattr(semigroup, "_expm_stack", counted)
        fixture = Path(__file__).resolve().parent / "fixtures" / "norm_curve_bits.json"
        curves = json.loads(fixture.read_text(encoding="utf-8"))["curves"]
        if slices is None:  # one chunk, as at the default budget, which the test above checks
            curves = []
        for c in curves:
            block = UpperBidiagonal(c["n"], float.fromhex(c["alpha"]), JordanVariant(c["variant"]))
            chunk = chunk_of(c["n"])
            assert [v.hex() for v in contraction_check(block.to_dense()).norms] == c["norms"]
            assert max(sizes) == chunk and sum(sizes) == 65
        for case, (n, alpha, grid, message, index) in enumerate(self.FAILING_CURVES):
            chunk = chunk_of(n)
            with pytest.raises(OverflowFailure) as batched:
                contraction_check(UpperBidiagonal(n, alpha).to_dense(), grid)
            assert (str(batched.value), batched.value.index) == _per_x_failure(case)
            assert message in str(batched.value) and batched.value.index == index
            assert max(sizes) <= chunk


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _full_bracket(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): every slice squared 48 times, then its witness, the reference
    for the bracket that retires each slice once its norm is decided."""
    B = M.transpose(0, 2, 1) @ M
    norms = semigroup._frobenius(B).tolist()  # Python floats: ** below is libm's pow
    upper = [math.sqrt(norm) for norm in norms]
    for k in range(1, semigroup._BOUND_SQUARINGS + 1):
        B /= np.array(norms)[:, None, None]
        B = B @ B
        norms = semigroup._frobenius(B).tolist()
        upper = [bound * norm ** (0.5 ** (k + 1)) for bound, norm in zip(upper, norms)]
    c = np.take_along_axis(B, (B * B).sum(axis=1).argmax(axis=1)[:, None, None], axis=2)
    w = M @ c
    lower = np.sqrt((w.transpose(0, 2, 1) @ w) / (c.transpose(0, 2, 1) @ c)).ravel()
    return lower, np.array(upper)


def _step_loop(M: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, settled): the lockstep power run with its convergence test after
    every step, the reference for the run that tests once, after all its steps."""
    k, n, _ = M.shape
    sigma = np.empty(k)
    settled = np.zeros(k, dtype=bool)
    live = np.arange(k)
    MT = M.transpose(0, 2, 1)
    v = np.broadcast_to((start / math.sqrt(start.dot(start)))[:, None], (k, n, 1))
    sigma_prev = np.full((k, 1, 1), -1.0)
    close_prev = np.zeros((k, 1, 1), dtype=bool)
    for _ in range(semigroup._POWER_STEPS):
        w = M @ v
        sig = np.sqrt(w.transpose(0, 2, 1) @ w)
        g = MT @ w
        gn = np.sqrt(g.transpose(0, 2, 1) @ g)
        close = np.abs(sig - sigma_prev) <= semigroup._POWER_TOL * np.maximum(sig, 1e-300)
        stop = close & close_prev
        if np.count_nonzero(stop) or np.count_nonzero(gn) < gn.size:
            kernel = (gn == 0.0).ravel()
            done = stop.ravel() | kernel
            sigma[live[done]] = sig[done].ravel()
            settled[live[done]] = ~kernel[done]
            keep = ~done
            live, M, sig, g, gn, close = live[keep], M[keep], sig[keep], g[keep], gn[keep], close[keep]
            if not live.size:
                return sigma, settled
            MT = M.transpose(0, 2, 1)
        v = g / gn
        sigma_prev, close_prev = sig, close
    sigma[live] = sigma_prev.ravel()
    return sigma, settled


@functools.cache
def _per_x_failure(case: int) -> tuple[str, int]:
    """(message, grid position) of the first failure of the per-x loop on a failing curve."""
    n, alpha, grid, _, _ = TestBatchedCurve.FAILING_CURVES[case]
    Q = UpperBidiagonal(n, alpha).to_dense()
    for i, x in enumerate(grid):
        try:
            operator_norm(expm_oracle(Q, x))
        except OverflowFailure as error:
            return str(error), i
    raise AssertionError("the curve does not fail")


class TestGftt:
    def test_lhs_is_propagator_image_norm(self):
        rng = SplitMix64(151)
        for n in (1, 2, 6, 12):
            a = rng.vector(n)
            for x in (0.0, 0.4, 2.5, -1.3):
                want = float(np.sum((exp_jordan_closed(n, 0.0, x) @ a) ** 2))
                assert gftt_lhs(a, x) == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_check_holds_on_seeded_samples(self):
        rng = SplitMix64(161)
        for _ in range(200):
            n = rng.integer(1, 16)
            a = rng.vector(n)
            x = 5.0 * rng.uniform()
            assert gftt_check(a, x).holds

    def test_equality_at_zero(self):
        rng = SplitMix64(171)
        for n in (1, 3, 9):
            a = rng.vector(n)
            report = gftt_check(a, 0.0)
            assert abs(report.margin) <= 1e-13 * float(a @ a)

    def test_derivative_at_zero_recovers_pinned_lower_margin(self):
        rng = SplitMix64(181)
        h = 1e-5
        for n in (1, 2, 5, 11):
            a = rng.vector(n)
            sum_sq = float(a @ a)
            cos_t = math.cos(math.pi / (n + 1))

            def gap(x):
                return math.exp(2.0 * x * cos_t) * sum_sq - gftt_lhs(a, x)

            derivative = (gap(h) - gap(-h)) / (2.0 * h)
            margin = verify(InequalityKind.LOWER_PINNED, a).margin
            assert derivative == pytest.approx(margin, abs=1e-6 * max(1.0, sum_sq))

    def test_overflowing_bound_raises_overflow_failure(self):
        with pytest.raises(OverflowFailure):
            gftt_check(np.ones(2), 1000.0)

    @pytest.mark.parametrize("form", [gftt_lhs, gftt2_toeplitz_lhs])
    @pytest.mark.parametrize("n, x", [(3, 1e200), (2, 1e160)])
    def test_overflowing_propagator_raises_overflow_failure(self, form, n, x):
        # at 1e200 x^2/2 overflows; at 1e160 every coefficient is finite but a square is not
        with pytest.raises(OverflowFailure):
            form(np.ones(n), x)

    def test_negative_x_rejected_by_check_only(self):
        a = np.array([1.0, 2.0])
        assert gftt_lhs(a, -3.0) >= 0.0
        with pytest.raises(ValueError):
            gftt_check(a, -0.5)


class TestGftt2:
    def test_toeplitz_form_at_n1_is_pure_decay(self):
        for x in (0.0, 0.8, 4.0):
            assert gftt2_toeplitz_lhs(np.array([1.5]), x) == pytest.approx(
                math.exp(-x) * 2.25, abs=1e-14
            )

    def test_overflowing_decay_term_raises_overflow_failure(self):
        with pytest.raises(OverflowFailure):
            gftt2_toeplitz_lhs(np.ones(2), -1000.0)

    def test_toeplitz_form_keeps_its_bits(self):
        # the last entry is squared as numpy's scalar power, which returns inf
        # where Python's float ** 2 raised; it must round exactly as that did
        def python_square_form(a, x):
            head = math.exp(-x) * float(a[-1]) ** 2
            return semigroup._squared_norm(head, semigroup._propagator_rows(a, x)[1:], x)

        rng = SplitMix64(11)  # the draws of probe-gftt2 --n 2 --samples 40 --seed 11
        for _ in range(40):
            a = rng.vector(2)
            x = 5.0 * rng.uniform()
            assert gftt2_toeplitz_lhs(a, x).hex() == python_square_form(a, x).hex()
        draws = SplitMix64(20240).vector(100_000)
        got = [gftt2_toeplitz_lhs(draws[i:i + 1], 0.0).hex() for i in range(draws.size)]
        assert got == [(float(v) ** 2).hex() for v in draws]

    def test_exact_route_contracts_at_free_threshold(self):
        rng = SplitMix64(191)
        for _ in range(150):
            n = rng.integer(1, 10)
            alpha = -math.cos(2.0 * math.pi / (2 * n + 1))
            a = rng.vector(n)
            x = 5.0 * rng.uniform()
            assert gftt2_exact_lhs(a, alpha, x) <= float(a @ a) * (1.0 + 1e-10)

    def test_toeplitz_form_deviates_by_hand_computed_entry(self):
        # at a = e_2, the n = 2 gap is exactly x^2 - 4(1 - e^{-x/2})^2
        a = np.array([0.0, 1.0])
        alpha = -math.cos(2.0 * math.pi / 5.0)
        for x in (0.5, 1.0, 2.0, 4.0):
            toeplitz = gftt2_toeplitz_lhs(a, x)
            exact = math.exp(-2 * alpha * x) * gftt2_exact_lhs(a, alpha, x)
            want = x * x - 4.0 * (1.0 - math.exp(-x / 2.0)) ** 2
            assert toeplitz - exact == pytest.approx(want, abs=1e-10)

    def test_the_guess_fails_at_n5_where_the_probe_sees_no_excess(self):
        # the guess is a quadratic form a^T G a; G by polarization, its top eigenvector the witness
        n, x = 5, 1.0
        unit = np.eye(n)
        form = np.array([[0.25 * (gftt2_toeplitz_lhs(unit[i] + unit[j], x)
                                  - gftt2_toeplitz_lhs(unit[i] - unit[j], x))
                          for j in range(n)] for i in range(n)])
        v = np.linalg.eigh(form)[1][:, -1]
        guess = gftt2_toeplitz_lhs(v, x)
        bound = math.exp(2.0 * x * math.cos(2.0 * math.pi / (2 * n + 1)))
        exact = gftt2_exact_lhs(v, dissipativity_threshold(n, JordanVariant.MODIFIED), x)
        assert guess == pytest.approx(5.4929, abs=1e-4) and bound == pytest.approx(5.3790, abs=1e-4)
        assert guess > bound * float(v @ v)
        assert exact == pytest.approx(0.979, abs=1e-3) and exact <= float(v @ v)
        # the random probe does not see it at this n
        assert gftt2_discrepancy_probe(n, 200, 1).bound_excess.value < 0.0

    def test_probe_finds_counterexample_at_n2(self):
        report = gftt2_discrepancy_probe(2, 300, 42)
        assert report.bound_excess.value > 0.1
        assert report.exact_discrepancy.value > 0.1
        # witness actually reproduces the reported excess
        w = report.bound_excess
        bound = math.exp(
            2.0 * w.x * math.cos(2.0 * math.pi / 5.0)
        ) * float(w.a @ w.a)
        assert gftt2_toeplitz_lhs(w.a, w.x) - bound == pytest.approx(
            w.value, rel=1e-12
        )

    def test_probe_is_clean_at_n1(self):
        report = gftt2_discrepancy_probe(1, 200, 7)
        assert report.bound_excess.value == pytest.approx(0.0, abs=1e-13)
        assert report.exact_discrepancy.value <= 1e-12

    def test_probe_deterministic_and_empty(self):
        r1 = gftt2_discrepancy_probe(3, 50, 5)
        r2 = gftt2_discrepancy_probe(3, 50, 5)
        assert r1.bound_excess.value == r2.bound_excess.value
        assert r1.bound_excess.x == r2.bound_excess.x
        assert np.array_equal(r1.bound_excess.a, r2.bound_excess.a)
        for n in (3, 10**15):  # no block is built for no samples
            empty = gftt2_discrepancy_probe(n, 0, 5)
            assert empty.bound_excess is None
            assert empty.exact_discrepancy is None

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_probe_keeps_the_bits_of_the_per_sample_loop(self, monkeypatch, n):
        events = []  # one "draw" per chunk, then the size of that chunk's batched exponential
        expm_stack, vector = semigroup._expm_stack, SplitMix64.vector

        def counted(Q, xs):
            events.append(xs.size)
            return expm_stack(Q, xs)

        def drawn(rng, size):
            events.append("draw")
            return vector(rng, size)

        monkeypatch.setattr(semigroup, "_expm_stack", counted)
        monkeypatch.setattr(SplitMix64, "vector", drawn)
        default = semigroup._CHUNK_BYTES
        for seed in (0, 11):
            want = _per_sample_probe(n, 300, seed)
            for chunk in (None, 7):  # None: the default budget, all 300 samples in one chunk
                monkeypatch.setattr(semigroup, "_CHUNK_BYTES", 8 * n * n * chunk if chunk else default)
                events.clear()
                report = gftt2_discrepancy_probe(n, 300, seed)
                got = [(w.value.hex(), w.x.hex(), w.a.tobytes())
                       for w in (report.bound_excess, report.exact_discrepancy)]
                assert got == want, (n, seed, chunk)
                # a chunk's samples are drawn in one call, then their exponentials taken in one
                sizes = [300] if chunk is None else [7] * 42 + [6]
                assert events == [e for size in sizes for e in ["draw", size]]

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_a_witness_owns_its_vector(self, monkeypatch, chunk):
        # a view into the chunk's draws would keep them all alive with the report
        if chunk:
            monkeypatch.setattr(semigroup, "_CHUNK_BYTES", 8 * 3 * 3 * chunk)
        report = gftt2_discrepancy_probe(3, 50, 4)
        for witness in (report.bound_excess, report.exact_discrepancy):
            assert witness.a.base is None and witness.a.flags.owndata
            assert witness.a.shape == (3,)

    def test_a_probe_failure_names_its_sample(self, monkeypatch):
        # no valid input fails, so the third exponential of the second chunk is made to
        expm_stack = semigroup._expm_stack
        calls = []

        def failing(Q, xs):
            stack, error = expm_stack(Q, xs)
            calls.append(xs.size)
            if len(calls) == 2:
                return stack[:2], OverflowFailure("injected", index=2)
            return stack, error

        monkeypatch.setattr(semigroup, "_expm_stack", failing)
        monkeypatch.setattr(semigroup, "_CHUNK_BYTES", 8 * 2 * 2 * 7)
        with pytest.raises(OverflowFailure, match="injected") as failure:
            gftt2_discrepancy_probe(2, 30, 1)
        assert failure.value.index == 7 + 2 and calls == [7, 7]

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            gftt2_discrepancy_probe(0, 10, 1)
        with pytest.raises(ValueError):
            gftt2_discrepancy_probe(2, -1, 1)


def _per_sample_probe(n: int, samples: int, seed: int) -> list[tuple[str, str, bytes]]:
    """(value, x, a) of both probe witnesses, as a loop over one sample at a time finds them."""
    alpha = dissipativity_threshold(n, JordanVariant.MODIFIED)
    rng = SplitMix64(seed)
    excess = discrepancy = None
    for _ in range(samples):
        a = rng.vector(n)
        x = 5.0 * rng.uniform()
        toeplitz = gftt2_toeplitz_lhs(a, x)
        e_val = toeplitz - math.exp(-2.0 * alpha * x) * float(a @ a)
        d_val = abs(toeplitz - math.exp(-2.0 * alpha * x) * gftt2_exact_lhs(a, alpha, x))
        if excess is None or e_val > excess[0]:
            excess = (e_val, x, a)
        if discrepancy is None or d_val > discrepancy[0]:
            discrepancy = (d_val, x, a)
    return [(value.hex(), x.hex(), a.tobytes()) for value, x, a in (excess, discrepancy)]


class TestNormPreservingSubspace:
    def orthogonal(self, rng, n):
        Q, _ = np.linalg.qr(
            np.array([[rng.symmetric() for _ in range(n)] for _ in range(n)])
        )
        return Q

    def test_skew_plus_strict_split(self):
        rng = SplitMix64(201)
        for skew_dim, strict_dim in ((2, 3), (0, 4), (4, 0), (2, 1)):
            n = skew_dim + strict_dim
            Q0 = np.zeros((n, n))
            if skew_dim:
                for i in range(0, skew_dim - 1, 2):
                    w = 1.0 + rng.uniform()
                    Q0[i, i + 1] = w
                    Q0[i + 1, i] = -w
            if strict_dim:
                Q0[skew_dim:, skew_dim:] = -np.diag(
                    [0.5 + rng.uniform() for _ in range(strict_dim)]
                )
            O = self.orthogonal(rng, n)
            Q = O.T @ Q0 @ O
            for x in (0.5, 2.0):
                basis = norm_preserving_subspace(Q, x)
                assert basis.dim == skew_dim
                assert basis.vectors.shape == (n, skew_dim)
                if skew_dim:
                    gram = basis.vectors.T @ basis.vectors
                    assert np.max(np.abs(gram - np.eye(skew_dim))) < 1e-10

    def test_invariant_under_semigroup(self):
        rng = SplitMix64(211)
        K = np.array([[0.0, 1.7], [-1.7, 0.0]])
        Q0 = np.zeros((5, 5))
        Q0[:2, :2] = K
        Q0[2:, 2:] = -np.diag([1.0, 0.4, 2.2])
        O = self.orthogonal(rng, 5)
        Q = O.T @ Q0 @ O
        for x in (0.5, 2.0):
            basis = norm_preserving_subspace(Q, x)
            E = expm_oracle(Q, x)
            image = E @ basis.vectors
            residual = image - basis.vectors @ (basis.vectors.T @ image)
            assert np.max(np.abs(residual)) < 1e-9

    def test_boundary_jordan_block_preserves_nothing(self):
        # the form vanishes on a vector, yet no vector keeps its norm
        J = np.array([[-0.5, 1.0], [0.0, -0.5]])
        assert norm_preserving_subspace(J, 1.0).dim == 0

    def test_identity_like_kernel_dimension(self):
        basis = norm_preserving_subspace(np.diag([0.0, -1.0]), 0.5)
        assert basis.dim == 1
        assert abs(abs(basis.vectors[0, 0]) - 1.0) < 1e-12

    def test_loose_tolerance_trips_consistency_error(self):
        with pytest.raises(ConsistencyError):
            norm_preserving_subspace(np.diag([0.0, -1.0]), 0.5, tol=0.8)

    def test_an_overflowing_2x_raises_without_a_warning(self):
        # 2x is inf from x >= 2^1023, and Q * inf puts nan where Q has a zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowFailure, match="2x"):
                norm_preserving_subspace(np.zeros((2, 2)), 9e307)
            assert norm_preserving_subspace(np.zeros((2, 2)), 8e307).dim == 2

    def test_rejects_non_dissipative_and_bad_x(self):
        with pytest.raises(ValueError):
            norm_preserving_subspace(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            norm_preserving_subspace(-np.eye(2), 0.0)
        with pytest.raises(ValueError):
            norm_preserving_subspace(-np.eye(2), 1.0, tol=0.0)


class TestStrictContraction:
    def test_strictly_dissipative_agrees(self):
        rng = SplitMix64(221)
        for _ in range(20):
            n = rng.integer(1, 8)
            Q = shifted_dissipative(rng, n, margin=0.05)
            report = strict_contraction_check(Q)
            assert report.is_strict
            assert report.grid_strict
            assert report.agree
            assert report.sym_max_eigenvalue < -1e-6

    def test_boundary_block_agrees_on_default_grid(self):
        # near x = 0 the norm is too close to 1 for grid-strictness, so
        # both verdicts are False and they agree
        J = np.array([[-0.5, 1.0], [0.0, -0.5]])
        report = strict_contraction_check(J)
        assert not report.is_strict
        assert not report.grid_strict
        assert report.agree

    def test_boundary_block_disagrees_away_from_zero(self):
        # all norms on [1, 10] sit strictly below 1 while the form vanishes
        # at (1, 1): the converse direction genuinely fails and the report
        # records the disagreement instead of raising
        J = np.array([[-0.5, 1.0], [0.0, -0.5]])
        report = strict_contraction_check(J, xs=np.linspace(1.0, 10.0, 16))
        assert not report.is_strict
        assert report.grid_strict
        assert not report.agree
        assert report.curve.max_norm < 1.0

    def test_expanding_generator_is_not_strict(self):
        report = strict_contraction_check(np.eye(2))
        assert not report.is_strict
        assert not report.grid_strict
        assert report.agree
