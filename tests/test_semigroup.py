"""Exponentials, operator norms, contraction checks, and the free-end probe.

scipy.linalg.expm and numpy's SVD are the second routes for the oracle
functions; the hand-computed 2x2 modified-block exponential

    exp(J~_2(alpha) x) = e^{alpha x} [[1, 2(1 - e^{-x/2})], [0, e^{-x/2}]]

pins down the non-Toeplitz last column that the discrepancy probe measures.
"""

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

    def test_overflow_raises(self):
        with pytest.raises(OverflowFailure):
            expm_oracle(np.diag([1000.0, 1000.0]), 1.0)

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

    def test_restart_covers_kernel_start(self):
        # the all-ones start vector lies exactly in the kernel of M^T M
        M = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert operator_norm(M) == pytest.approx(2.0, abs=1e-10)

    def test_start_vector_on_a_smaller_singular_value(self):
        # all ones is an eigenvector of M^T M for sigma = 1; the norm is 2
        M = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert operator_norm(M) == pytest.approx(2.0, abs=1e-12)

    def test_estimates_short_of_the_bound_take_the_lower_end(self, monkeypatch):
        # the settled estimate 0.5 lies far below the upper end 4.0, so it is rejected
        monkeypatch.setattr(semigroup, "_norm_bracket",
                            lambda M: (np.array([0.375]), np.array([4.0])))
        assert operator_norm(0.5 * np.eye(2)) == 0.375

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
                stacks.append(semigroup._expm_stack(block.to_dense(), grid))
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
    """A norm curve is one batched exponential and one lockstep power
    iteration over the grid; every point keeps the bits of a per-x call."""

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
            stack = semigroup._expm_stack(Q, xs)
            anorms = [float(np.linalg.norm(Q * x, 1)) for x in xs]
            assert len({math.ceil(math.log2(a / 0.5)) if a > 0.5 else 0 for a in anorms}) >= 4
            for x, got in zip(xs, stack):
                assert got.tobytes() == expm_oracle(Q, x).tobytes(), (n, x)

    def test_rejected_slices_take_the_lower_end_inside_a_batch(self, monkeypatch):
        stack = np.array([
            [[2.0, 0.3], [-0.4, 1.1]],
            [[1.0, -1.0], [1.0, -1.0]],  # all ones lies in the kernel of M^T M
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.5, -0.5], [-0.5, 1.5]],  # all ones is an eigenvector for sigma = 1
            [[-3.0, 0.5], [0.25, 0.75]],
        ])
        runs = []
        power_run = semigroup._power_run

        def counted(M, start):
            runs.append(M.shape[0])
            return power_run(M, start)

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

    def test_the_first_failing_point_names_the_error(self):
        # x = 1 overflows while squaring; x = 50 needs more than 64 squarings
        with pytest.raises(OverflowFailure, match="matrix exponential overflows"):
            contraction_check(np.array([[1e18]]), xs=np.array([1.0, 50.0]))

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

    def test_a_failing_curve_is_replayed_by_halving(self, monkeypatch):
        # e^{20x} overflows from x ~ 35.4 on: the batch fails, and the halving
        # replay finds the per-x loop's first failure in a few batched calls
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
        assert len(calls) <= 2 * 10 + 1


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
        empty = gftt2_discrepancy_probe(3, 0, 5)
        assert empty.bound_excess is None
        assert empty.exact_discrepancy is None

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            gftt2_discrepancy_probe(0, 10, 1)
        with pytest.raises(ValueError):
            gftt2_discrepancy_probe(2, -1, 1)


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
