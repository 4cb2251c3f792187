"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints a single PASS line on success (visible with -v through the
test name, or with -s through the print).  Criterion 9 is split: 9a covers
the first exponential bound, which holds; 9b states the second bound's
domination claim exactly as given, and that claim is false at n = 2, so 9b
is expected to fail and stays red on purpose.  The failure message carries
the witnesses.  Everything else must pass.
"""

import json
import math
import os

import numpy as np
import pytest

import fttlab as F
from fttlab import InequalityKind, JordanVariant, UpperBidiagonal
from fttlab.cli import main
from fttlab.rng import SplitMix64

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

ALL_KINDS = list(InequalityKind)


def done(criterion, text):
    print(f"criterion {criterion}: PASS ({text})")


def test_criterion_01_determinant_identities():
    for n in range(1, 13):
        for x in np.linspace(-1.5, 1.5, 50):
            std = F.symmetrize(UpperBidiagonal(n, x))
            want = F.u_eval(n, float(x))
            got = F.det_recurrence(std)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (n, x)
            mod = F.symmetrize(UpperBidiagonal(n, x, JordanVariant.MODIFIED))
            want = F.u_diff_eval(n, float(x))
            got = F.det_recurrence(mod)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (n, x)
    done(1, "continuant determinants match both polynomial families")


def test_criterion_02_zero_sets():
    for n in range(1, 41):
        assert np.max(np.abs(F.u_eval(n, F.u_zeros(n)))) <= 1e-11, n
        zs = F.u_diff_zeros(n)
        assert np.max(np.abs(F.u_diff_eval(n, zs))) <= 1e-11, n
        assert abs(np.max(zs) - math.cos(math.pi / (2 * n + 1))) <= 1e-14, n
        assert abs(np.min(zs) + math.cos(2 * math.pi / (2 * n + 1))) <= 1e-14, n
    done(2, "zero sets annihilate and hit the closed-form extremes")


def test_criterion_03_dissipativity_classification():
    rng = SplitMix64(2024)
    checked = 0
    while checked < 500:
        n = rng.integer(1, 16)
        alpha = 2.0 * rng.symmetric()
        variant = JordanVariant.STANDARD if rng.uniform() < 0.5 else JordanVariant.MODIFIED
        thr = F.dissipativity_threshold(n, variant)
        if abs(alpha - thr) <= 1e-10:
            continue  # boundary band: classification there is a coin toss
        report = F.check_dissipative(UpperBidiagonal(n, alpha, variant))
        assert report.is_dissipative == (alpha < thr), (n, alpha, variant)
        checked += 1
    done(3, "500 seeded blocks classified to match the closed-form threshold")


def test_criterion_04_four_inequalities():
    rng = SplitMix64(2025)
    for _ in range(2000):
        n = rng.integer(1, 64)
        a = rng.vector(n)
        for kind in ALL_KINDS:
            report = F.verify(kind, a)
            directed = report.margin if kind.is_lower else -report.margin
            assert directed >= -1e-10, (kind, n)
    for kind in ALL_KINDS:
        for n in range(1, 17):
            v = F.extremal_vector(kind, n)
            assert abs(F.verify(kind, v).margin) <= 1e-8, (kind, n)
            c = F.sharp_constant(kind, n)
            falsify = 1 + 1e-3 / c if kind.is_lower else 1 - 1e-3 / c
            assert not F.verify(kind, v, constant_scale=falsify).holds, (kind, n)
    done(4, "2000 samples satisfy all four bounds; extremals are sharp")


def test_criterion_05_matrix_exponential():
    rng = SplitMix64(2026)
    for n in range(1, 11):
        for _ in range(20):
            alpha = rng.symmetric()
            x = 5.0 * rng.uniform()
            block = UpperBidiagonal(n, alpha).to_dense()
            got = F.exp_jordan_closed(n, alpha, x)
            want = F.expm_oracle(block, x)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-11 * scale, (n, alpha, x)
    for _ in range(100):
        n = rng.integer(1, 8)
        Q = np.array([[rng.symmetric() for _ in range(n)] for _ in range(n)])
        x, y = 2.5 * rng.uniform(), 2.5 * rng.uniform()
        lhs = F.expm_oracle(Q, x + y)
        rhs = F.expm_oracle(Q, x) @ F.expm_oracle(Q, y)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale
    done(5, "closed form matches the oracle; semigroup law holds")


def test_criterion_06_lumer_phillips_both_directions():
    grid = np.linspace(0.0, 10.0, 64)
    for n in range(1, 11):
        alpha_star = -math.cos(math.pi / (n + 1))
        block = UpperBidiagonal(n, alpha_star).to_dense()
        curve = F.contraction_check(block, xs=grid)
        assert curve.max_norm <= 1.0 + 1e-9, n
        pushed = UpperBidiagonal(n, alpha_star + 0.05).to_dense()
        escaped = F.contraction_check(pushed, xs=grid)
        assert escaped.max_norm > 1.0, n
    done(6, "threshold blocks contract on the grid; pushed blocks escape")


def test_criterion_07_generalized_inequality():
    rng = SplitMix64(2027)
    for _ in range(1000):
        n = rng.integer(1, 16)
        a = rng.vector(n)
        x = 5.0 * rng.uniform()
        assert F.gftt_check(a, x).holds, (n, x)
    for _ in range(50):
        n = rng.integer(1, 16)
        a = rng.vector(n)
        report = F.gftt_check(a, 0.0)
        assert abs(report.margin) <= 1e-13 * max(1.0, float(a @ a)), n
    h = 1e-5
    for _ in range(50):
        n = rng.integer(1, 16)
        a = rng.vector(n)
        sum_sq = float(a @ a)
        cos_t = math.cos(math.pi / (n + 1))

        def gap(x, a=a, sum_sq=sum_sq, cos_t=cos_t):
            return math.exp(2.0 * x * cos_t) * sum_sq - F.gftt_lhs(a, x)

        derivative = (gap(h) - gap(-h)) / (2.0 * h)
        margin = F.verify(InequalityKind.LOWER_PINNED, a).margin
        assert abs(derivative - margin) <= 1e-4, n
    done(7, "bound holds, is equality at x=0, and linearizes to the pinned bound")


def test_criterion_08_exact_free_end_semigroup_bound():
    rng = SplitMix64(2028)
    for _ in range(1000):
        n = rng.integer(1, 10)
        alpha = -math.cos(2.0 * math.pi / (2 * n + 1))
        a = rng.vector(n)
        x = 5.0 * rng.uniform()
        assert F.gftt2_exact_lhs(a, alpha, x) <= float(a @ a) * (1 + 1e-10), (n, x)
    # the hypothesized polynomial form is probed, not asserted; its gap to
    # the exact quantity at n = 2 must match the hand-computed propagator
    # entry 2(1 - e^{-x/2}) where the polynomial form puts x
    a = np.array([0.0, 1.0])
    alpha2 = -math.cos(2.0 * math.pi / 5.0)
    for x in (0.5, 1.5, 3.0):
        toeplitz = F.gftt2_toeplitz_lhs(a, x)
        exact = math.exp(-2.0 * alpha2 * x) * F.gftt2_exact_lhs(a, alpha2, x)
        want = x * x - 4.0 * (1.0 - math.exp(-x / 2.0)) ** 2
        assert abs((toeplitz - exact) - want) <= 1e-10, x
    probe = F.gftt2_discrepancy_probe(2, 300, 2028)
    assert probe.exact_discrepancy.value > 0.0
    done(8, "exact route contracts; probe confirms the non-Toeplitz column")


def test_criterion_09a_first_bessel_bound():
    grid = np.linspace(0.0, 20.0, 100)
    for n in range(1, 21):
        for x in grid:
            x = float(x)
            assert F.i0_partial(n, x) <= F.bound1(n, x) * (1 + 1e-12), (n, x)
    for x in grid:
        assert abs(F.i0_partial(1, float(x)) - F.bound1(1, float(x))) <= 1e-14
    done("9a", "first bound dominates all partial sums on the grid")


def test_criterion_09b_second_bessel_bound():
    # stated as given; KNOWN RED: the second bound fails on an interior
    # window at n = 2, e.g. partial(2, 2) = 5 > bound2(2, 2) ~ 4.3067.
    # The bound is implemented faithfully and this test records the defect
    # honestly instead of papering over it.
    grid = np.linspace(0.0, 20.0, 100)
    for x in grid:
        assert abs(F.i0_partial(1, float(x)) - F.bound2(1, float(x))) <= 1e-14
    violations = []
    for n in range(1, 21):
        for x in grid:
            x = float(x)
            if F.i0_partial(n, x) > F.bound2(n, x) * (1 + 1e-12):
                violations.append((n, x, F.i0_partial(n, x), F.bound2(n, x)))
    assert not violations, (
        "second bound fails to dominate at "
        f"{len(violations)} grid points, first witnesses: {violations[:3]}"
    )
    done("9b", "second bound dominates all partial sums on the grid")


def test_criterion_10_threshold_reproducibility():
    for n in range(2, 11):
        result = F.threshold_x0(n)
        assert result.found, n
        assert result.sign_changes == 1, n
        assert result.bracket_hi - result.bracket_lo <= 1e-10, n
    fixture = os.path.join(FIXTURE_DIR, "threshold_x0_n2.json")
    fresh = F.threshold_x0(2, tol=1e-12, search_hi=100.0, scan_points=512)
    assert os.path.exists(fixture), "the committed fixture is missing; it is never regenerated"
    with open(fixture, encoding="utf-8") as fh:
        frozen = json.load(fh)
    assert fresh.x0.hex() == frozen["x0_hex"], (
        "threshold regression: recomputed x0(2) does not bit-match the fixture"
    )
    done(10, "one sign change each; x0(2) reproduces bit-identically")


def test_criterion_11_strict_lumer_phillips():
    rng = SplitMix64(2029)
    for _ in range(100):
        n = rng.integer(1, 8)
        A = np.array([[rng.symmetric() for _ in range(n)] for _ in range(n)])
        top = float(np.linalg.eigvalsh(A + A.T)[-1])
        margin = 0.05 + 0.5 * rng.uniform()
        Q = A - (0.5 * top + margin) * np.eye(n)
        report = F.strict_contraction_check(Q)
        assert report.agree, "strict classification disagreed with the norm grid"
        assert report.is_strict
    # norm-preserving subspace: constant dimension and semigroup invariance
    for skew_dim, strict_dim in ((2, 3), (0, 3), (4, 0)):
        n = skew_dim + strict_dim
        Q0 = np.zeros((n, n))
        for i in range(0, skew_dim - 1, 2):
            w = 1.0 + rng.uniform()
            Q0[i, i + 1] = w
            Q0[i + 1, i] = -w
        if strict_dim:
            Q0[skew_dim:, skew_dim:] = -np.diag(
                [0.5 + rng.uniform() for _ in range(strict_dim)]
            )
        raw = np.array([[rng.symmetric() for _ in range(n)] for _ in range(n)])
        O, _ = np.linalg.qr(raw)
        Q = O.T @ Q0 @ O
        basis_half = F.norm_preserving_subspace(Q, 0.5)
        basis_two = F.norm_preserving_subspace(Q, 2.0)
        assert basis_half.dim == basis_two.dim == skew_dim
        for x, basis in ((0.5, basis_half), (2.0, basis_two)):
            if basis.dim == 0:
                continue
            E = F.expm_oracle(Q, x)
            image = E @ basis.vectors
            residual = image - basis.vectors @ (basis.vectors.T @ image)
            assert np.max(np.abs(residual)) <= 1e-9
    done(11, "zero disagreements; subspace dimension is x-independent and invariant")


def test_criterion_12_cli_contract(tmp_path, capsys):
    # determinism: byte-identical repeats for every table-producing command
    commands = [
        ["constants", "--n-range", "1..6", "--format", "json"],
        ["verify", "--n", "8", "--samples", "30", "--seed", "11"],
        ["semigroup-norm", "--n", "3", "--alpha", "-0.7", "--grid", "0:4:9"],
        ["bessel-sweep", "--n", "2", "--grid", "0:8:17"],
        ["threshold", "--n-range", "2..4", "--format", "json"],
        ["probe-gftt2", "--n", "2", "--samples", "40", "--seed", "11"],
    ]
    for idx, argv in enumerate(commands):
        first = tmp_path / f"first_{idx}"
        second = tmp_path / f"second_{idx}"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv
    capsys.readouterr()
    # exit codes: pass, violation, usage, numeric
    assert main(["constants", "--n", "4"]) == 0
    assert main(["verify", "--n", "3", "--samples", "5", "--tamper"]) == 1
    assert main(["threshold", "--n", "1"]) == 2
    assert main(["verify", "--n", "3", "--kind", "nonsense"]) == 2
    assert main(["semigroup-norm", "--n", "2", "--alpha", "400", "--grid", "1:50:2"]) == 3
    capsys.readouterr()
    done(12, "byte-identical reruns; exit codes 0/1/2/3 as contracted")
