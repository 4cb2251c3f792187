"""Four difference inequalities: margins, sharp constants, extremal vectors.

Oracles used here:
* margin identities tying each inequality's margin to a Jordan quadratic
  form at the threshold alpha (hand-derived, verified independently by the
  dense energy computation below),
* explicit sine-formula extremal vectors,
* numpy eigvalsh for the optimality of the constants.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fttlab import (
    CheckReport,
    InequalityKind,
    JordanVariant,
    UpperBidiagonal,
    difference_energy,
    extremal_vector,
    quad_form,
    sharp_constant,
    symmetrize,
    threshold_alpha,
    verify,
)
from fttlab.rng import SplitMix64

ALL_KINDS = list(InequalityKind)


def naive_energy(a, kind):
    seq = [0.0] + list(a) + ([0.0] if kind.pins_right_end else [])
    return sum((seq[k + 1] - seq[k]) ** 2 for k in range(len(seq) - 1))


def closed_form_extremal(kind, n):
    k = np.arange(1, n + 1, dtype=float)
    if kind is InequalityKind.LOWER_PINNED:
        return np.sin(k * math.pi / (n + 1))
    if kind is InequalityKind.UPPER_PINNED:
        return (-1.0) ** (k + 1) * np.sin(k * math.pi / (n + 1))
    if kind is InequalityKind.LOWER_FREE:
        return np.sin(k * math.pi / (2 * n + 1))
    return (-1.0) ** (k + 1) * np.sin(2 * k * math.pi / (2 * n + 1))


class TestEnergy:
    def test_matches_naive_loop(self):
        rng = SplitMix64(71)
        for kind in ALL_KINDS:
            for n in (1, 2, 3, 9):
                a = rng.vector(n)
                assert difference_energy(a, kind) == pytest.approx(
                    naive_energy(a, kind), abs=1e-13
                )

    def test_pinned_counts_both_endpoints(self):
        a = np.array([1.0])
        assert difference_energy(a, InequalityKind.LOWER_PINNED) == 2.0
        assert difference_energy(a, InequalityKind.LOWER_FREE) == 1.0


class TestConstants:
    def test_closed_forms(self):
        for n in range(1, 20):
            t1 = math.pi / (n + 1)
            t2 = math.pi / (2 * n + 1)
            assert sharp_constant(InequalityKind.LOWER_PINNED, n) == pytest.approx(
                2 * (1 - math.cos(t1)), abs=1e-15
            )
            assert sharp_constant(InequalityKind.LOWER_FREE, n) == pytest.approx(
                2 * (1 - math.cos(t2)), abs=1e-15
            )
            assert sharp_constant(InequalityKind.UPPER_PINNED, n) == pytest.approx(
                2 * (1 + math.cos(t1)), abs=1e-15
            )
            assert sharp_constant(InequalityKind.UPPER_FREE, n) == pytest.approx(
                2 * (1 + math.cos(2 * t2)), abs=1e-15
            )

    def test_constants_bit_match_literal_cosines(self):
        # the derived constants and thresholds must reproduce these literal
        # boundary-cosine formulas exactly, not merely to a tolerance
        for n in range(1, 2001):
            c1 = math.cos(math.pi / (n + 1))
            c2 = math.cos(math.pi / (2 * n + 1))
            c3 = math.cos(2.0 * math.pi / (2 * n + 1))
            literal = {
                InequalityKind.LOWER_PINNED: (2.0 * (1.0 - c1), -c1),
                InequalityKind.LOWER_FREE: (2.0 * (1.0 - c2), c2),
                InequalityKind.UPPER_PINNED: (2.0 * (1.0 + c1), c1),
                InequalityKind.UPPER_FREE: (2.0 * (1.0 + c3), -c3),
            }
            for kind, (constant, alpha) in literal.items():
                assert sharp_constant(kind, n).hex() == constant.hex(), (kind, n)
                assert threshold_alpha(kind, n).hex() == alpha.hex(), (kind, n)

    def test_upper_free_equals_squared_cosine_form(self):
        # 2(1 + cos(2 pi/(2n+1))) = 4 cos^2(pi/(2n+1))
        for n in range(1, 20):
            assert sharp_constant(InequalityKind.UPPER_FREE, n) == pytest.approx(
                4 * math.cos(math.pi / (2 * n + 1)) ** 2, abs=1e-14
            )

    def test_constants_from_threshold_alpha(self):
        # pinned kinds: c = 2(1 + alpha*); free kinds: c = 2(1 - alpha*)
        for kind in ALL_KINDS:
            for n in (1, 2, 7, 15):
                alpha = threshold_alpha(kind, n)
                want = 2 * (1 + alpha) if kind.pins_right_end else 2 * (1 - alpha)
                assert sharp_constant(kind, n) == pytest.approx(abs(want), abs=1e-14)

    def test_constants_are_extreme_eigenvalues_of_energy_matrix(self):
        # the energy quadratic form has matrix 2I - B (pinned) or 2I + B
        # (free, where the alternating flip is a similarity that absorbs
        # the sign); extreme eigenvalues are the sharp constants, with
        # numpy eigvalsh as the second route
        for n in range(1, 10):
            for pinned in (True, False):
                variant = JordanVariant.STANDARD if pinned else JordanVariant.MODIFIED
                B = symmetrize(UpperBidiagonal(n, 0.0, variant)).to_dense()
                sign = -1.0 if pinned else 1.0
                eigs = np.linalg.eigvalsh(2 * np.eye(n) + sign * B)
                lo_kind = (
                    InequalityKind.LOWER_PINNED if pinned else InequalityKind.LOWER_FREE
                )
                hi_kind = (
                    InequalityKind.UPPER_PINNED if pinned else InequalityKind.UPPER_FREE
                )
                assert eigs[0] == pytest.approx(sharp_constant(lo_kind, n), abs=1e-12)
                assert eigs[-1] == pytest.approx(sharp_constant(hi_kind, n), abs=1e-12)

    def test_ordering(self):
        for n in range(1, 30):
            lf = sharp_constant(InequalityKind.LOWER_FREE, n)
            lp = sharp_constant(InequalityKind.LOWER_PINNED, n)
            uf = sharp_constant(InequalityKind.UPPER_FREE, n)
            up = sharp_constant(InequalityKind.UPPER_PINNED, n)
            assert 0 < lf < lp < up < 4
            assert lf < uf < up
            if n >= 2:
                # fails at n = 1, where the pinned lower constant is 2
                # and the free upper constant is 1
                assert lp < uf


class TestMarginIdentities:
    @given(
        n=st.integers(min_value=1, max_value=24),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=120)
    def test_margin_is_threshold_quadratic_form(self, n, seed):
        a = SplitMix64(seed).vector(n)
        flipped = a * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        cos_pin = math.cos(math.pi / (n + 1))
        cos_lo = math.cos(math.pi / (2 * n + 1))
        cos_hi = math.cos(2 * math.pi / (2 * n + 1))
        cases = {
            InequalityKind.LOWER_PINNED: -2
            * quad_form(UpperBidiagonal(n, -cos_pin), a),
            InequalityKind.UPPER_PINNED: -2
            * quad_form(UpperBidiagonal(n, cos_pin), a),
            InequalityKind.LOWER_FREE: 2
            * quad_form(UpperBidiagonal(n, cos_lo, JordanVariant.MODIFIED), flipped),
            InequalityKind.UPPER_FREE: 2
            * quad_form(UpperBidiagonal(n, -cos_hi, JordanVariant.MODIFIED), flipped),
        }
        for kind, want in cases.items():
            got = verify(kind, a).margin
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, float(a @ a)))

    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(0, 2**32),
        t=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=80)
    def test_margin_homogeneity(self, n, seed, t):
        a = SplitMix64(seed).vector(n)
        for kind in ALL_KINDS:
            m1 = verify(kind, a).margin
            m2 = verify(kind, t * a).margin
            assert m2 == pytest.approx(t * t * m1, rel=1e-9, abs=1e-11)


class TestVerify:
    def test_random_vectors_satisfy_all_four(self):
        rng = SplitMix64(81)
        for _ in range(300):
            n = rng.integer(1, 64)
            a = rng.vector(n)
            for kind in ALL_KINDS:
                report = verify(kind, a)
                assert report.holds, (kind, n)
                directed = report.margin if kind.is_lower else -report.margin
                assert directed >= -1e-10

    def test_report_fields_consistent(self):
        a = np.array([1.0, 2.0, -1.0])
        for kind in ALL_KINDS:
            r = verify(kind, a)
            assert isinstance(r, CheckReport)
            assert r.margin == pytest.approx(r.lhs - r.rhs, abs=1e-15)
            assert r.lhs == pytest.approx(difference_energy(a, kind), abs=1e-13)
            assert r.rhs == pytest.approx(
                sharp_constant(kind, 3) * float(a @ a), abs=1e-13
            )

    def test_constant_scale_moves_rhs(self):
        a = np.array([0.5, 0.25])
        for kind in ALL_KINDS:
            base = verify(kind, a)
            scaled = verify(kind, a, constant_scale=2.0)
            assert scaled.rhs == pytest.approx(2 * base.rhs, abs=1e-14)

    @pytest.mark.parametrize("scale", [True, math.nan, math.inf, "2", 10**400],
                             ids=["bool", "nan", "inf", "text", "huge-int"])
    def test_constant_scale_is_a_finite_real(self, scale):
        with pytest.raises(ValueError, match="constant_scale"):
            verify(InequalityKind.LOWER_PINNED, np.array([0.5, 0.25]), constant_scale=scale)

    def test_a_numpy_constant_scale_gives_a_report_of_python_scalars(self):
        r = verify(InequalityKind.LOWER_PINNED, np.array([0.5, 0.25]),
                   constant_scale=np.float32(1.05))
        assert [type(v) for v in (r.lhs, r.rhs, r.margin, r.holds)] == [float, float, float, bool]
        assert r == verify(InequalityKind.LOWER_PINNED, np.array([0.5, 0.25]),
                           constant_scale=float(np.float32(1.05)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            verify(InequalityKind.LOWER_PINNED, np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            verify(InequalityKind.LOWER_PINNED, np.array([]))
        with pytest.raises(ValueError):
            verify(InequalityKind.LOWER_PINNED, np.ones((2, 2)))


class TestKindByValue:
    def test_a_kind_given_by_value_reads_as_its_member(self):
        a = SplitMix64(30).vector(7)
        for kind in ALL_KINDS:
            assert sharp_constant(kind.value, 7) == sharp_constant(kind, 7)
            assert threshold_alpha(kind.value, 7) == threshold_alpha(kind, 7)
            assert verify(kind.value, a) == verify(kind, a)
            assert difference_energy(a, kind.value) == difference_energy(a, kind)
            assert extremal_vector(kind.value, 7).tobytes() == extremal_vector(kind, 7).tobytes()

    @pytest.mark.parametrize("bogus", ["lower_pinned", None, 1, JordanVariant.STANDARD,
                                       # verify's cache hashes a kind before it is checked
                                       pytest.param([1], id="list"),
                                       pytest.param({"lower-pinned": 1}, id="dict")])
    def test_a_bogus_kind_raises_value_error(self, bogus):
        a = np.ones(3)
        for call in (sharp_constant, threshold_alpha, extremal_vector):
            with pytest.raises(ValueError):
                call(bogus, 3)
        with pytest.raises(ValueError):
            verify(bogus, a)
        with pytest.raises(ValueError):
            difference_energy(a, bogus)


def old_verify(kind, a, constant_scale=1.0):
    """verify's (lhs, rhs, margin) by the expressions it used before its fast path."""
    padded = np.concatenate(([0.0], a, [0.0]) if kind.pins_right_end else ([0.0], a))
    lhs = float(np.sum(np.diff(padded) ** 2))
    rhs = constant_scale * sharp_constant(kind, a.size) * float(a @ a)
    return lhs, rhs, lhs - rhs


@given(a=hnp.arrays(np.float64, st.integers(1, 300),
                    elements=st.floats(-1.2e150, 1.2e150) | st.floats(-1.0, 1.0)),
       constant_scale=st.sampled_from([1.0, 0.95, 1.05]))
@settings(max_examples=200, deadline=None)
def test_verify_keeps_the_bits_of_the_old_expressions(a, constant_scale):
    # entries up to ~1e150 keep every square and the sums finite for n <= 300
    for kind in ALL_KINDS:
        r = verify(kind, a, constant_scale=constant_scale)
        lhs, rhs, margin = old_verify(kind, a, constant_scale)
        assert (r.lhs.hex(), r.rhs.hex(), r.margin.hex()) == (lhs.hex(), rhs.hex(), margin.hex())
        assert difference_energy(a, kind).hex() == lhs.hex()
        assert r.holds == (margin >= -1e-10 if kind.is_lower else margin <= 1e-10)


# verify takes a.a as np.vdot, BLAS ddot without numpy's floating-point flag
# check, where a @ a runs the same ddot as a ufunc; a strided view's ddot is
# not its contiguous copy's, so both must see the same view
VDOT_SIZES = [*range(1, 301), 1000, 4097]
VDOT_SCALES = (1e-100, 1e-50, 1.0, 1e50, 1e100)


def float_views(n, scale):
    """Contiguous, offset, strided and reversed length-n views of one seeded float64 array."""
    base = SplitMix64(n).vector(3 * n + 1) * scale
    return base[:n], base[1:n + 1], base[1::3], base[::-1][:n]


def vdot_mismatches():
    """(cases where np.vdot(v, v) and v @ v differ in any bit, cases) over the sweep."""
    pairs = [(np.vdot(v, v), v @ v) for n in VDOT_SIZES for scale in VDOT_SCALES
             for v in float_views(n, scale)]
    return sum(x.tobytes() != y.tobytes() for x, y in pairs), len(pairs)


def test_vdot_is_the_ddot_of_matmul():
    assert vdot_mismatches() == (0, len(VDOT_SIZES) * len(VDOT_SCALES) * 4)


def test_vdot_overflows_without_a_warning():
    a = np.full(3, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.vdot(a, a) == math.inf


def test_verify_keeps_the_bits_of_the_old_expressions_on_views():
    for n in VDOT_SIZES:
        for scale in VDOT_SCALES:
            for a in float_views(n, scale):
                for kind in ALL_KINDS:
                    r = verify(kind, a)
                    assert (r.lhs, r.rhs, r.margin) == old_verify(kind, a), (n, scale, kind)


@pytest.mark.parametrize("a", [
    [3, -1, 2],  # a list of ints
    [0.25, -1.5, 2.0, 1e-3],
    np.array([3, -1, 2]),  # an int array
    np.array([2.0**509] * 3),  # a.a = 3 * 2^1018, below 2^1020
    np.array([2.0**510]),  # a.a = 2^1020 exactly, the pinned energy 2^1021
    np.array([2.0**509, -2.0**509] * 2),  # a.a = 2^1020, the pinned energy 3.5 * 2^1020
    np.array([2.0**510] * 3),  # a.a = 3 * 2^1020, above: numpy is quieted, nothing overflows
], ids=["int-list", "float-list", "int-array", "below", "at", "at-alternating", "above"])
def test_verify_keeps_the_bits_of_the_old_expressions_on_both_sides_of_two_to_the_1020(a):
    for kind in ALL_KINDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = verify(kind, a)
        assert (r.lhs, r.rhs, r.margin) == old_verify(kind, np.asarray(a, dtype=float)), kind


class TestExtremalVectors:
    def test_achieve_equality(self):
        for kind in ALL_KINDS:
            for n in range(1, 17):
                v = extremal_vector(kind, n)
                assert abs(verify(kind, v).margin) <= 1e-8

    def test_match_sine_closed_forms(self):
        for kind in ALL_KINDS:
            for n in range(1, 17):
                got = extremal_vector(kind, n)
                want = closed_form_extremal(kind, n)
                want = want / np.linalg.norm(want)
                assert (
                    min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-7
                ), (kind, n)

    def test_unit_norm(self):
        for kind in ALL_KINDS:
            v = extremal_vector(kind, 9)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_sharpness_constant_cannot_be_improved(self):
        # nudging each constant in the falsifying direction breaks the
        # extremal vector; nudging the other way leaves it satisfied
        for kind in ALL_KINDS:
            for n in (1, 2, 5, 12):
                v = extremal_vector(kind, n)
                c = sharp_constant(kind, n)
                tighter = 1 + 1e-3 / c if kind.is_lower else 1 - 1e-3 / c
                looser = 1 - 1e-3 / c if kind.is_lower else 1 + 1e-3 / c
                assert not verify(kind, v, constant_scale=tighter).holds
                assert verify(kind, v, constant_scale=looser).holds
