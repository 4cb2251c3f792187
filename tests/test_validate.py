"""One input contract: bools, text, complex values, arrays in place of scalars,
non-finite values and integers too large for a double raise ``ValueError`` at
every public entry point.

The contract is written once, in ``_validate``; the source checks keep numpy's
coercion (``np.asarray``) and its finiteness test (``np.isfinite``) there, and
every array's finiteness proof, its a·a, in ``_as_real``.
Each case below was either accepted (a bool read as 0 or 1, a string parsed
as a number) or raised ``TypeError`` before the contract was consolidated.
"""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import fttlab as F
from fttlab._validate import (
    as_finite, as_int, as_real_array, as_square_matrix, as_vector, as_vector_and_square, finite,
)
from fttlab.errors import OverflowFailure
from fttlab.rng import SplitMix64

SRC = Path(__file__).resolve().parent.parent / "src"

_KIND = F.InequalityKind.LOWER_PINNED
_Q = -np.eye(2)
_TRI = F.SymTridiagonal(np.array([1.0, 2.0]), np.array([1.0]))

INVALID = {
    # accepted before: bools and strings coerced to floats
    "alpha-bool": lambda: F.UpperBidiagonal(3, True),
    "alpha-str": lambda: F.UpperBidiagonal(3, "0.5"),
    "expm_oracle-x-str": lambda: F.expm_oracle(_Q, "1"),
    "threshold_x0-tol-bool": lambda: F.threshold_x0(2, tol=True),
    "eig_sturm-tol-bool": lambda: F.eig_sturm(_TRI, tol=True),
    "verify-bool-vector": lambda: F.verify(_KIND, [True, False]),
    "verify-str-vector": lambda: F.verify(_KIND, ["1", "2"]),
    "contraction_check-bool-in-grid": lambda: F.contraction_check(_Q, xs=[True, 2.0]),
    "u_eval-x-str": lambda: F.u_eval(3, "0.5"),
    "integer-float-bound": lambda: SplitMix64(0).integer(1.5, 3),
    # TypeError before
    "verify-tol-str": lambda: F.verify(_KIND, [1.0, 2.0], tol="1e-10"),
    "threshold_x0-search_hi-str": lambda: F.threshold_x0(2, search_hi="50"),
    "verify-complex-vector": lambda: F.verify(_KIND, [1 + 2j, 3]),
    "SymTridiagonal-complex": lambda: F.SymTridiagonal([1 + 1j, 2.0], [1.0]),
    "alpha-array": lambda: F.UpperBidiagonal(3, np.array([0.5])),
    # a bare OverflowError ("int too large to convert to float") before
    "i0_partial-x-huge-int": lambda: F.i0_partial(2, 10**400),
    "alpha-huge-int": lambda: F.UpperBidiagonal(3, 10**400),
    "sharp_constant-n-huge-int": lambda: F.sharp_constant(_KIND, 10**400),
    "dissipativity_threshold-n-huge-int": lambda: F.dissipativity_threshold(
        10**400, F.JordanVariant.STANDARD),
    "threshold_x0-n-huge-int": lambda: F.threshold_x0(10**400),
    "probe-n-huge-int": lambda: F.gftt2_discrepancy_probe(10**400, 1, 0),
    "bound1-n-huge-int": lambda: F.bound1(10**400, 1.0),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_input_raises_value_error(case):
    with pytest.raises(ValueError):
        INVALID[case]()


@pytest.mark.parametrize("check", [as_int, as_finite])
@pytest.mark.parametrize("sign", [1, -1])
def test_integers_are_taken_up_to_the_largest_double(check, sign):
    # 2**1024 - 2**970 is the rounding midpoint above the largest double
    assert float(check(sign * (2**1024 - 2**970 - 1), "x")) == sign * sys.float_info.max
    with pytest.raises(ValueError, match="must fit in double precision"):
        check(sign * (2**1024 - 2**970), "x")


@pytest.mark.parametrize("value", [np.int64(-7), np.int64(2**62), np.uint8(200), np.int32(5)])
def test_numpy_integers_keep_their_value(value):
    # _validate looks for numpy's scalar types only once numpy is loaded, as it is here
    assert type(as_int(value, "x")) is int and as_int(value, "x") == int(value)
    assert as_finite(value, "x").hex() == float(value).hex()


@pytest.mark.parametrize("value", [np.float32(0.1), np.float32(-3e38), np.float16(1.5),
                                   np.float64(2.5)])
def test_numpy_floats_keep_their_value(value):
    assert type(as_finite(value, "x")) is float
    assert as_finite(value, "x").hex() == float(value).hex()
    with pytest.raises(ValueError, match="must be an integer"):
        as_int(value, "x")


@pytest.mark.parametrize("check", [as_int, as_finite])
@pytest.mark.parametrize("value", [np.bool_(True), np.bool_(False), np.complex128(1.0),
                                   np.float32("nan")])
def test_numpy_bools_complex_and_nan_are_rejected(check, value):
    with pytest.raises(ValueError):
        check(value, "x")


def _outcome(check, a):
    try:
        return check(a)
    except ValueError as error:
        return str(error)


_BASE = np.arange(12.0) - 5.5
_HUGE = np.full(3, 1e200)


@pytest.mark.parametrize("a", [
    [], np.array([]), [[1.0]], np.ones((2, 2)), np.array([[np.nan, 1.0]]), np.array(3.0),
    [True, 1.0], ["1"], [1 + 2j], [math.nan], np.array([1.0, -np.inf]), [3, -1, 2],
    np.array([3, -1, 2], dtype=np.int8), np.array([0.5, 2.0], dtype=">f8"),
    np.array([0.5, 2.0], dtype=np.float32), _HUGE, _BASE, _BASE[1::3], _BASE[::-1],
], ids=lambda a: repr(a).replace(" ", ""))
def test_vector_and_square_takes_what_as_vector_takes(a):
    # the same vector (the same object for a float64 ndarray) or the same message,
    # and the bits of a @ a, which overflows to inf for 1e200 without a warning
    want = _outcome(lambda a: as_vector(a, "a"), a)
    got = _outcome(lambda a: as_vector_and_square(a, "a"), a)
    if isinstance(want, str):
        assert got == want
        return
    out, square = got
    assert np.array_equal(out, want) and out.dtype == np.float64 and (out is a) == (want is a)
    assert square == (math.inf if a is _HUGE else float(want @ want))


_DTYPE = "a must hold integers or floats only, got dtype "
_FINITE = "a must be finite"
_NONEMPTY = "a must be a nonempty 1-D vector, got shape "
_LENGTH_3 = "a must be a length-3 1-D vector, got shape "
_SQUARE = "a must be a square matrix, got shape "

# input: the outcome of as_real_array, as_vector, as_vector(size=3) and as_square_matrix,
# each (entries, whether the result is the input itself) or the ValueError text;
# the checks run dtype, then finiteness, then shape
VALIDATED = {
    "0-d": (np.array(3.0), [(3.0, True), _NONEMPTY + "()", _LENGTH_3 + "()", _SQUARE + "()"]),
    "scalar": (2.5, [(2.5, False), _NONEMPTY + "()", _LENGTH_3 + "()", _SQUARE + "()"]),
    "1x1-list": ([[1.0]], [([[1.0]], False), _NONEMPTY + "(1, 1)", _LENGTH_3 + "(1, 1)",
                           ([[1.0]], False)]),
    "2x2": (np.array([[1.0, 2.0], [3.0, 4.0]]), [
        ([[1.0, 2.0], [3.0, 4.0]], True), _NONEMPTY + "(2, 2)", _LENGTH_3 + "(2, 2)",
        ([[1.0, 2.0], [3.0, 4.0]], True)]),
    "2x3": (np.ones((2, 3)), [([[1.0] * 3] * 2, True), _NONEMPTY + "(2, 3)", _LENGTH_3 + "(2, 3)",
                              _SQUARE + "(2, 3)"]),
    "2x0": (np.zeros((2, 0)), [([[], []], True), _NONEMPTY + "(2, 0)", _LENGTH_3 + "(2, 0)",
                               _SQUARE + "(2, 0)"]),
    "empty-list": ([], [([], False), _NONEMPTY + "(0,)", _LENGTH_3 + "(0,)", _SQUARE + "(0,)"]),
    "empty-array": (np.array([]), [([], True), _NONEMPTY + "(0,)", _LENGTH_3 + "(0,)",
                                   _SQUARE + "(0,)"]),
    "bool-in-list": ([True, 1.0, 2.0], ["a must hold integers or floats only, got bool True"] * 4),
    "str-in-list": (["1", "2", "3"], [_DTYPE + "<U1"] * 4),
    "string": ("abc", [_DTYPE + "<U3"] * 4),
    "complex-list": ([1 + 2j, 3, 4], [_DTYPE + "complex128"] * 4),
    "complex-array": (np.array([1j, 2.0]), [_DTYPE + "complex128"] * 4),
    "nan": ([math.nan, 1.0, 2.0], [_FINITE] * 4),
    "inf": ([math.inf, 1.0, 2.0], [_FINITE] * 4),
    "-inf": (np.array([1.0, -np.inf, 2.0]), [_FINITE] * 4),
    "2-D-nan": (np.array([[np.nan, 1.0]]), [_FINITE] * 4),
    # a.a overflows to inf, but every entry is finite
    "huge": (_HUGE, [([1e200] * 3, True)] * 3 + [_SQUARE + "(3,)"]),
    "huge-2x2": (np.full((2, 2), 1e200), [([[1e200] * 2] * 2, True), _NONEMPTY + "(2, 2)",
                                          _LENGTH_3 + "(2, 2)", ([[1e200] * 2] * 2, True)]),
    "big-endian": (np.array([0.5, 2.0, -1.0], dtype=">f8"),
                   [([0.5, 2.0, -1.0], False)] * 3 + [_SQUARE + "(3,)"]),
    "float32": (np.array([0.1, 2.0, -1.0], dtype=np.float32),
                [([0.10000000149011612, 2.0, -1.0], False)] * 3 + [_SQUARE + "(3,)"]),
    "int8": (np.array([3, -1, 2], dtype=np.int8),
             [([3.0, -1.0, 2.0], False)] * 3 + [_SQUARE + "(3,)"]),
    "int-list": ([3, -1, 2], [([3.0, -1.0, 2.0], False)] * 3 + [_SQUARE + "(3,)"]),
    "strided": (_BASE[1::4], [([-4.5, -0.5, 3.5], True)] * 3 + [_SQUARE + "(3,)"]),
    "reversed": (_BASE[::-1], [(_BASE[::-1].tolist(), True)] * 2
                 + [_LENGTH_3 + "(12,)", _SQUARE + "(12,)"]),
}


def _validated(check, a):
    """check(a)'s entries and whether it is ``a`` itself, or its ``ValueError`` text."""
    try:
        out = check(a, "a")
    except ValueError as error:
        return str(error)
    assert type(out) is np.ndarray and out.dtype == np.float64
    return out.tolist(), out is a


@pytest.mark.parametrize("case", VALIDATED)
def test_array_validators_keep_their_outcomes(case):
    a, want = VALIDATED[case]
    checks = [as_real_array, as_vector, lambda a, name: as_vector(a, name, size=3), as_square_matrix]
    assert [_validated(check, a) for check in checks] == want


@pytest.mark.parametrize("value, index", [
    (np.array([1.0, 2.0, np.inf, np.nan]), 2),
    (np.stack([np.eye(2), np.eye(2), np.diag([1.0, -np.inf]), np.full((2, 2), np.nan)]), 2),
    (np.array([[np.nan, 1.0], [1.0, 1.0]]), 0),
    (math.inf, None),
    (np.array(np.nan), None),
])
def test_finite_names_the_first_failing_slice(value, index):
    with pytest.raises(OverflowFailure, match="thing overflows double precision") as failure:
        finite(value, "thing")
    assert failure.value.index == index


def _numpy_call_sites(attr: str) -> set[tuple[str, str]]:
    """(file, innermost enclosing function) of every ``np.<attr>`` call in src/."""
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        sites.update((path.name, owner.get(node, "<module>")) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == attr and getattr(node.func.value, "id", None) == "np")
    return sites


def test_input_is_coerced_and_checked_in_one_place():
    files = {path for path, _ in _numpy_call_sites("asarray") | _numpy_call_sites("isfinite")}
    assert files <= {"_validate.py"}


def test_arrays_are_proven_finite_in_one_place():
    # every array argument is proven finite by its a.a; the entries are scanned only
    # when that is not finite, and otherwise only by finite's overflow guard
    assert _numpy_call_sites("isfinite") == {("_validate.py", "_as_real"), ("_validate.py", "finite")}
    assert _numpy_call_sites("vdot") == {("_validate.py", "_as_real"), ("tridiagonal.py", "_norm")}
