"""One input contract: bools, text, complex values, arrays in place of scalars,
non-finite values and integers too large for a double raise ``ValueError`` at
every public entry point.

The contract is written once, in ``_validate``; the source check keeps numpy's
coercion (``np.asarray``) and its finiteness test (``np.isfinite``) there.
Each case below was either accepted (a bool read as 0 or 1, a string parsed
as a number) or raised ``TypeError`` before the contract was consolidated.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import fttlab as F
from fttlab._validate import as_finite, as_int
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


def _numpy_checks_outside_validate() -> list[tuple[str, int]]:
    """(file, line) of every ``np.asarray`` or ``np.isfinite`` call outside _validate.py."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_validate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "isfinite")
                    and getattr(node.func.value, "id", None) == "np"):
                sites.append((path.name, node.lineno))
    return sites


def test_input_is_coerced_and_checked_in_one_place():
    assert _numpy_checks_outside_validate() == []
