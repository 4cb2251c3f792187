"""One input contract: bools, text, complex values, arrays in place of scalars
and non-finite values raise ``ValueError`` at every public entry point.

The contract is written once, in ``_validate``; the source check keeps numpy's
coercion (``np.asarray``) and its finiteness test (``np.isfinite``) there.
Each case below was either accepted (a bool read as 0 or 1, a string parsed
as a number) or raised ``TypeError`` before the contract was consolidated.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import fttlab as F
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
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_input_raises_value_error(case):
    with pytest.raises(ValueError):
        INVALID[case]()


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
