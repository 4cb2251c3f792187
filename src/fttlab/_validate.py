"""The input contract, checked here only, and the range guards shared by the modules.

Real input is a finite int or float, never a bool, text or complex: else ``ValueError``.
An int too large for a double is not finite input either.  Every array
argument is proven finite by one ddot, its a·a, and its entries are scanned
only when that is not finite.

numpy is not imported here at module level, so the scalar paths run without it.
A numpy scalar or array exists only once numpy is loaded, so the scalar checks
look for numpy's types only when ``"numpy" in sys.modules``.
"""

from __future__ import annotations

import math
import sys

from .errors import OverflowFailure

# float() of an int overflows from here on: the rounding midpoint above the largest double
_INT_LIMIT = 2**1024 - 2**970


def _is_numpy(value, *kinds: str) -> bool:
    """Whether ``value`` is an instance of one of numpy's abstract scalar types ``np.<kind>``."""
    np = sys.modules.get("numpy")  # no numpy scalar exists unless numpy is loaded
    return np is not None and isinstance(value, tuple(getattr(np, kind) for kind in kinds))


def _beyond_double(value: int, name: str) -> ValueError:
    return ValueError(f"{name} must fit in double precision, got a {value.bit_length()}-bit integer")


def as_int(value, name: str, minimum: int | None = None, *, any_size: bool = False) -> int:
    """An integer (bools excluded) that is at least ``minimum`` when given.

    It must also convert to a double, unless ``any_size`` (for integers that
    never enter float arithmetic, such as a seed masked to 64 bits).
    """
    if isinstance(value, bool) or not (isinstance(value, int) or _is_numpy(value, "integer")):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not any_size and abs(value) >= _INT_LIMIT:
        raise _beyond_double(value, name)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def as_finite(value, name: str, minimum: float | None = None, above: float | None = None) -> float:
    """A finite real scalar as a float, at least ``minimum`` and above ``above`` when given."""
    # concrete types rather than numbers.Real: bound1 and bound2 check ~1100 times per
    # threshold_x0; an exact float, the hot case (~400 verify calls a certify case), skips them
    if type(value) is not float:
        if isinstance(value, bool) or not (
                isinstance(value, (float, int)) or _is_numpy(value, "floating", "integer")):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # "int too large to convert to float"
            raise _beyond_double(value, name) from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum!r}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must exceed {above!r}, got {value!r}")
    return value


def _as_real(a, name: str):
    """(a float array of finite entries, any shape, and its a·a); a float64 ndarray is not copied.

    Integer and float data only: a bool is rejected, also inside a list of numbers.
    a·a is ``np.vdot``, BLAS ``ddot`` with the bits of ``a @ a`` for a vector,
    on ``a`` itself (a strided view's ddot differs from its copy's), and numpy
    checks no floating-point flag after it, so an overflow to inf never warns.
    A finite a·a proves every entry finite, so the ``np.isfinite`` pass runs
    only when it is not.
    """
    import numpy as np

    out = a
    if type(a) is not np.ndarray or a.dtype != np.float64:
        out = np.asarray(a)
        if out.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold integers or floats only, got dtype {out.dtype}")
        if isinstance(a, (list, tuple)):  # np.asarray has read a bool in a list of numbers as 0 or 1
            for v in np.asarray(a, dtype=object).flat:
                if isinstance(v, (bool, np.bool_)):
                    raise ValueError(f"{name} must hold integers or floats only, got bool {bool(v)}")
        out = out.astype(float, copy=False)
    square = float(np.vdot(out, out))
    if not math.isfinite(square) and not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out, square


def as_real_array(a, name: str):
    """A float array of finite entries, any shape; a float64 array is not copied."""
    return _as_real(a, name)[0]


def as_vector_and_square(a, name: str, size: int | None = None):
    """A finite 1-D float array of length ``size``, or nonempty if no size is given,
    and its a·a, the bits of ``a @ a``."""
    out, square = _as_real(a, name)
    if out.ndim != 1 or (out.size < 1 if size is None else out.size != size):
        expected = "nonempty" if size is None else f"length-{size}"
        raise ValueError(f"{name} must be a {expected} 1-D vector, got shape {out.shape}")
    return out, square


def as_vector(a, name: str, size: int | None = None):
    """``as_vector_and_square`` without the a·a."""
    return as_vector_and_square(a, name, size)[0]


def as_square_matrix(m, name: str):
    """A finite 2-D square float array."""
    out = as_real_array(m, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {out.shape}")
    return out


def finite(value, what: str):
    """``value`` unchanged, or ``OverflowFailure`` if any entry is not finite.

    For an ndarray of at least one dimension the failure's ``index`` is the
    position along axis 0 of the first entry that is not finite.
    """
    # a float is the hot case; an ndarray exists only once numpy is loaded
    np = None if isinstance(value, float) else sys.modules.get("numpy")
    array = np is not None and isinstance(value, np.ndarray)
    if np.isfinite(value).all() if array else math.isfinite(value):
        return value
    index = None
    if array and value.ndim:
        index = int(np.isfinite(value).reshape(len(value), -1).all(axis=1).argmin())
    raise OverflowFailure(f"{what} overflows double precision", index=index)


def checked_exp(exponent: float) -> float:
    """math.exp(exponent) past ``finite``, to which its ``OverflowError`` (e^709.79 on) is inf."""
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = math.inf
    return value if math.isfinite(value) else finite(value, f"exponent {exponent!r}")
