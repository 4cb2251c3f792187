"""The input contract, checked here only, and the range guards shared by the modules.

Real input is a finite int or float, never a bool, text or complex: else ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OverflowFailure

# concrete types rather than numbers.Real: bound1 and bound2 check ~1100 times per threshold_x0
_REAL = (float, int, np.floating, np.integer)


def as_int(value, name: str, minimum: int | None = None) -> int:
    """An integer (bools excluded) that is at least ``minimum`` when given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def as_finite(value, name: str, minimum: float | None = None, above: float | None = None) -> float:
    """A finite real scalar as a float, at least ``minimum`` and above ``above`` when given."""
    if not isinstance(value, _REAL) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum!r}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must exceed {above!r}, got {value!r}")
    return value


def as_real_array(a, name: str) -> np.ndarray:
    """A float array of finite entries, any shape; a float64 array is not copied.

    Integer and float data only: a bool is rejected, also inside a list of numbers.
    """
    out = np.asarray(a)
    if out.dtype.kind not in "iuf" or (isinstance(a, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(a, dtype=object).flat)):
        raise ValueError(f"{name} must hold integers or floats only, got dtype {out.dtype}")
    out = out.astype(float, copy=False)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def as_vector(a, name: str, size: int | None = None) -> np.ndarray:
    """A finite 1-D float array of length ``size``, or nonempty if no size is given."""
    out = as_real_array(a, name)
    if out.ndim != 1 or (out.size < 1 if size is None else out.size != size):
        expected = "nonempty" if size is None else f"length-{size}"
        raise ValueError(f"{name} must be a {expected} 1-D vector, got shape {out.shape}")
    return out


def as_square_matrix(m, name: str) -> np.ndarray:
    """A finite 2-D square float array."""
    out = as_real_array(m, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {out.shape}")
    return out


def finite(value, what: str):
    """``value`` unchanged, or ``OverflowFailure`` if any entry is not finite."""
    if not (np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise OverflowFailure(f"{what} overflows double precision")
    return value


def checked_exp(exponent: float) -> float:
    """math.exp(exponent), raising ``OverflowFailure`` where it would overflow."""
    if exponent >= 709.0:
        raise OverflowFailure(f"exponent {exponent!r} overflows double precision")
    return math.exp(exponent)
