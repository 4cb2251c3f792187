"""Input validation and range guards shared by the numerical modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import OverflowFailure


def as_int(value, name: str, minimum: int | None = None) -> int:
    """An integer (bools excluded) that is at least ``minimum`` when given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def as_finite(value, name: str, minimum: float | None = None) -> float:
    """A finite float that is at least ``minimum`` when given."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum!r}, got {value!r}")
    return value


def check_tol(tol, positive: bool = True) -> None:
    """Reject a tolerance that is not finite and positive (nonnegative if not ``positive``)."""
    if not (math.isfinite(tol) and (tol > 0.0 if positive else tol >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"tol must be finite and {kind}, got {tol!r}")


def as_vector(a) -> np.ndarray:
    """Coerce to a finite 1-D float array with at least one entry."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 1 or out.size < 1:
        raise ValueError(f"expected a nonempty 1-D real vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D square float array."""
    out = np.asarray(m, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
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
