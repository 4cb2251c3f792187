"""Exception taxonomy shared across the package.

``ValueError`` is reserved for contract violations on inputs (bad sizes,
non-finite data, out-of-range parameters).  The classes here cover failures
that appear only at run time on valid inputs.
"""

from __future__ import annotations

__all__ = ["NumericsError", "ConvergenceError", "OverflowFailure", "ConsistencyError"]


class NumericsError(RuntimeError):
    """A numerical procedure could not produce a trustworthy result."""


class ConvergenceError(NumericsError):
    """An iteration exhausted its budget; the message carries the last bracket."""


class OverflowFailure(NumericsError):
    """An intermediate quantity left the range of double precision."""


class ConsistencyError(NumericsError):
    """Two independent routes to the same quantity disagreed beyond tolerance."""
