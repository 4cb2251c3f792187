"""Exception taxonomy shared across the package.

``ValueError`` is reserved for contract violations on inputs (bad sizes,
non-finite data, out-of-range parameters).  The classes here cover failures
that appear only at run time on valid inputs.
"""

from __future__ import annotations

__all__ = ["NumericsError", "ConvergenceError", "OverflowFailure", "ConsistencyError"]


class NumericsError(RuntimeError):
    """A numerical procedure could not produce a trustworthy result.

    ``index`` is the grid position of the first failing point when a norm
    curve fails (0 for the one point of ``expm_oracle``, the one matrix of
    ``operator_norm``, the one sample of ``gftt2_exact_lhs``), and the sample
    number when the gftt2 probe fails.  An overflow found in an array of at
    least one dimension names the position along axis 0 of its first entry
    that is not finite; else ``index`` is None.
    """

    def __init__(self, *args, index: int | None = None) -> None:
        super().__init__(*args)
        self.index = index


class ConvergenceError(NumericsError):
    """Inverse iteration found no eigenvector at a shift.

    ``shift`` is that shift and ``residual`` the best |T v - shift v| of the
    jitters by tol (for a 1 x 1 matrix, |entry - shift|); the message names
    the shift and that residual (for a 1 x 1 matrix, the entry instead).
    """

    def __init__(self, *args, shift: float | None = None, residual: float | None = None) -> None:
        super().__init__(*args)
        self.shift = shift
        self.residual = residual


class OverflowFailure(NumericsError):
    """An intermediate quantity left the range of double precision."""


class ConsistencyError(NumericsError):
    """Two independent routes to the same quantity disagreed beyond tolerance."""
