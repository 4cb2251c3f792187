"""SplitMix64: a tiny, portable, seedable generator for reproducible samples.

This is the published 64-bit generator of Steele, Lea and Flood (the JDK's
``SplitMix64``), defined entirely by three constants:

    state += 0x9E3779B97F4A7C15
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27))         * 0x94D049BB133111EB
    output = z ^ (z >> 31)

with all arithmetic modulo 2^64.  Doubles are built from the top 53 bits, so
a given seed reproduces the same vectors bit-for-bit on every platform and
Python version; CLI outputs seeded through this generator are byte-identical
across runs.
"""

from __future__ import annotations

import numpy as np

from ._validate import as_int

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_AHEAD = 2048  # draws computed in one pass once vector calls follow one another
_NO_DRAWS = np.empty(0)


class SplitMix64:
    """Deterministic stream of uniforms from a 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self._state = as_int(seed, "seed", any_size=True) & _MASK
        # draws computed ahead by vector: the ones that follow state _ahead_from
        self._ahead, self._ahead_from = _NO_DRAWS, None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def symmetric(self) -> float:
        """One double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def vector(self, n: int) -> np.ndarray:
        """n i.i.d. entries uniform on [-1, 1): the next n ``symmetric()`` draws, bit for bit.

        A call right after another ``vector`` call takes its entries from a
        block of 2048 draws computed ahead in one pass, and returns a copy;
        any other call (the first, one after a scalar draw, or n past the
        block) computes exactly n draws.  ``_state`` is the state after the
        last draw returned, either way.
        """
        n = as_int(n, "length", minimum=1)
        start = self._state
        if self._ahead_from == start and n <= _AHEAD:
            if self._ahead.size < n:
                self._ahead = _draws(start, _AHEAD)
            out, self._ahead = self._ahead[:n].copy(), self._ahead[n:]
        else:
            out, self._ahead = _draws(start, n), _NO_DRAWS
        self._state = self._ahead_from = (start + n * _GAMMA) & _MASK
        return out

    def integer(self, lo: int, hi: int) -> int:
        """One integer uniform on the inclusive range [lo, hi] (via rejection from one draw).

        A range of more than 2^64 integers is a ``ValueError``: one draw cannot cover it.
        """
        lo = as_int(lo, "lo", any_size=True)
        hi = as_int(hi, "hi", minimum=lo, any_size=True)
        span = hi - lo + 1
        if span > _MASK + 1:
            raise ValueError(f"range [lo, hi] must hold at most 2**64 integers, got {span}")
        limit = (_MASK + 1) - (_MASK + 1) % span
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span


def _draws(state: int, n: int) -> np.ndarray:
    """The n ``symmetric()`` draws that follow ``state``, in one uint64 numpy pass.

    The states are state + k gamma, k = 1..n; array arithmetic wraps modulo
    2^64 silently, where numpy scalars would warn.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _GAMMA_U64
    z += np.uint64(state)
    z ^= z >> 30
    z *= _MIX1_U64
    z ^= z >> 27
    z *= _MIX2_U64
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -52 - 1.0  # == 2 (top53 * 2^-53) - 1 exactly
