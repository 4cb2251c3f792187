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


class SplitMix64:
    """Deterministic stream of uniforms from a 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self._state = as_int(seed, "seed") & _MASK

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

        One uint64 numpy pass over the states state + k gamma, k = 1..n; array
        arithmetic wraps modulo 2^64 silently, where numpy scalars would warn.
        """
        n = as_int(n, "length", minimum=1)
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        z ^= z >> 30
        z *= _MIX1_U64
        z ^= z >> 27
        z *= _MIX2_U64
        z ^= z >> 31
        return (z >> 11) * 2.0 ** -52 - 1.0  # == 2 (top53 * 2^-53) - 1 exactly

    def integer(self, lo: int, hi: int) -> int:
        """One integer uniform on the inclusive range [lo, hi] (via rejection)."""
        lo = as_int(lo, "lo")
        hi = as_int(hi, "hi", minimum=lo)
        span = hi - lo + 1
        limit = (_MASK + 1) - (_MASK + 1) % span
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span
