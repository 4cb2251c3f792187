"""SplitMix64: the published stream, and ``vector`` as the scalar draws in one pass.

The scalar ``symmetric`` loop is the reference: ``vector(n)`` must return its
bytes and leave the generator in its state.
"""

import warnings

import numpy as np
import pytest

from fttlab.rng import SplitMix64

SEEDS = [0, 1, 2**63, 2**64 - 1, -5, 2**70]


def test_known_answer_stream():
    # the first outputs for seed 0 in Steele, Lea and Flood's generator
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 7, 200, 1000])
def test_vector_is_the_scalar_stream(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # uint64 wrap-around must stay silent
        got = fast.vector(n)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([slow.symmetric() for _ in range(n)]).tobytes()
    assert fast._state == slow._state


def test_interleaved_calls_follow_one_stream():
    fast, slow = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    for n in (3, 1, 50, 2):
        assert fast.vector(n).tobytes() == np.array(
            [slow.symmetric() for _ in range(n)]).tobytes()
        assert fast.uniform() == slow.uniform()
        assert fast.integer(-4, 9) == slow.integer(-4, 9)
    assert fast._state == slow._state


def test_vector_rejects_a_bad_length():
    with pytest.raises(ValueError):
        SplitMix64(0).vector(0)


def test_seeds_and_bounds_take_any_integer():
    # a seed is masked to 64 bits and never becomes a float, so no size limit applies
    assert SplitMix64(10**400)._state == 10**400 % 2**64
    assert 10**400 <= SplitMix64(0).integer(10**400, 10**400 + 6) <= 10**400 + 6
