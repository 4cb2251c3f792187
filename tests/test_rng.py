"""SplitMix64: the published stream, and ``vector`` as the scalar draws in one pass.

The scalar ``symmetric`` loop is the reference: ``vector(n)`` must return its
bytes and leave the generator in its state, also when its draws come from a
block computed ahead.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fttlab import rng

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


@pytest.mark.parametrize("seed", [2**64 - 3, 0, 12345])
def test_consecutive_vectors_are_the_scalar_stream(seed):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    block = rng._AHEAD
    # lengths on both sides of the block size, and runs that use up a block
    for n in [1, 7, block - 1, block, block + 1, 3, 2 * block + 5] + [200] * 14:
        got = fast.vector(n)
        assert got.tobytes() == np.array([slow.symmetric() for _ in range(n)]).tobytes(), n
        assert fast._state == slow._state
        assert got.base is None  # a copy, not a view that keeps a whole block alive
        got[:] = 9.0  # the caller owns the vector: the next draws must not see this


_OPS = st.one_of(
    st.tuples(st.just("vector"), st.integers(1, 300) | st.sampled_from([2047, 2048, 2049])),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("integer"), st.integers(-5, 5), st.integers(5, 2**63)),
)


@given(seed=st.integers(0, 2**64 - 1) | st.just(2**64 - 3), ops=st.lists(_OPS, max_size=12))
@settings(max_examples=60, deadline=None)
def test_vector_interleaved_with_scalar_draws(seed, ops):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for op, *args in ops:
        if op == "vector":
            got = fast.vector(*args)
            want = np.array([slow.symmetric() for _ in range(*args)])
            assert got.tobytes() == want.tobytes()
            got[0] = 9.0
        else:
            assert getattr(fast, op)(*args) == getattr(slow, op)(*args)
        assert fast._state == slow._state
    assert fast.vector(5).tobytes() == np.array([slow.symmetric() for _ in range(5)]).tobytes()


def test_integer_rejects_a_range_past_one_draw():
    # limit = 2**64 - 2**64 % span is 0 past 2**64 integers, so no draw was ever accepted
    with pytest.raises(ValueError, match="at most 2\\*\\*64 integers"):
        SplitMix64(1).integer(0, 2**64)
    with pytest.raises(ValueError):
        SplitMix64(1).integer(-(10**30), 10**30)
    # the full 64-bit range still takes every draw as it is
    assert SplitMix64(1).integer(0, 2**64 - 1) == 10451216379200822465
    assert SplitMix64(1).integer(-2**63, 2**63 - 1) == 1227844342346046657
