"""The two index maps on `laurent.Block` layouts against per-index oracles.

`Block.window(lo, hi)` is read term by term through `Block.at`, added into
zeros; `decimate(offset, arr, n)` is a Python filter over the indices.
Results must match bitwise, signed zeros included.
"""

from fractions import Fraction
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.laurent import Block, decimate

TERMS = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1.0, -2.5 + 1j, 1e-300, np.nan]


@st.composite
def blocks(draw):
    """A raw block, so zero and -0.0 end terms and an empty array with any
    offset all occur: a vector, or a stack of n x n matrices."""
    n = draw(st.sampled_from([None, 1, 2, 3]))
    length = draw(st.integers(0, 7))
    shape = (length,) if n is None else (length, n, n)
    terms = draw(st.lists(st.sampled_from(TERMS), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    return Block(draw(st.integers(-12, 12)), np.array(terms, dtype=complex).reshape(shape))


def looked_up_window(block, lo, hi):
    """Terms lo..hi - 1 read one at a time by `at`, each added into zeros."""
    zero = np.zeros(block.data.shape[1:], dtype=complex)
    terms = [zero + block.at(i) for i in range(lo, hi)]
    return np.array(terms, dtype=complex).reshape((len(terms),) + block.data.shape[1:])


def filtered_decimation(offset, arr, n):
    """The terms whose index offset + i is divisible by n, from the least
    integer k with n * k >= offset."""
    kept = [i for i in range(len(arr)) if (offset + i) % n == 0]
    return math.ceil(Fraction(offset, n)), arr[kept]


def bitwise_same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(block=blocks(), lo=st.integers(-16, 16), width=st.integers(-3, 12))
def test_window_matches_lookup(block, lo, width):
    # width <= 0 is an empty range; lo far from the block a disjoint one
    got = block.window(lo, lo + width)
    assert bitwise_same(got, looked_up_window(block, lo, lo + width))
    assert got.flags.writeable and not np.shares_memory(got, block.data)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(block=blocks(), n=st.integers(2, 5))
def test_decimate_matches_index_filter(block, n):
    first, kept = decimate(block.offset, block.data, n)
    want_first, want = filtered_decimation(block.offset, block.data, n)
    assert first == want_first
    assert bitwise_same(kept, want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(block=blocks(), n=st.integers(2, 5))
def test_decimate_undoes_upsampling(block, n):
    # S* S = I on indices: the terms moved to n * k come back to k unchanged
    if block.data.ndim > 1:
        block = Block(block.offset, block.data[:, 0, 0])
    first, kept = decimate(*block.upsampled(n), n)
    assert first == block.offset
    assert bitwise_same(kept, block.data)
