"""The shared offset-plus-array base: end trimming and value identity."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.cascade import GridFunction
from wavebank.laurent import CANONICAL_EPS, LaurentPoly, _trim_ends, frozen_vector
from wavebank.operators import Signal


def laurent_scan(min_deg, arr):
    """The end scan LaurentPoly and MatLaurentPoly trimmed with before the
    shared base: terms of modulus below CANONICAL_EPS, a matrix term by its
    largest entry, walked in from both ends."""
    small = np.abs(arr) < CANONICAL_EPS
    if arr.ndim > 1:
        small = small.all(axis=(1, 2))
    small = small.tolist()
    lo, hi = 0, len(small)
    while lo < hi and small[lo]:
        lo += 1
    while hi > lo and small[hi - 1]:
        hi -= 1
    if lo == hi:
        return 0, arr[:0]
    return min_deg + lo, arr[lo:hi]


def exact_zero_trim(offset, arr):
    """The trim Signal.from_samples used before the shared base."""
    nonzero = np.flatnonzero(arr)
    if not len(nonzero):
        return 0, arr[:0]
    lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
    return offset + lo, arr[lo:hi]


TERMS = st.sampled_from(
    [0.0, -0.0, complex(0, -0.0), complex(-0.0, -0.0), 1e-15, -1e-15j, 1e-300,
     complex(7e-15, 7e-15), 1e-14, np.nan, complex(0, np.nan),
     1.0, -2.5 + 1j, 3e-14]
)


def same(got, want):
    return got[0] == want[0] and got[1].shape == want[1].shape and (
        got[1].tobytes() == want[1].tobytes()
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(offset=st.integers(-5, 5), terms=st.lists(TERMS, max_size=8))
def test_trim_matches_old_rules_on_vectors(offset, terms):
    arr = frozen_vector(terms)
    assert same(_trim_ends(offset, arr, CANONICAL_EPS), laurent_scan(offset, arr))
    assert same(_trim_ends(offset, arr, 0.0), exact_zero_trim(offset, arr))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    offset=st.integers(-5, 5),
    n=st.integers(1, 3),
    stack=st.data(),
)
def test_trim_matches_old_rule_on_matrix_stacks(offset, n, stack):
    length = stack.draw(st.integers(0, 5))
    terms = stack.draw(st.lists(TERMS, min_size=length * n * n, max_size=length * n * n))
    arr = np.array(terms, dtype=complex).reshape(length, n, n)
    assert same(_trim_ends(offset, arr, CANONICAL_EPS), laurent_scan(offset, arr))


def test_types_with_equal_terms_are_unequal():
    data = [1.0, -2.0j, 0.5]
    blocks = [
        LaurentPoly.from_coeffs(3, data),
        Signal.from_samples(3, data),
        GridFunction.from_values(0, 3, data),
        GridFunction.from_values(1, 3, data),
    ]
    assert all(b.offset == 3 for b in blocks)
    for a, b in itertools.combinations(blocks, 2):
        assert a != b and not a == b
    assert len(set(blocks)) == len(blocks)
    twin = GridFunction.from_values(1, 3, np.array(data))
    assert twin == blocks[-1] and hash(twin) == hash(blocks[-1])


def test_sum_rounds_like_one_zero_array():
    # -0.0 parts on the overlap: the sum keeps the bits of accumulating both
    # operands into one zero array
    a = Signal.from_samples(0, [1.0, complex(-0.0, -0.0), complex(2, -0.0)])
    b = Signal.from_samples(1, [complex(5, -0.0), complex(3, -0.0), 1.0])
    out = np.zeros(4, dtype=complex)
    out[0:3] += a.data
    out[1:4] += b.data
    total = a + b
    assert total.offset == 0 and total.data.tobytes() == out.tobytes()
    assert not np.signbit(total.data.imag).any()
