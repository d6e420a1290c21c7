"""The shared offset-plus-array base: end trimming and value identity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.cascade import GridFunction, grid_inner, l2_difference
from wavebank.laurent import (
    CANONICAL_EPS,
    DimensionMismatchError,
    LaurentPoly,
    MatLaurentPoly,
    _trim_ends,
    frozen_vector,
)
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


# -- termwise algebra: the per-type formulas the shared operators replaced --


def dense_sum(a_off, a, b_off, b):
    """(lo, a + b) with both zero-padded onto their common support."""
    lo = min(a_off, b_off)
    hi = max(a_off + len(a), b_off + len(b))
    out = np.zeros((hi - lo,) + a.shape[1:], dtype=complex)
    out[a_off - lo : a_off - lo + len(a)] += a
    out[b_off - lo : b_off - lo + len(b)] += b
    return lo, out


def old_laurent_add(p, q):
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    return LaurentPoly.from_coeffs(*dense_sum(p.offset, p.data, q.offset, q.data))


def old_mat_add(A, B):
    return MatLaurentPoly.from_coeffs(*dense_sum(A.offset, A.data, B.offset, B.data))


def old_signal_add(c, d):
    if c.is_zero:
        return d
    if d.is_zero:
        return c
    return Signal.from_samples(*dense_sum(c.offset, c.data, d.offset, d.data))


def old_grid_add(f, g):
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    return GridFunction.from_values(f.j_level, *dense_sum(f.offset, f.data, g.offset, g.data))


def two_by_two(terms):
    """terms as a stack of 2 x 2 matrices, zero-padded, at least one."""
    arr = np.zeros(4 * max(-(-len(terms) // 4), 1), dtype=complex)
    arr[: len(terms)] = terms
    return arr.reshape(-1, 2, 2)


# (build(offset, terms), sum, negation, scale), each from the old code; Signal
# negated as scale(-1.0), and GridFunction, which had no sum, takes Signal's
# rule without the trim
OLD_RULES = {
    "laurent": (
        LaurentPoly.from_coeffs,
        old_laurent_add,
        lambda p: LaurentPoly.from_coeffs(p.min_deg, -p.data),
        lambda p, s: LaurentPoly.from_coeffs(p.min_deg, s * p.data),
    ),
    "matrix": (
        lambda off, terms: MatLaurentPoly.from_coeffs(off, two_by_two(terms)),
        old_mat_add,
        lambda A: MatLaurentPoly.from_coeffs(A.min_deg, -A.coeffs),
        lambda A, s: MatLaurentPoly.from_coeffs(A.min_deg, s * A.coeffs),
    ),
    "signal": (
        Signal.from_samples,
        old_signal_add,
        lambda c: Signal.from_samples(c.offset, -1.0 * c.data),
        lambda c, s: Signal.from_samples(c.offset, s * c.data),
    ),
    "grid": (
        lambda off, terms: GridFunction.from_values(2, off, terms),
        old_grid_add,
        lambda g: GridFunction.from_values(g.j_level, g.offset, -g.data),
        lambda g, s: GridFunction.from_values(g.j_level, g.offset, s * g.data),
    ),
}
FINITE_TERMS = st.sampled_from([0.0, -0.0, complex(0, -0.0), 1e-15, -1e-15j, 1.0, -2.5 + 1j, 3e-14])
SCALARS = st.sampled_from([0.0, -1.0, 2.5, 1j, 1e-15, -0.5 + 2j])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(OLD_RULES)),
    offsets=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    terms=st.tuples(st.lists(FINITE_TERMS, max_size=8), st.lists(FINITE_TERMS, max_size=8)),
    s=SCALARS,
)
def test_algebra_matches_old_per_type_rules(kind, offsets, terms, s):
    build, add, neg, scale = OLD_RULES[kind]
    a, b = (build(off, list(t)) for off, t in zip(offsets, terms))
    assert a + b == add(a, b)
    assert -b == neg(b)
    assert a - b == add(a, neg(b))
    assert a.scale(s) == scale(a, s)
    if kind in ("laurent", "matrix"):
        assert a * s == s * a == scale(a, s)


def test_sum_with_an_empty_operand_is_the_other_operand():
    operands = [
        (LaurentPoly.zero(), LaurentPoly.from_coeffs(-1, [complex(-0.0, 1.0), 2.0])),
        (Signal.zero(), Signal.from_samples(3, [1.0, -0.0, -2.0])),
        (GridFunction.from_values(2, 0, []), GridFunction.from_values(2, 5, [-0.0, 1.0])),
    ]
    for zero, p in operands:
        assert zero + p is p and p + zero is p
    # the zero matrix keeps one zero term, so it is padded like any other
    A = MatLaurentPoly.from_coeffs(2, [np.eye(2)])
    assert MatLaurentPoly.from_constant(np.zeros((2, 2))) + A == A


def test_mixed_levels_and_matrix_sizes_raise():
    f = GridFunction.from_values(2, 0, [1.0, 2.0])
    g = GridFunction.from_values(3, 0, [1.0, 2.0])
    A, B = MatLaurentPoly.identity(2), MatLaurentPoly.identity(3)
    for op in (
        lambda: f + g, lambda: f - g, lambda: l2_difference(f, g), lambda: grid_inner(f, g),
        lambda: A + B, lambda: A - B, lambda: A * B,
    ):
        with pytest.raises(DimensionMismatchError):
            op()
    assert LaurentPoly.one().__add__(Signal.impulse(0)) is NotImplemented
