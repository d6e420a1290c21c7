"""Index-map operators against the masked gathers and loops they replaced.

The refinement step, the big unitary matrix and the transfer fixed-point
residual are index arithmetic on coefficient arrays; the oracles below are
the earlier boolean-mask and Python-loop formulations, kept as references.
Grid functions and matrices must match bitwise, signed zeros included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.cascade import GridFunction, cascade_step, wavelet_from_scaling
from wavebank.filterbank import FilterBank
from wavebank.laurent import LaurentPoly, MatLaurentPoly, frozen_vector
from wavebank.operators import build_big_unitary
from wavebank.transfer import fixed_point_check

TAP_VALUES = [0.0, -0.0, complex(-0.0, 0.0), 1.0, -0.5 + 0.25j, 1e-300, 0.7071067811865476]


def masked_band_step(coeffs, scale_n, g):
    """sqrt(N) * sum_n c_n g(N x - n) by a boolean mask per tap."""
    if coeffs.is_zero or g.is_trivial():
        return GridFunction.from_values(g.j_level, 0, [0.0])
    unit = 1 << g.j_level
    n_lo, n_hi = coeffs.min_deg, coeffs.max_deg
    out_lo = math.ceil((g.support_lo + n_lo * unit) / scale_n)
    out_hi = math.floor((g.support_hi + n_hi * unit) / scale_n)
    if out_lo > out_hi:
        return GridFunction.from_values(g.j_level, 0, [0.0])
    out = np.zeros(out_hi - out_lo + 1, dtype=complex)
    vals = g.value_array()
    root = math.sqrt(scale_n)
    i = np.arange(out_lo, out_hi + 1)
    for n, c in enumerate(coeffs.coeffs, n_lo):
        if c == 0:
            continue
        src = scale_n * i - n * unit
        mask = (src >= g.support_lo) & (src <= g.support_hi)
        out[mask] += root * c * vals[src[mask] - g.support_lo]
    return GridFunction.from_values(g.j_level, out_lo, out)


def bitwise_same(got, want):
    return (
        got.j_level == want.j_level
        and got.offset == want.offset
        and got.data.tobytes() == want.data.tobytes()
    )


@st.composite
def taps(draw):
    """A filter, possibly zero; the raw constructor keeps zero end terms."""
    coeffs = draw(st.lists(st.sampled_from(TAP_VALUES), min_size=0, max_size=7))
    min_deg = draw(st.integers(-4, 4))
    if not coeffs:
        return LaurentPoly.zero()
    if draw(st.booleans()):
        return LaurentPoly(min_deg, frozen_vector(coeffs))
    return LaurentPoly.from_coeffs(min_deg, coeffs)


@st.composite
def grid_functions(draw):
    """Samples on level J, with zero, -0.0 or nonfinite entries, or all zeros."""
    j_level = draw(st.integers(0, 8))
    length = draw(st.integers(1, 3 << j_level))
    offset = draw(st.integers(-(4 << j_level), 2 << j_level))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=length) + 1j * rng.normal(size=length)
    kind = draw(st.sampled_from(["dense", "holes", "nonfinite", "trivial"]))
    if kind == "holes":
        vals[rng.uniform(size=length) < 0.3] = 0.0
        vals[rng.uniform(size=length) < 0.1] = complex(-0.0, -0.0)
    elif kind == "nonfinite":  # 0 * inf is NaN, so a zero tap must add nothing
        vals[rng.integers(length)] = complex(np.inf, 1.0)
        vals[rng.integers(length)] = np.nan
    elif kind == "trivial":
        vals[:] = complex(-0.0, 0.0)
    return GridFunction.from_values(j_level, offset, vals)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    scale_n=st.integers(2, 4),
    filters=st.lists(taps(), min_size=4, max_size=4),
    g=grid_functions(),
)
def test_band_steps_match_masked_gather(scale_n, filters, g):
    bank = FilterBank(scale_n, tuple(filters[:scale_n]))
    with np.errstate(invalid="ignore"):  # inf * complex makes NaN parts
        assert bitwise_same(cascade_step(bank, g), masked_band_step(bank.lowpass, scale_n, g))
        for got, f in zip(wavelet_from_scaling(bank, g), bank.filters[1:]):
            assert bitwise_same(got, masked_band_step(f, scale_n, g))


def looped_big_unitary(bank):
    """The block-circulant-with-border matrix placed block by block."""
    m0, m1 = bank.filters
    taps = len(m0.data)
    half = taps // 2
    a = m0.coeff_array()
    b = np.array([m1.coeff(k) for k in range(taps)], dtype=complex)
    blocks = [
        np.array([[a[2 * k], a[2 * k + 1]], [b[2 * k], b[2 * k + 1]]])
        for k in range(half)
    ]
    m_blocks = 2**half
    size = 2 * m_blocks
    U = np.zeros((size, size), dtype=complex)
    for i in range(m_blocks):
        for j in range(m_blocks):
            k = (j - i) % m_blocks
            if k >= half:
                continue
            block = blocks[k]
            if j == 0:
                U[2 * i : 2 * i + 2, 0] = block[:, 1]
                U[2 * i : 2 * i + 2, size - 1] = block[:, 0]
            else:
                U[2 * i : 2 * i + 2, 2 * j - 1 : 2 * j + 1] = block
    return U


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    half=st.integers(2, 6),
    high_lo=st.integers(0, 3),
    high_len=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_big_unitary_matches_block_loop(half, high_lo, high_len, seed):
    taps = 2 * half
    rng = np.random.default_rng(seed)
    a = rng.normal(size=taps) + 1j * rng.normal(size=taps)
    a[rng.uniform(size=taps) < 0.2] = complex(-0.0, 0.0)
    a[0] = a[-1] = 1.0  # keep the low-pass on exactly 0..2n+1
    # a high-pass supported on high_lo..high_hi, strictly inside 0..2n+1 when short
    high_lo = min(high_lo, taps - 1)
    high_len = min(high_len, taps - high_lo)
    b = rng.normal(size=high_len) + 1j * rng.normal(size=high_len)
    m1 = LaurentPoly.from_coeffs(high_lo, b) if high_len else LaurentPoly.zero()
    bank = FilterBank(2, (LaurentPoly.from_coeffs(0, a), m1))
    got, want = build_big_unitary(bank), looped_big_unitary(bank)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def looped_fixed_point_residual(bank, f_fine, m):
    n = bank.scale_n
    u = 2 * np.pi * np.arange(n * m) / (n * m)
    w_vals = np.abs(bank.lowpass.eval_angle(u)) ** 2
    rf = np.zeros(m)
    for k in range(n):
        idx = np.arange(m) + k * m
        rf += w_vals[idx] * f_fine[idx]
    rf /= n
    return float(np.max(np.abs(rf - f_fine[np.arange(m) * n])))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    scale_n=st.integers(2, 4),
    m=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_fixed_point_check_matches_loop(scale_n, m, seed):
    rng = np.random.default_rng(seed)
    span = int(rng.integers(1, 8))
    m0 = LaurentPoly.from_coeffs(
        int(rng.integers(-3, 3)), rng.normal(size=span) + 1j * rng.normal(size=span)
    )
    bank = FilterBank(scale_n, (m0,) * scale_n)
    f_fine = rng.normal(size=scale_n * m)
    assert fixed_point_check(bank, f_fine) == looped_fixed_point_residual(bank, f_fine, m)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    min_deg=st.integers(-4, 4),
    length=st.integers(1, 6),
    angle=st.floats(0, 2 * math.pi),
    radius=st.sampled_from([1.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_eval_is_the_coefficient_sum(n, min_deg, length, angle, radius, seed):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(length, n, n)) + 1j * rng.normal(size=(length, n, n))
    A = MatLaurentPoly.from_coeffs(min_deg, mats)
    z = radius * complex(math.cos(angle), math.sin(angle))
    want = sum(c * z ** (A.min_deg + k) for k, c in enumerate(A.coeffs))
    scale = sum(np.abs(c).max() * abs(z) ** (A.min_deg + k) for k, c in enumerate(A.coeffs))
    got = A.eval(z)
    assert got.shape == (n, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    assert np.array_equal(A(z), got)
