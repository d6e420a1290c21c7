"""Analysis and synthesis as polyphase products, against the convolve-then-
resample paths they replaced (kept here as oracles, as `test_index_maps.py`
keeps its own).

The two paths add the same products in another order, so values are
compared within a rounding bound, not bitwise.  An output sample is a sum
of at most 16 complex products a * c, which each path computes to within
sqrt(2) * gamma_18 * sum |a| |c| (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, sections 3.1 and 3.6), so the paths differ by
at most 2 sqrt(2) gamma_18 sum|taps| max|input| < 64 eps sum|taps| max|input|.
Offsets and lengths must be equal exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_signal
from wavebank.filterbank import FilterBank
from wavebank.laurent import LaurentPoly
from wavebank.operators import (
    Signal,
    analyze,
    convolve_poly,
    downsample,
    synthesize,
    upsample,
)

EPS = np.finfo(float).eps
SEEDS = st.integers(0, 2**32 - 1)


def oracle_analyze(c, bank):
    return [downsample(convolve_poly(c, f.adjoint()), bank.scale_n) for f in bank.filters]


def oracle_synthesize(bands, bank):
    out = Signal.zero()
    for band, f in zip(bands, bank.filters):
        out = out + convolve_poly(upsample(band, bank.scale_n), f)
    return out


@st.composite
def banks(draw):
    """N = 2..4 filters on degrees -5..9 of unequal lengths; maybe one zero."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    filters = []
    for size in draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)):
        taps = rng.normal(size=size) + 1j * rng.normal(size=size)
        filters.append(LaurentPoly.from_coeffs(draw(st.integers(-5, 3)), taps))
    if draw(st.booleans()):
        filters[draw(st.integers(0, n - 1))] = LaurentPoly.zero()
    return FilterBank(n, tuple(filters))


@st.composite
def signals(draw):
    """Offsets of every residue mod N; lengths 1..24, some below the filters'."""
    rng = np.random.default_rng(draw(SEEDS))
    return random_signal(rng, draw(st.integers(1, 24)), draw(st.integers(-13, 13)))


def tap_sum(bank):
    return sum(np.abs(f.data).sum() for f in bank.filters)


def assert_close(got, want, scale):
    assert (got.offset, len(got.data)) == (want.offset, len(want.data))
    assert np.abs(got.data - want.data).max(initial=0.0) <= 64 * EPS * scale


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bank=banks(), c=signals())
def test_analyze_matches_convolve_then_downsample(bank, c):
    scale = tap_sum(bank) * np.abs(c.data).max()
    got = analyze(c, bank)
    assert len(got) == bank.scale_n
    for band, want in zip(got, oracle_analyze(c, bank)):
        assert_close(band, want, scale)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bank=banks(), data=st.data())
def test_synthesize_matches_upsample_then_convolve(bank, data):
    bands = [data.draw(st.one_of(st.just(Signal.zero()), signals())) for _ in range(bank.scale_n)]
    scale = tap_sum(bank) * max(np.abs(b.data).max(initial=0.0) for b in bands)
    assert_close(synthesize(bands, bank), oracle_synthesize(bands, bank), scale)


def test_zero_bank_gives_zero_bands_and_zero_signal():
    bank = FilterBank(3, (LaurentPoly.zero(),) * 3)
    c = Signal.from_samples(-4, [1.0, 2.0j, 3.0])
    assert analyze(c, bank) == [Signal.zero()] * 3
    assert synthesize([c, c, Signal.zero()], bank) == Signal.zero()
