"""The paper's identities as derandomized properties, on banks with N = 2..4
bands: the Cuntz relations of S_j c = m_j * upsample(c, N), the adjointness
of analyze and synthesize, and the agreement of the two torus verdicts."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dft_projection_product, random_params, random_signal
from wavebank.design import bank_from_projections
from wavebank.filterbank import (
    FilterBank,
    check_qmf,
    filters_from_polyphase,
    polyphase_from_filters,
)
from wavebank.laurent import LaurentPoly, is_unitary_on_torus
from wavebank.operators import Signal, analyze, inner, synthesize

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def banks(draw):
    """A projection product (N = 2) or a DFT projection product (N = 2..4)."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    if n == 2 and draw(st.booleans()):
        return bank_from_projections(random_params(rng, int(rng.integers(0, 5))))
    vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(rng.integers(0, 4))]
    return filters_from_polyphase(dft_projection_product(n, vectors))


def signal(rng):
    return random_signal(rng, int(rng.integers(1, 40)), int(rng.integers(-10, 10)))


def one_band(bank, j, d):
    """The band list of S_j d: d in band j, zero in the others."""
    return [d if i == j else Signal.zero() for i in range(bank.scale_n)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bank=banks(), seed=SEEDS)
def test_sum_of_s_j_s_j_star_is_identity(bank, seed):
    c = signal(np.random.default_rng(seed))
    assert (synthesize(analyze(c, bank), bank) - c).norm() <= 1e-12 * c.norm()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bank=banks(), seed=SEEDS)
def test_s_i_star_s_j_is_delta_ij(bank, seed):
    rng = np.random.default_rng(seed)
    j, d = int(rng.integers(bank.scale_n)), signal(rng)
    out = analyze(synthesize(one_band(bank, j, d), bank), bank)
    for i, band in enumerate(out):
        want = d if i == j else Signal.zero()
        assert (band - want).norm() <= 1e-12 * d.norm()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bank=banks(), seed=SEEDS)
def test_analyze_is_the_adjoint_of_synthesize(bank, seed):
    rng = np.random.default_rng(seed)
    c, d = signal(rng), signal(rng)
    for j, band in enumerate(analyze(c, bank)):
        s_j_d = synthesize(one_band(bank, j, d), bank)
        assert abs(inner(band, d) - inner(c, s_j_d)) <= 1e-12 * c.norm() * d.norm()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bank=banks(), seed=SEEDS, size=st.floats(1e-6, 1e-2), corrupted=st.booleans())
def test_quadrature_verdict_is_the_unitarity_verdict(bank, seed, size, corrupted):
    if corrupted:  # one tap, inside or one place past the support, moved by size
        rng = np.random.default_rng(seed)
        filters = list(bank.filters)
        i = int(rng.integers(len(filters)))
        where = int(rng.integers(filters[i].min_deg - 1, filters[i].max_deg + 2))
        bump = size * np.exp(2j * math.pi * rng.uniform())
        filters[i] = filters[i] + LaurentPoly.monomial(where, bump)
        bank = FilterBank(bank.scale_n, tuple(filters))
    verdict = check_qmf(bank).passed
    assert verdict == is_unitary_on_torus(polyphase_from_filters(bank)).passed
    assert verdict == (not corrupted)
