"""Torus residuals from exact coefficients against the pointwise formulas
they replaced.

`is_unitary_on_torus` builds A*A - I and `biorthogonality_residual` (so
`check_qmf`) builds the quadrature Gram minus I as Laurent polynomials and
samples each once.  The oracles below are the earlier pointwise
formulations, kept as references: the stacked product A(z)*A(z) - I on the
grid, and the N-th-root sums of filters sampled on N*G points.  Residuals
must agree within 1e-12 * max(1, residual) and verdicts must be identical,
at the least admissible grid, at an odd grid and at 1024 points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dft_projection_product, random_monomial_det_matrix, random_params
from wavebank.defaults import TOL
from wavebank.design import bank_from_projections, daubechies4
from wavebank.filterbank import (
    BiorthPair,
    FilterBank,
    _polyphase_span,
    biorthogonality_residual,
    check_qmf,
    dual_filters,
    filters_from_polyphase,
    polyphase_from_filters,
)
from wavebank.laurent import LaurentPoly, is_unitary_on_torus


def stacked_unitarity_residual(A, grid_size):
    """max |A(z)*A(z) - I| by one stacked matmul over the sampled grid."""
    vals = A.eval_grid(grid_size)
    prod = np.conj(np.transpose(vals, (0, 2, 1))) @ vals
    prod -= np.eye(A.n)
    return float(np.max(np.abs(prod)))


def root_values(bank, grid_size):
    """(filter, root, grid point): m_i at the N-th roots of every z_j."""
    n = bank.scale_n
    vals = np.stack([f.eval_grid(n * grid_size) for f in bank.filters])
    return vals.reshape(len(bank.filters), n, grid_size)


def root_sum_residual(pair, grid_size):
    """max |(1/N) sum_{w^N=z} conj(m_i(w)) mdual_j(w) - delta_ij| over the grid."""
    n = pair.primal.scale_n
    prim, dual = root_values(pair.primal, grid_size), root_values(pair.dual, grid_size)
    gram = np.einsum("ikg,jkg->ijg", np.conj(prim), dual) / n
    gram -= np.eye(n)[:, :, None]
    return float(np.max(np.abs(gram)))


def grids(required, odd_extra):
    """The least admissible grid, an odd grid at least that long, and 1024."""
    return [required, required + 2 * odd_extra + 1 - required % 2, 1024]


def agree(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert (got <= TOL) == (want <= TOL)


def assert_bank_matches_oracles(bank, odd_extra):
    A = polyphase_from_filters(bank)
    for grid in grids(2 * A.span + 1, odd_extra):
        qmf, unit = check_qmf(bank, grid), is_unitary_on_torus(A, grid)
        agree(qmf.max_residual, root_sum_residual(BiorthPair(bank, bank), grid))
        agree(unit.max_residual, stacked_unitarity_residual(A, grid))
        assert qmf.passed == (qmf.max_residual <= TOL)
        assert unit.passed == (unit.max_residual <= TOL)


def corrupt(bank, rng, kind):
    """A bank that fails: one tap moved by 1e-3 or 1e-6 (inside or one place
    past the support), or one filter replaced by zero."""
    filters = list(bank.filters)
    i = int(rng.integers(len(filters)))
    if kind == "zero":
        filters[i] = LaurentPoly.zero()
    else:
        f = filters[i]
        where = int(rng.integers(f.min_deg - 1, f.max_deg + 2))
        size = 1e-3 if kind == "tap" else 1e-6
        bump = LaurentPoly.monomial(where, size * np.exp(2j * math.pi * rng.uniform()))
        filters[i] = f + bump
    return FilterBank(bank.scale_n, tuple(filters))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(k=st.integers(0, 8), seed=st.integers(0, 2**32 - 1), odd_extra=st.integers(0, 40))
def test_projection_banks_match_pointwise_checks(k, seed, odd_extra):
    bank = bank_from_projections(random_params(np.random.default_rng(seed), k))
    assert_bank_matches_oracles(bank, odd_extra)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(3, 6),
    factors=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    odd_extra=st.integers(0, 40),
)
def test_dft_projection_products_match_pointwise_checks(n, factors, seed, odd_extra):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(factors)]
    bank = filters_from_polyphase(dft_projection_product(n, vectors))
    assert_bank_matches_oracles(bank, odd_extra)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    n=st.integers(2, 5),
    kind=st.sampled_from(["tap", "small tap", "zero"]),
    seed=st.integers(0, 2**32 - 1),
    odd_extra=st.integers(0, 40),
)
def test_corrupted_banks_match_pointwise_checks(n, kind, seed, odd_extra):
    rng = np.random.default_rng(seed)
    if n == 2:
        bank = bank_from_projections(random_params(rng, int(rng.integers(0, 9))))
    else:
        vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2)]
        bank = filters_from_polyphase(dft_projection_product(n, vectors))
    assert_bank_matches_oracles(corrupt(bank, rng, kind), odd_extra)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), odd_extra=st.integers(0, 40))
def test_dual_filter_pairs_match_root_sums(seed, odd_extra):
    rng = np.random.default_rng(seed)
    pair = dual_filters(random_monomial_det_matrix(rng))
    # an equal dual bank that is not the same object: every pair (i, j) is built
    alike = BiorthPair(pair.primal, FilterBank(2, pair.primal.filters))
    # the dual of another matrix: a non-Hermitian residual far from zero
    crossed = BiorthPair(pair.primal, dual_filters(random_monomial_det_matrix(rng)).dual)
    for p in (pair, alike, crossed):
        required = _polyphase_span(p.primal)[1] + _polyphase_span(p.dual)[1] + 1
        for grid in grids(required, odd_extra):
            agree(biorthogonality_residual(p, grid), root_sum_residual(p, grid))


@pytest.mark.parametrize(
    "bank",
    [
        FilterBank(2, (daubechies4().lowpass, LaurentPoly.zero())),
        FilterBank(2, (LaurentPoly.zero(), LaurentPoly.zero())),
        FilterBank(3, (LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.monomial(4))),
    ],
)
def test_zero_filter_fails_without_raising(bank):
    qmf = check_qmf(bank)
    unit = is_unitary_on_torus(polyphase_from_filters(bank))
    assert not qmf.passed and not unit.passed
    assert qmf.max_residual == pytest.approx(1.0, abs=1e-12)
    assert 0.9 <= unit.max_residual <= 1.0 + 1e-12
    assert_bank_matches_oracles(bank, 3)
