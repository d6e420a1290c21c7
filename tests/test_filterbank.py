import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dft_projection_product,
    haar,
    random_monomial_det_matrix,
    random_projection_bank,
)
from wavebank.design import ProjectionParam, daubechies4, unitary_from_projections
from wavebank.filterbank import (
    BiorthPair,
    FilterBank,
    NonPolynomialInverseError,
    _as_monomial,
    biorthogonality_residual,
    check_qmf,
    dual_filters,
    filters_from_polyphase,
    inverse_of_monomial_det,
    polyphase_from_filters,
)
from wavebank.laurent import (
    LaurentPoly,
    MatLaurentPoly,
    SingularOnTorusError,
    is_unitary_on_torus,
)

V = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def polyphase_by_root_sums(bank, grid_size=64):
    """Independent oracle: A[i,j](z) = (1/N) sum_{w^N=z} m_i(w) w**-j, sampled."""
    n = bank.scale_n
    zs = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    out = np.zeros((grid_size, n, n), dtype=complex)
    for g, z in enumerate(zs):
        roots = z ** (1 / n) * np.exp(2j * np.pi * np.arange(n) / n)
        for i in range(n):
            mi = bank.filters[i].eval(roots)
            for j in range(n):
                out[g, i, j] = np.mean(mi * roots ** (-j))
    return zs, out


class TestPolyphase:
    def test_haar_gives_constant_v(self):
        A = polyphase_from_filters(haar())
        assert A.span == 0
        assert np.allclose(A.coeffs[0], V, atol=1e-15)

    def test_pure_permutation(self):
        bank = FilterBank(2, (LaurentPoly.monomial(1), LaurentPoly.one()))
        A = polyphase_from_filters(bank)
        assert A.span == 0
        assert np.allclose(A.coeffs[0], [[0, 1], [1, 0]], atol=0)

    def test_d4_block_layout(self):
        bank = daubechies4()
        a = bank.coefficients(0)
        b = bank.coefficients(1)
        A = polyphase_from_filters(bank)
        assert A.min_deg == 0 and A.max_deg == 1
        assert np.allclose(A.coeff(0), [[a[0], a[1]], [b[0], b[1]]], atol=0)
        assert np.allclose(A.coeff(1), [[a[2], a[3]], [b[2], b[3]]], atol=0)

    def test_matches_root_sum_oracle(self):
        bank = daubechies4()
        zs, oracle = polyphase_by_root_sums(bank)
        A = polyphase_from_filters(bank)
        sampled = np.stack([A.eval(z) for z in zs])
        assert np.max(np.abs(sampled - oracle)) <= 1e-12

    def test_constant_v_gives_haar(self):
        bank = filters_from_polyphase(MatLaurentPoly.from_constant(V))
        expect = haar()
        for got, want in zip(bank.filters, expect.filters):
            assert got.approx_eq(want, 1e-15)

    def test_identity_gives_delta_filters(self):
        bank = filters_from_polyphase(MatLaurentPoly.identity(3))
        for i, f in enumerate(bank.filters):
            assert f.min_deg == i and f.coeffs == (1.0 + 0j,)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        m0 = LaurentPoly.from_coeffs(0, rng.normal(size=6) + 1j * rng.normal(size=6))
        m1 = LaurentPoly.from_coeffs(0, rng.normal(size=6) + 1j * rng.normal(size=6))
        bank = FilterBank(2, (m0, m1))
        back = filters_from_polyphase(polyphase_from_filters(bank))
        for got, want in zip(back.filters, bank.filters):
            assert got.min_deg == want.min_deg and got.coeffs == want.coeffs

    def test_round_trip_negative_degrees(self):
        m0 = LaurentPoly.from_coeffs(-3, [1.0, 2.0, 3.0, 4.0, 5.0])
        m1 = LaurentPoly.from_coeffs(-1, [1.0j, 2.0])
        bank = FilterBank(2, (m0, m1))
        back = filters_from_polyphase(polyphase_from_filters(bank))
        for got, want in zip(back.filters, bank.filters):
            assert got.min_deg == want.min_deg and got.coeffs == want.coeffs

    def test_round_trip_keeps_dust_inside_filters(self):
        m0 = LaurentPoly.from_coeffs(0, [0.5, 1e-20, 0.5, 0.25])
        m1 = LaurentPoly.from_coeffs(-1, [1e-20, 1.0, 0.0, -1e-300, 2.0])
        bank = FilterBank(2, (m0, m1))
        A = polyphase_from_filters(bank)
        assert A.coeff(0)[0, 1] == 1e-20 and A.coeff(1)[1, 0] == -1e-300
        back = filters_from_polyphase(A)
        for got, want in zip(back.filters, bank.filters):
            assert got.min_deg == want.min_deg and got.coeffs == want.coeffs


_COEFF = st.sampled_from([0.0, -0.0, 1e-20, -1e-300, 0.25, -1.5j]) | st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _banks(draw):
    """N = 2..6 filters of random min_deg and length, about a quarter zero."""
    n = draw(st.integers(2, 6))
    filters = tuple(
        LaurentPoly.zero()
        if draw(st.integers(0, 3)) == 0
        else LaurentPoly.from_coeffs(
            draw(st.integers(-9, 9)), draw(st.lists(_COEFF, min_size=1, max_size=14))
        )
        for _ in range(n)
    )
    return FilterBank(n, filters)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bank=_banks())
def test_polyphase_is_the_index_rearrangement(bank):
    """A[i, j]_k = m_i[N k + j] entry by entry, and the round trip is exact."""
    n = bank.scale_n
    A = polyphase_from_filters(bank)
    for k in range(A.min_deg - 1, A.max_deg + 2):
        want = [[m.coeff(n * k + j) for j in range(n)] for m in bank.filters]
        assert np.array_equal(A.coeff(k), want)
    assert filters_from_polyphase(A) == bank


class TestQmf:
    def test_haar_passes(self):
        report = check_qmf(haar())
        assert report.passed and report.lowpass_ok
        assert report.max_residual <= 1e-14

    def test_d4_passes(self):
        assert check_qmf(daubechies4()).passed

    def test_identical_filters_fail(self):
        m = LaurentPoly.from_coeffs(0, [2**-0.5, 2**-0.5])
        report = check_qmf(FilterBank(2, (m, m)))
        assert not report.passed
        assert report.max_residual >= 0.9  # cross term has no cancellation

    def test_equivalence_with_polyphase_unitarity(self):
        rng = np.random.default_rng(4)
        corpus = [haar(), daubechies4()]
        corpus += [random_projection_bank(rng, int(rng.integers(0, 9))) for _ in range(8)]
        broken = FilterBank(
            2,
            (
                LaurentPoly.from_coeffs(0, [0.9 * 2**-0.5, 2**-0.5]),
                haar().filters[1],
            ),
        )
        corpus.append(broken)
        for bank in corpus:
            qmf = check_qmf(bank)
            unit = is_unitary_on_torus(polyphase_from_filters(bank))
            assert qmf.passed == unit.passed


    def test_aliasing_bank_needs_a_longer_grid(self):
        # m0 = (1 + z^2048)/2, m1 = z m0: not a QMF, but on 1024 points the
        # residual aliases to zero; the span guard refuses that grid
        m0 = LaurentPoly.from_coeffs(0, [0.5] + [0.0] * 2047 + [0.5])
        bank = FilterBank(2, (m0, m0.shift(1)))
        with pytest.raises(ValueError, match="required 2049"):
            check_qmf(bank)
        with pytest.raises(ValueError, match="required 2049"):
            check_qmf(bank, 2048)
        report = check_qmf(bank, 2049)
        assert not report.passed and report.max_residual > 0.5

    def test_biorthogonality_residual_needs_a_longer_grid(self):
        pair = dual_filters(polyphase_from_filters(daubechies4()))
        span = polyphase_from_filters(daubechies4()).span
        with pytest.raises(ValueError, match="grid_size"):
            biorthogonality_residual(pair, 2 * span)
        assert biorthogonality_residual(pair, 2 * span + 1) <= 1e-12


class TestDualFilters:
    def test_unitary_matrix_gives_self_dual(self):
        A = polyphase_from_filters(daubechies4())
        pair = dual_filters(A)
        for p, d in zip(pair.primal.filters, pair.dual.filters):
            assert p.approx_eq(d, 1e-12)
        assert biorthogonality_residual(pair) <= 1e-12

    def test_shear_dual_is_lower_shear(self):
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        A = MatLaurentPoly.from_entries([[one, LaurentPoly.monomial(1)], [zero, one]])
        pair = dual_filters(A)
        # dual matrix is [[1, 0], [-z**-1, 1]]
        dual_mat = polyphase_from_filters(pair.dual)
        assert dual_mat.entry(0, 0).approx_eq(one, 1e-15)
        assert dual_mat.entry(0, 1).approx_eq(zero, 1e-15)
        assert dual_mat.entry(1, 0).approx_eq(LaurentPoly.monomial(-1, -1.0), 1e-15)
        assert biorthogonality_residual(pair) <= 1e-12

    def test_diagonal_scaling(self):
        A = MatLaurentPoly.from_constant(np.diag([2.0, 1.0]))
        pair = dual_filters(A)
        dual_mat = polyphase_from_filters(pair.dual)
        assert np.allclose(dual_mat.coeffs[0], np.diag([0.5, 1.0]), atol=1e-15)
        assert not check_qmf(pair.primal).passed
        assert biorthogonality_residual(pair) <= 1e-12

    def test_non_monomial_determinant_rejected(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.from_coeffs(0, [1.0, 0.5]), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        with pytest.raises(NonPolynomialInverseError) as err:
            dual_filters(A)
        assert err.value.determinant.approx_eq(
            LaurentPoly.from_coeffs(0, [1.0, 0.5]), 1e-15
        )

    def test_singular_on_torus_rejected(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.from_coeffs(0, [1.0, 1.0]), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        with pytest.raises(SingularOnTorusError):
            dual_filters(A)

    def test_random_monomial_det_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            A = random_monomial_det_matrix(rng)
            pair = dual_filters(A)
            assert biorthogonality_residual(pair) <= 1e-9

    def test_dual_scales_inversely(self):
        # det(1e-5 * A) is 1e-10 * z**2 on the torus: small, not vanishing
        A = unitary_from_projections(
            [ProjectionParam(0.3, 1.0), ProjectionParam(0.6, 2.0)]
        )
        unscaled = dual_filters(A).dual.filters
        scaled = dual_filters(A * 1e-5).dual.filters
        for got, d in zip(scaled, unscaled):
            want = d.scale(1e5)
            assert (got - want).max_abs_coeff() <= 1e-9 * want.max_abs_coeff()

    @pytest.mark.parametrize("n", range(3, 7))
    def test_inverse_of_monomial_det(self, n):
        rng = np.random.default_rng(n)
        vectors = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        U = dft_projection_product(n, vectors)
        D = MatLaurentPoly.from_constant(np.diag([2.0] + [1.0] * (n - 1)))
        for A in (U, D * U, D * U * LaurentPoly.monomial(-2)):
            resid = inverse_of_monomial_det(A) * A - MatLaurentPoly.identity(n)
            assert max(float(np.max(np.abs(m))) for m in resid.coeffs) <= 1e-12


class TestSerialization:
    def test_bank_json_round_trip(self):
        bank = daubechies4()
        obj = bank.to_json()
        assert obj["convention"] == "sqrtN" and obj["N"] == 2
        back = FilterBank.from_json(obj)
        for got, want in zip(back.filters, bank.filters):
            assert got.min_deg == want.min_deg and got.coeffs == want.coeffs

    def test_convention_absent_or_sqrtn_is_read(self):
        obj = daubechies4().to_json()
        assert FilterBank.from_json(obj) == daubechies4()
        del obj["convention"]
        assert FilterBank.from_json(obj) == daubechies4()

    def test_other_convention_rejected(self):
        obj = dict(daubechies4().to_json(), convention="h")
        with pytest.raises(ValueError, match='"convention"'):
            FilterBank.from_json(obj)

    def test_completion_matches_haar(self):
        bank = FilterBank.from_lowpass(haar().lowpass)
        assert bank.filters[1].approx_eq(haar().filters[1], 1e-15)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: FilterBank(1, (LaurentPoly.one(),)), ValueError,
         "scale number must be >= 2"),
        (lambda: FilterBank(2, (LaurentPoly.one(),)), ValueError,
         "expected 2 filters, got 1"),
        (lambda: FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, [1.0, 1.0, 1.0])),
         ValueError, "support 0..2n[+]1"),
        (lambda: FilterBank.from_lowpass(LaurentPoly.from_coeffs(1, [1.0, 1.0])),
         ValueError, "support 0..2n[+]1"),
        (lambda: BiorthPair(haar(), filters_from_polyphase(MatLaurentPoly.identity(3))),
         ValueError, "must share the scale number"),
        (lambda: _as_monomial(LaurentPoly.zero()), SingularOnTorusError,
         "determinant is identically zero"),
    ],
    ids=["one-band", "filter-count", "odd-taps", "min-deg-1", "biorth-mismatch",
         "zero-determinant"],
)
def test_refusal(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
