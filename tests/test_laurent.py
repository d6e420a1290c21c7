import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dft_projection_product
from wavebank.design import ProjectionParam, dft_matrix, unitary_from_projections
from wavebank.laurent import (
    DimensionMismatchError,
    LaurentPoly,
    MatLaurentPoly,
    SingularOnTorusError,
    frozen_vector,
    interpolate_torus,
    is_unitary_on_torus,
    k1_class,
    sample_torus,
    winding_number,
)

V = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestEval:
    def test_zero_polynomial(self):
        assert LaurentPoly.zero().eval(1j) == 0

    @pytest.mark.parametrize("z", [[1.0, 2.0], np.array([1.0, 2.0]), 2.0])
    def test_zero_polynomial_keeps_the_shape_of_z(self, z):
        for p in (LaurentPoly.zero(), LaurentPoly.one()):
            for value in (p.eval(z), p.eval_angle(z)):
                assert np.shape(value) == np.shape(z)
                assert isinstance(value, complex if np.ndim(z) == 0 else np.ndarray)
        assert np.array_equal(LaurentPoly.zero().eval(z), np.zeros(np.shape(z)))

    def test_monomial(self):
        p = LaurentPoly.from_coeffs(1, [1.0])
        assert p.eval(-1.0) == pytest.approx(-1.0)

    def test_haar_lowpass_at_one(self):
        m0 = LaurentPoly.from_coeffs(0, [2**-0.5, 2**-0.5])
        assert m0.eval(1.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_vectorized_matches_scalar(self):
        p = LaurentPoly.from_coeffs(-2, [1.0, 2.0j, -0.5, 3.0])
        zs = np.exp(2j * np.pi * np.arange(7) / 7)
        vec = p.eval(zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(p.eval(complex(z)))

    def test_eval_angle_convention(self):
        # z = exp(-1j*t): for p = z, p(t) must be exp(-1j*t)
        p = LaurentPoly.monomial(1)
        t = 0.7
        assert p.eval_angle(t) == pytest.approx(np.exp(-1j * t))

    @pytest.mark.parametrize("grid_size", [1, 3, 5, 16])
    def test_grid_samples_fold_degrees(self, grid_size):
        # span 9 and min_deg -4: grids of 1, 3 and 5 points are shorter than
        # the span, so the degrees wrap around the grid
        rng = np.random.default_rng(4)
        p = LaurentPoly.from_coeffs(-4, rng.normal(size=10) + 1j * rng.normal(size=10))
        A = MatLaurentPoly.from_coeffs(
            -4, list(rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3)))
        )
        zs = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
        assert np.max(np.abs(p.eval_grid(grid_size) - p.eval(zs))) <= 1e-12
        want = np.stack([A.eval(z) for z in zs])
        assert np.max(np.abs(A.eval_grid(grid_size) - want)) <= 1e-12

    def test_interpolation_inverts_sampling(self):
        p = LaurentPoly.from_coeffs(-4, [1.0, 2.0j, -0.5, 3.0, 0.25 - 1j])
        back = interpolate_torus(p.eval_grid(8), -4, 4)
        assert np.max(np.abs(back - p.coeff_array())) <= 1e-15
        with pytest.raises(ValueError):
            interpolate_torus(p.eval_grid(4), -4, 4)


class TestAlgebra:
    def test_difference_of_squares(self):
        p = LaurentPoly.from_coeffs(0, [1.0, 1.0])
        q = LaurentPoly.from_coeffs(0, [1.0, -1.0])
        assert (p * q).approx_eq(LaurentPoly.from_coeffs(0, [1.0, 0.0, -1.0]), 0)

    def test_adjoint_conjugate_reflection(self):
        m0 = LaurentPoly.from_coeffs(0, [2**-0.5, 2**-0.5])
        adj = m0.adjoint()
        assert adj.min_deg == -1
        assert adj.coeffs == m0.coeffs

    def test_adjoint_is_involution(self):
        p = LaurentPoly.from_coeffs(-3, [1 + 2j, 0.5, -1j, 2.0])
        back = p.adjoint().adjoint()
        assert back.min_deg == p.min_deg and back.coeffs == p.coeffs

    def test_adjoint_matches_conjugate_on_torus(self):
        rng = np.random.default_rng(7)
        p = LaurentPoly.from_coeffs(-2, rng.normal(size=5) + 1j * rng.normal(size=5))
        zs = np.exp(2j * np.pi * rng.uniform(size=20))
        assert np.allclose(p.adjoint().eval(zs), np.conj(p.eval(zs)), atol=1e-12)

    def test_constant_v_is_self_inverse(self):
        A = MatLaurentPoly.from_constant(V)
        prod = A * A
        assert prod.span == 0
        assert np.allclose(prod.coeffs[0], np.eye(2), atol=1e-15)

    def test_eval_is_multiplicative_on_torus(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = LaurentPoly.from_coeffs(
                int(rng.integers(-3, 3)), rng.normal(size=4) + 1j * rng.normal(size=4)
            )
            q = LaurentPoly.from_coeffs(
                int(rng.integers(-3, 3)), rng.normal(size=3) + 1j * rng.normal(size=3)
            )
            z = complex(np.exp(2j * np.pi * rng.uniform()))
            assert (p * q).eval(z) == pytest.approx(p.eval(z) * q.eval(z), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        A = MatLaurentPoly.identity(2)
        B = MatLaurentPoly.identity(3)
        with pytest.raises(DimensionMismatchError):
            _ = A * B

    def test_canonical_form_trims_ends(self):
        p = LaurentPoly.from_coeffs(-1, [0.0, 1.0, 1e-16])
        assert p.min_deg == 0 and p.coeffs == (1.0 + 0j,)
        assert LaurentPoly.from_coeffs(5, [0.0, 0.0]).is_zero


class TestUnitarity:
    def test_constant_unitary(self):
        report = is_unitary_on_torus(MatLaurentPoly.from_constant(V))
        assert report.passed and report.max_residual <= 1e-15

    def test_monomial_phase_preserves_unitarity(self):
        A = MatLaurentPoly.from_constant(V) * MatLaurentPoly.from_entries(
            [
                [LaurentPoly.monomial(1), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        assert is_unitary_on_torus(A).passed

    def test_shear_is_not_unitary(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.one(), LaurentPoly.monomial(1)],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        report = is_unitary_on_torus(A)
        assert not report.passed
        assert report.max_residual >= 1.0

    def test_unitary_implies_unimodular_determinant(self):
        rng = np.random.default_rng(11)
        from helpers import random_projection_bank
        from wavebank.filterbank import polyphase_from_filters

        A = polyphase_from_filters(random_projection_bank(rng, 4))
        assert is_unitary_on_torus(A).passed
        det_vals = np.abs(A.determinant().eval_grid(512))
        assert np.max(np.abs(det_vals - 1.0)) <= 1e-9

    def test_grid_too_small_rejected(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.monomial(4), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        with pytest.raises(ValueError):
            is_unitary_on_torus(A, grid_size=5)


class TestWinding:
    def test_monomials(self):
        assert winding_number(LaurentPoly.monomial(1)) == 1
        assert winding_number(LaurentPoly.monomial(3)) == 3
        assert winding_number(LaurentPoly.monomial(-2)) == -2

    def test_grid_refinement_for_fast_phases(self):
        assert winding_number(LaurentPoly.monomial(600), grid_size=64) == 600

    def test_dominant_term_beyond_the_default_grid(self):
        # Rouche: the dominant coefficient's exponent, whatever the grid
        assert winding_number(LaurentPoly.monomial(2048)) == 2048
        assert winding_number(LaurentPoly.from_coeffs(0, [1.0] + [0.0] * 1023 + [2.0])) == 1024

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_class_counts_roots_in_the_disc(self, seed):
        # no term dominates 40 normal coefficients, so the certified sampled
        # path runs, with shifts beyond what phases of p on 1024 points
        # resolve; the argument principle counts the roots of z**-min_deg * p
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
        min_deg = int(rng.integers(-3000, 3000))
        p = LaurentPoly.from_coeffs(min_deg, coeffs)
        mags = np.abs(coeffs)
        assert 2 * mags.max() < mags.sum()
        inside = int(np.sum(np.abs(np.roots(coeffs[::-1])) < 1.0))
        assert winding_number(p) == min_deg + inside

    def test_vanishing_on_torus_rejected(self):
        p = LaurentPoly.from_coeffs(0, [1.0, 1.0])  # vanishes at z = -1
        with pytest.raises(SingularOnTorusError):
            winding_number(p)

    def test_additive_under_products(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            degs = rng.integers(-4, 5, size=2)
            mags = rng.uniform(0.5, 2.0, size=2)
            p = LaurentPoly.monomial(int(degs[0]), mags[0])
            q = LaurentPoly.monomial(int(degs[1]), mags[1] * np.exp(1j))
            assert winding_number(p * q) == winding_number(p) + winding_number(q)

    def test_k1_of_projection_shift(self):
        # z*p + (1 - p) for a rank-one projection p has class 1
        v = np.array([1.0, 2.0 - 1j]) / math.sqrt(6.0)
        p = np.outer(v, np.conj(v))
        A = MatLaurentPoly.from_coeffs(0, [np.eye(2) - p, p])
        assert k1_class(A) == 1

    def test_k1_class_does_not_depend_on_scale(self):
        # det(1e-5 * A) is 1e-10 * z**2 on the torus: small, not vanishing
        A = unitary_from_projections(
            [ProjectionParam(0.3, 1.0), ProjectionParam(0.6, 2.0)]
        )
        assert k1_class(A) == 2
        assert k1_class(A * 1e-5) == 2


class TestDeterminant:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_dft_times_projection_factors(self, n):
        rng = np.random.default_rng(n)
        for k in range(4):
            vectors = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            A = dft_projection_product(n, vectors)
            want = LaurentPoly.monomial(k, np.linalg.det(dft_matrix(n)))
            assert A.determinant().approx_eq(want, 1e-12)


@st.composite
def dft_projection_products(draw):
    """(k, dft_matrix(n) times k rank-one projection factors), n in 2..8."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, 4))
    vectors = []
    for _ in range(k):
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
        v = np.array(parts[:n]) + 1j * np.array(parts[n:])
        assume(np.linalg.norm(v) >= 0.1)
        vectors.append(v)
    return k, dft_projection_product(n, vectors)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=dft_projection_products())
def test_k1_class_counts_projection_factors(case):
    k, A = case
    det = A.determinant()
    c = det.coeff(k)
    assert k1_class(A) == k
    assert det.approx_eq(LaurentPoly.monomial(k, c), 1e-12)
    assert abs(abs(c) - 1.0) <= 1e-12


class TestSerialization:
    def test_poly_round_trip(self):
        p = LaurentPoly.from_coeffs(-2, [1.5, 2j, -0.25 + 1e-3j])
        q = LaurentPoly.from_json(p.to_json())
        assert q.min_deg == p.min_deg and q.coeffs == p.coeffs

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        A = MatLaurentPoly.from_coeffs(
            -1, [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        )
        B = MatLaurentPoly.from_json(A.to_json())
        assert B.min_deg == A.min_deg
        assert all(np.array_equal(x, y) for x, y in zip(A.coeffs, B.coeffs))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: sample_torus(0, [1.0], 0), ValueError, "grid_size must be >= 1, got 0"),
        (lambda: frozen_vector(np.zeros((2, 2))), ValueError,
         r"expected a 1-D sequence of numbers, got shape \(2, 2\)"),
        (lambda: LaurentPoly.zero().max_deg, ValueError, "zero polynomial has no degree"),
        (lambda: MatLaurentPoly.from_coeffs(0, []), DimensionMismatchError,
         "need a nonempty stack of square matrices"),
        (lambda: MatLaurentPoly.from_coeffs(0, [np.zeros((2, 3))]), DimensionMismatchError,
         "need a nonempty stack of square matrices"),
        (lambda: MatLaurentPoly.from_entries([[LaurentPoly.one()] * 2, [LaurentPoly.one()]]),
         DimensionMismatchError, "entry grid must be square"),
    ],
    ids=["empty-grid", "matrix-vector", "zero-degree", "empty-stack", "non-square",
         "ragged-entries"],
)
def test_refusal(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
