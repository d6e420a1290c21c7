import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar, random_lifting_steps, random_sl2_product
from wavebank.design import (
    LiftingStep,
    ProjectionParam,
    bank_from_projections,
    daubechies4,
    dft_matrix,
    find_angles_for_bank,
    general_factor,
    lifting_factorize,
    lifting_recompose,
    lifting_step_on_filters,
    projection,
    six_tap_coefficients,
    six_tap_from_angles,
    six_tap_polyphase,
    unitary_from_projections,
)
from wavebank.filterbank import (
    FilterBank,
    check_qmf,
    filters_from_polyphase,
    polyphase_from_filters,
)
from wavebank.laurent import (
    LaurentPoly,
    MatLaurentPoly,
    is_unitary_on_torus,
    k1_class,
)


def mat_residual(A, B):
    diff = A - B
    return max(diff.entry(i, j).max_abs_coeff() for i in range(2) for j in range(2))


class TestProjection:
    def test_coordinate_projections(self):
        assert np.allclose(projection(ProjectionParam(1.0, 0.0)), [[1, 0], [0, 0]])
        assert np.allclose(projection(ProjectionParam(0.0, 2.0)), [[0, 0], [0, 1]])

    def test_half_lambda(self):
        Q = projection(ProjectionParam(0.5, 0.0))
        assert np.allclose(Q, np.full((2, 2), 0.5), atol=1e-15)
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-14

    def test_projection_laws_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Q = projection(
                ProjectionParam(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi)))
            )
            assert np.max(np.abs(Q @ Q - Q)) <= 1e-14
            assert np.max(np.abs(Q - np.conj(Q).T)) <= 1e-14
            assert np.trace(Q).real == pytest.approx(1.0, abs=1e-14)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            ProjectionParam(1.2, 0.0)
        with pytest.raises(ValueError):
            ProjectionParam(0.5, -0.1)


class TestGeneralFactor:
    def test_coordinate_cases(self):
        e0 = np.zeros((2, 2))
        e0[0, 0] = 1.0
        f = general_factor(e0)
        assert f.entry(0, 0).approx_eq(LaurentPoly.monomial(1), 1e-15)
        assert f.entry(1, 1).approx_eq(LaurentPoly.one(), 1e-15)

        e1 = np.zeros((3, 3))
        e1[1, 1] = 1.0
        f3 = general_factor(e1)
        assert f3.entry(0, 0).approx_eq(LaurentPoly.one(), 1e-15)
        assert f3.entry(1, 1).approx_eq(LaurentPoly.monomial(1), 1e-15)
        assert f3.entry(2, 2).approx_eq(LaurentPoly.one(), 1e-15)

    def test_half_projection_factor(self):
        f = general_factor(projection(ProjectionParam(0.5, 0.0)))
        # (1/2) [[1+z, z-1], [z-1, 1+z]]
        assert f.entry(0, 0).approx_eq(LaurentPoly.from_coeffs(0, [0.5, 0.5]), 1e-15)
        assert f.entry(0, 1).approx_eq(LaurentPoly.from_coeffs(0, [-0.5, 0.5]), 1e-15)
        assert is_unitary_on_torus(f).passed

    def test_non_projection_rejected(self):
        with pytest.raises(ValueError, match="P"):
            general_factor(np.array([[1.0, 0.5], [0.0, 0.0]]))


class TestProjectionDesigns:
    def test_empty_product_is_haar(self):
        bank = filters_from_polyphase(unitary_from_projections([]))
        for got, want in zip(bank.filters, haar().filters):
            assert got.approx_eq(want, 1e-15)

    def test_single_coordinate_projection_shifts_haar(self):
        bank = bank_from_projections([ProjectionParam(1.0, 0.0)])
        want = LaurentPoly.from_coeffs(1, [2**-0.5, 2**-0.5])  # (z^2 + z)/sqrt2
        assert bank.lowpass.approx_eq(want, 1e-15)
        assert check_qmf(bank).passed

    def test_random_products_unitary_with_full_class(self):
        rng = np.random.default_rng(8)
        params = [
            ProjectionParam(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi)))
            for _ in range(8)
        ]
        A = unitary_from_projections(params)
        report = is_unitary_on_torus(A, tol=1e-10)
        assert report.passed
        assert A.max_deg <= 8
        assert k1_class(A) == 8

    def test_dft_prefactor_matches_v(self):
        assert np.allclose(dft_matrix(2), [[1, 1], [1, -1]] / np.sqrt(2), atol=1e-15)
        H3 = dft_matrix(3)
        assert np.max(np.abs(np.conj(H3).T @ H3 - np.eye(3))) <= 1e-14


class TestDaubechies4:
    def test_h_closed_forms(self):
        bank = daubechies4()
        h = bank.coefficients(0).real * math.sqrt(2.0)
        s3 = math.sqrt(3.0)
        assert np.allclose(
            h, [(1 + s3) / 4, (3 + s3) / 4, (3 - s3) / 4, (1 - s3) / 4], atol=1e-14
        )
        assert h[0] == pytest.approx(0.6830127, abs=1e-7)

    def test_design_equations(self):
        h = daubechies4().coefficients(0).real * math.sqrt(2.0)
        assert abs(h.sum() - 2.0) <= 1e-15
        assert abs(h[3] - h[2] + h[1] - h[0]) <= 1e-15
        assert abs(h[3] - 2 * h[2] + 3 * h[1] - 4 * h[0]) <= 1e-12
        assert abs(h[1] * h[3] + h[0] * h[2]) <= 1e-15

    def test_quadrature(self):
        assert check_qmf(daubechies4()).passed

ANGLES = st.floats(0.0, 2 * math.pi, exclude_max=True)


class TestSixTap:
    def test_zero_angles(self):
        coeffs = six_tap_coefficients(0.0, 0.0)
        assert np.allclose(
            coeffs, [0, 2**-0.5, 0, 0, 2**-0.5, 0], atol=1e-15
        )
        bank = six_tap_from_angles(0.0, 0.0)
        assert bank.lowpass.approx_eq(LaurentPoly.from_coeffs(1, [2**-0.5]) + LaurentPoly.from_coeffs(4, [2**-0.5]), 1e-14)

    def test_lowpass_normalization_over_angle_grid(self):
        for theta in np.linspace(0, 2 * math.pi, 10, endpoint=False):
            for rho in np.linspace(0, 2 * math.pi, 10, endpoint=False):
                assert six_tap_coefficients(theta, rho).sum() == pytest.approx(
                    math.sqrt(2.0), abs=1e-12
                )

    def test_closed_form_matches_matrix_product(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            theta, rho = rng.uniform(0, 2 * math.pi, size=2)
            closed = six_tap_coefficients(theta, rho)
            m0 = filters_from_polyphase(six_tap_polyphase(theta, rho)).lowpass
            built = np.zeros(6, dtype=complex)
            if not m0.is_zero:
                for deg in range(m0.min_deg, m0.max_deg + 1):
                    built[deg] = m0.coeff(deg)
            assert np.max(np.abs(built - closed)) <= 1e-12

    def test_banks_pass_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            theta, rho = rng.uniform(0, 2 * math.pi, size=2)
            assert check_qmf(six_tap_from_angles(theta, rho)).passed

    def test_family_contains_four_tap_bank(self):
        theta, rho, dist = find_angles_for_bank(daubechies4())
        assert dist <= 1e-3
        recovered = six_tap_coefficients(theta, rho)
        want = np.zeros(6)
        want[:4] = daubechies4().coefficients(0).real
        assert np.max(np.abs(recovered - want)) <= 1e-3

    def test_four_tap_angles_are_exact(self):
        theta, rho, dist = find_angles_for_bank(daubechies4())
        assert abs(theta - 3 * math.pi / 4) <= 1e-15
        assert abs(rho - 5 * math.pi / 6) <= 1e-15
        assert dist <= 1e-15

    def test_member_without_tap_zero_is_accepted(self):
        # theta = rho = 0 gives (z + z**4)/sqrt2, whose support starts at 1
        theta, rho, dist = find_angles_for_bank(six_tap_from_angles(0.0, 0.0))
        assert (theta, rho) == (0.0, 0.0) and dist <= 1e-15

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(theta=ANGLES, rho=ANGLES)
    def test_angles_recovered_from_members(self, theta, rho):
        found_theta, found_rho, dist = find_angles_for_bank(six_tap_from_angles(theta, rho))
        assert 0.0 <= found_theta < math.pi and 0.0 <= found_rho < math.pi
        assert dist <= 1e-12
        if abs(math.cos(theta - rho)) >= 1e-3:  # elsewhere theta + rho is free
            for found, want in ((found_theta, theta), (found_rho, rho)):
                gap = (found - want) % math.pi
                assert min(gap, math.pi - gap) <= 1e-10

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(taps=st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    def test_distance_of_a_non_member_is_its_misfit(self, taps):
        assume(abs(taps[0]) > 1e-3 and abs(taps[5]) > 1e-3)
        target = FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps))
        theta, rho, dist = find_angles_for_bank(target)
        assert dist == np.max(np.abs(six_tap_coefficients(theta, rho) - taps))


class TestLifting:
    def test_single_upper_factor(self):
        u = LaurentPoly.from_coeffs(0, [1.0, -2.0, 0.5])
        A = MatLaurentPoly.from_entries(
            [[LaurentPoly.one(), u], [LaurentPoly.zero(), LaurentPoly.one()]]
        )
        steps = lifting_factorize(A)
        kinds = [s.kind for s in steps]
        assert kinds == ["diag", "upper"]
        assert steps[0].k_const == pytest.approx(1.0)
        assert steps[1].poly.approx_eq(u, 1e-12)

    def test_two_step_product_round_trip(self):
        l = LaurentPoly.monomial(1)
        u = LaurentPoly.from_coeffs(0, [1.0, 1.0])
        A = MatLaurentPoly.from_entries(
            [[LaurentPoly.one(), LaurentPoly.zero()], [l, LaurentPoly.one()]]
        ) * MatLaurentPoly.from_entries(
            [[LaurentPoly.one(), u], [LaurentPoly.zero(), LaurentPoly.one()]]
        )
        steps = lifting_factorize(A)
        assert mat_residual(lifting_recompose(steps), A) <= 1e-12

    def test_random_step_products_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            _, A = random_sl2_product(rng)
            recovered = lifting_factorize(A)
            assert mat_residual(lifting_recompose(recovered), A) <= 1e-9

    def test_higher_degree_products_stay_stable(self):
        # beyond the contract corpus: longer products, wider spans
        rng = np.random.default_rng(22)
        for _ in range(40):
            steps = random_lifting_steps(
                rng, n_steps=int(rng.integers(4, 9)), min_deg_range=(-2, 2), max_len=3
            )
            A = lifting_recompose(steps)
            recovered = lifting_factorize(A)
            assert mat_residual(lifting_recompose(recovered), A) <= 1e-7

    def test_monomial_diagonal_round_trip(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.monomial(2), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.monomial(-2)],
            ]
        )
        steps = lifting_factorize(A)
        assert mat_residual(lifting_recompose(steps), A) <= 1e-12

    def test_determinant_must_be_one(self):
        A = MatLaurentPoly.from_entries(
            [
                [LaurentPoly.monomial(1), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.one()],
            ]
        )
        with pytest.raises(ValueError, match="determinant"):
            lifting_factorize(A)
        with pytest.raises(ValueError):
            lifting_factorize(MatLaurentPoly.from_constant(np.diag([2.0, 1.0])))

    def test_recompose_empty_and_diag(self):
        assert np.allclose(lifting_recompose([]).coeffs[0], np.eye(2), atol=0)
        D = lifting_recompose([LiftingStep("diag", k_const=2.0)])
        assert np.allclose(D.coeffs[0], np.diag([2.0, 0.5]), atol=1e-15)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            LiftingStep("lower", k_const=2.0)
        with pytest.raises(ValueError):
            LiftingStep("diag", poly=LaurentPoly.one())
        with pytest.raises(ValueError):
            LiftingStep("diag", k_const=0.0)

    def test_step_json_round_trip(self):
        step = LiftingStep("upper", poly=LaurentPoly.from_coeffs(-1, [1.0, 2.0j]))
        back = LiftingStep.from_json(step.to_json())
        assert back.kind == step.kind and back.poly.coeffs == step.poly.coeffs
        diag = LiftingStep("diag", k_const=1.5 - 0.5j)
        assert LiftingStep.from_json(diag.to_json()).k_const == diag.k_const


class TestLiftingOnFilters:
    def test_zero_lower_step_is_identity(self):
        step = LiftingStep("lower", poly=LaurentPoly.zero())
        bank = lifting_step_on_filters(haar(), step)
        for got, want in zip(bank.filters, haar().filters):
            assert got.approx_eq(want, 0)

    def test_unit_upper_step_on_haar(self):
        # m0 <- m0 + u(z^2) m1 with u = 1: (1+z)/sqrt2 + (1-z)/sqrt2 = sqrt2
        step = LiftingStep("upper", poly=LaurentPoly.one())
        bank = lifting_step_on_filters(haar(), step)
        assert bank.lowpass.approx_eq(
            LaurentPoly.from_coeffs(0, [math.sqrt(2.0)]), 1e-15
        )
        assert bank.filters[1].approx_eq(haar().filters[1], 0)

    def test_matches_polyphase_left_multiplication(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            kind = ("lower", "upper", "diag")[int(rng.integers(0, 3))]
            if kind == "diag":
                step = LiftingStep(
                    "diag", k_const=complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
                )
            else:
                lo = int(rng.integers(-2, 1))
                poly = LaurentPoly.from_coeffs(
                    lo, rng.normal(size=3) + 1j * rng.normal(size=3)
                )
                step = LiftingStep(kind, poly=poly)
            m0 = LaurentPoly.from_coeffs(0, rng.normal(size=4) + 1j * rng.normal(size=4))
            m1 = LaurentPoly.from_coeffs(0, rng.normal(size=4) + 1j * rng.normal(size=4))
            from wavebank.filterbank import FilterBank

            bank = FilterBank(2, (m0, m1))
            via_filters = polyphase_from_filters(lifting_step_on_filters(bank, step))
            via_matrix = step.matrix() * polyphase_from_filters(bank)
            assert mat_residual(via_filters, via_matrix) <= 1e-12


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: find_angles_for_bank(FilterBank(2, (
            LaurentPoly.from_coeffs(0, [0.5, 0.5j]), LaurentPoly.one()))),
         "must be real with support inside 0..5"),
        (lambda: find_angles_for_bank(FilterBank(2, (
            LaurentPoly.from_coeffs(-1, [0.5, 0.5]), LaurentPoly.one()))),
         "must be real with support inside 0..5"),
        (lambda: lifting_factorize(MatLaurentPoly.identity(3)),
         "defined for 2 x 2 matrices"),
        (lambda: lifting_step_on_filters(
            filters_from_polyphase(MatLaurentPoly.from_constant(dft_matrix(3))),
            LiftingStep("lower", LaurentPoly.one())),
         "lifting steps act on two-band banks"),
    ],
    ids=["complex-lowpass", "lowpass-below-0", "three-by-three", "three-band"],
)
def test_refusal(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
