import math

import numpy as np
import pytest

from helpers import haar, stretched_haar
from wavebank.filterbank import FilterBank
from wavebank.laurent import LaurentPoly
from wavebank.cascade import (
    GridFunction,
    cascade_step,
    expected_position,
    fourier_infinite_product,
    grid_fourier,
    grid_inner,
    haar_scaling,
    haar_telescoping,
    haar_wavelet,
    l2_difference,
    scaling_function,
    wavelet_from_scaling,
)
from wavebank.design import daubechies4
from wavebank.transfer import per_check


def haar_transform_closed_form(t):
    """hat(phi)(t) = exp(-1j*t/2) * sin(t/2)/(t/2) for the unit box."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5j * t) * np.sinc(t / (2 * np.pi))


class TestCascadeStep:
    def test_haar_box_is_fixed_in_one_step(self):
        box = GridFunction.box(8)
        out = cascade_step(haar(), box)
        assert out.support_lo == box.support_lo and out.support_hi == box.support_hi
        assert np.max(np.abs(out.value_array() - box.value_array())) <= 1e-15

    def test_d4_one_step_plateaus(self):
        bank = daubechies4()
        out = cascade_step(bank, GridFunction.box(6))
        a = bank.coefficients(0)
        step = 2**-6
        for n in range(4):
            xs = np.arange(n / 2, (n + 1) / 2, step)[2:-2]  # interior of plateau
            idx = np.round(xs / step).astype(int)
            vals = np.array([out.at_index(i) for i in idx])
            assert np.allclose(vals, math.sqrt(2) * a[n], atol=1e-12)

    def test_zero_in_zero_out(self):
        z = GridFunction.from_values(5, 0, np.zeros(8))
        assert cascade_step(haar(), z).is_trivial()


class TestGridFunctionStorage:
    def test_stored_array_is_read_only(self):
        g = GridFunction.from_values(3, -2, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            g.value_array()[0] = 5.0
        with pytest.raises(ValueError):
            g.translate(1).value_array()[0] = 5.0

    def test_equal_along_different_paths(self):
        a = GridFunction.from_values(2, 4, [0.5, 1.0, 0.0])
        b = GridFunction.from_values(2, 0, np.array([1.0, 2.0, 0.0])).scale(0.5).translate(1)
        c = GridFunction.from_values(2, 4, (v for v in (0.5, 1.0, -0.0)))
        for other in (b, c):
            assert a == other and hash(a) == hash(other)
        assert a.values == (0.5, 1.0, 0.0) and a.support_hi == 6
        assert a != GridFunction.from_values(3, 4, [0.5, 1.0, 0.0])
        assert a != a.translate(1)


class TestScalingFunction:
    def test_haar_converges_immediately(self):
        result = scaling_function(haar(), j_level=8, iters=5)
        assert result.converged and result.iterations == 1
        assert result.diffs[0] == 0.0
        box = GridFunction.box(8)
        assert l2_difference(result.phi, box) == 0.0

    def test_d4_converges_within_budget(self):
        result = scaling_function(daubechies4(), j_level=10, iters=12)
        assert result.converged
        assert result.diffs[-1] < 1e-6
        phi = result.phi
        assert phi.support_lo >= 0 and phi.support_hi <= 3 * 2**10
        assert phi.riemann_sum().real == pytest.approx(1.0, abs=1e-3)

    def test_d4_fixed_point_residual(self):
        result = scaling_function(daubechies4(), j_level=10, iters=60, tol=1e-15)
        assert result.converged
        phi = result.phi
        assert l2_difference(cascade_step(daubechies4(), phi), phi) <= 1e-5

    def test_stretched_haar_stabilizes(self):
        result = scaling_function(stretched_haar(), j_level=9, iters=12)
        assert result.converged
        phi = result.phi
        assert phi.support_lo >= 0 and phi.support_hi <= 3 * 2**9
        assert phi.riemann_sum().real == pytest.approx(1.0, abs=1e-12)
        # mass distributes a third per unit cell (the weak-limit box /3)
        vals = phi.value_array().real
        full = np.zeros(3 * 2**9)
        full[phi.support_lo : phi.support_hi + 1] = vals
        for cell in range(3):
            cell_mass = np.sum(full[cell * 2**9 : (cell + 1) * 2**9]) * 2.0**-9
            assert cell_mass == pytest.approx(1 / 3, abs=1e-2)
        # ... and the periodization check is what flags the failed orthonormality
        assert per_check(stretched_haar(), t_points=16, n_max=2000).max_dev_from_1 >= 0.5

    def test_divergence_is_reported_not_raised(self):
        # a normalized but non-contractive mask blows up; after three
        # consecutive increases the run stops with the diverged flag
        m0 = LaurentPoly.from_coeffs(0, [4.0, math.sqrt(2.0) - 4.0])
        bank = FilterBank(2, (m0, m0))
        result = scaling_function(bank, j_level=6, iters=12)
        assert result.diverged and not result.converged
        assert result.iterations == 4

    def test_partition_of_unity(self):
        for bank, j in ((haar(), 8), (daubechies4(), 8)):
            phi = scaling_function(bank, j_level=j, iters=40, tol=1e-15).phi
            # sum phi(x - k) over enough k to cover x in [3, 5): supports lie
            # in [0, 3], so shifts k in [0, 5) x-range minus support suffice
            xs_idx = np.arange(3 * 2**j, 5 * 2**j)
            total = np.zeros(len(xs_idx), dtype=complex)
            for k in range(-2, 8):
                vals = np.array([phi.at_index(i - k * 2**j) for i in xs_idx])
                total += vals
            assert np.max(np.abs(total - 1.0)) <= 1e-3

    def test_d4_orthonormal_translates(self):
        phi = scaling_function(daubechies4(), j_level=10, iters=30).phi
        assert grid_inner(phi, phi).real == pytest.approx(1.0, abs=1e-3)
        for k in (1, 2):
            assert abs(grid_inner(phi, phi.translate(k))) <= 1e-3


class TestWavelets:
    def test_haar_mother_function(self):
        phi = scaling_function(haar(), j_level=8).phi
        (psi,) = wavelet_from_scaling(haar(), phi)
        xs = psi.x()
        want = haar_wavelet(xs)
        assert np.max(np.abs(psi.value_array().real - want)) <= 1e-14

    def test_d4_moments(self):
        bank = daubechies4()
        phi = scaling_function(bank, j_level=10, iters=12).phi
        (psi,) = wavelet_from_scaling(bank, phi)
        assert psi.support_lo >= 0 and psi.support_hi <= 3 * 2**10
        step = psi.step
        vals = psi.value_array().real
        mids = psi.x() + step / 2
        assert np.sum(vals) * step == pytest.approx(0.0, abs=1e-3)
        assert np.sum(mids * vals) * step == pytest.approx(0.0, abs=1e-3)


class TestFourierProduct:
    def test_normalization_at_zero(self):
        for bank in (haar(), daubechies4()):
            assert fourier_infinite_product(bank, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_haar_closed_form(self):
        ts = np.array([0.3, 1.0, 2.0, math.pi, 2 * math.pi, 11.0])
        got = fourier_infinite_product(haar(), ts, k_terms=40)
        assert np.max(np.abs(got - haar_transform_closed_form(ts))) <= 1e-8

    def test_haar_vanishes_at_two_pi(self):
        assert abs(fourier_infinite_product(haar(), 2 * math.pi, k_terms=40)) <= 1e-6

    def test_one_step_recursion(self):
        bank = daubechies4()
        for t in (0.7, 2.0, 5.0):
            lhs = fourier_infinite_product(bank, t, k_terms=41)
            rhs = (
                bank.lowpass.eval_angle(t / 2)
                / math.sqrt(2)
                * fourier_infinite_product(bank, t / 2, k_terms=40)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_grid_transform_of_cascade(self):
        bank = daubechies4()
        phi = scaling_function(bank, j_level=10, iters=30).phi
        ts = np.linspace(-6.0, 6.0, 16)
        via_product = fourier_infinite_product(bank, ts, k_terms=40)
        via_grid = grid_fourier(phi, ts)
        assert np.max(np.abs(via_product - via_grid)) <= 1e-3

    def test_d4_at_pi_cross_check(self):
        bank = daubechies4()
        phi = scaling_function(bank, j_level=10, iters=30).phi
        lhs = fourier_infinite_product(bank, math.pi, k_terms=40)
        rhs = grid_fourier(phi, math.pi)
        assert abs(lhs - rhs) <= 1e-3


class TestExpectedPosition:
    def test_haar_wavelet_position(self):
        phi = scaling_function(haar(), j_level=10).phi
        (psi,) = wavelet_from_scaling(haar(), phi)
        report = expected_position(psi)
        assert report.value == pytest.approx(0.5, abs=1e-6)
        assert report.nearest_half_integer == 0.5

    def test_translation_rule(self):
        phi = scaling_function(haar(), j_level=10).phi
        (psi,) = wavelet_from_scaling(haar(), phi)
        report = expected_position(psi.translate(3))
        assert report.value == pytest.approx(3.5, abs=1e-6)

    def test_d4_position_near_half_integer(self):
        bank = daubechies4()
        phi = scaling_function(bank, j_level=10, iters=12).phi
        (psi,) = wavelet_from_scaling(bank, phi)
        report = expected_position(psi)
        assert report.gap <= 1e-2

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            expected_position(GridFunction.from_values(4, 0, np.zeros(4)))


class TestHaarTelescoping:
    def test_inside_unit_interval(self):
        sums = haar_telescoping(0.5, 25)
        # 1/2 + 1/4 + ... -> 1
        assert np.allclose(sums, 1.0 - 2.0 ** -np.arange(1, 26), atol=1e-15)

    def test_between_one_and_two(self):
        sums = haar_telescoping(1.5, 25)
        assert sums[0] == pytest.approx(-0.5)
        assert abs(sums[-1]) <= 1e-7

    def test_dyadic_band_case(self):
        # x in (2, 4): first nonzero term is -(1/2)**2, then the positive tail
        sums = haar_telescoping(3.0, 30)
        assert sums[0] == 0.0
        assert sums[1] == pytest.approx(-0.25)
        assert abs(sums[-1]) <= 1e-8

    def test_tail_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = float(rng.uniform(0.01, 7.9))
            sums = haar_telescoping(x, 30)
            for n in (1, 3, 7, 15):
                tail = 2.0**-n * haar_scaling(2.0**-n * x)
                assert sums[n - 1] + tail == pytest.approx(
                    haar_scaling(x), abs=1e-12
                )


def test_rounding_level_differences_are_not_divergence():
    # with tol=0 the D4 cascade reaches its limit to rounding; its squared
    # differences (about 1e-31, eps**2 * ||phi||**2) then wander up and down
    result = scaling_function(daubechies4(), 10, 200, tol=0.0)
    assert not result.diverged and not result.converged
    assert result.iterations == 200
    assert max(result.diffs[-20:]) < 1e-29


def test_six_tap_bank_still_diverges():
    # differences stay above 0.03, far over the rounding floor
    from wavebank.design import six_tap_from_angles

    result = scaling_function(six_tap_from_angles(0.3, 1.1), 10, 200)
    assert result.diverged and not result.converged
    assert min(result.diffs) > 0.03


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: GridFunction.from_values(-1, 0, [1.0]), "j_level must be nonnegative"),
        (lambda: scaling_function(haar(), iters=0), "iters must be >= 1"),
        (lambda: fourier_infinite_product(haar(), 0.5, k_terms=0), "k_terms must be >= 1"),
        (lambda: haar_telescoping(0.5, 0), "n_terms must be >= 1"),
    ],
    ids=["negative-level", "no-iterations", "no-factors", "no-terms"],
)
def test_refusal(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
