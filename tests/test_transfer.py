import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    dft_projection_product,
    haar,
    random_poly,
    random_projection_bank,
    stretched_haar,
)
from wavebank import transfer
from wavebank.cascade import fourier_infinite_product
from wavebank.design import (
    ProjectionParam,
    bank_from_projections,
    daubechies4,
    dft_matrix,
    general_factor,
)
from wavebank.defaults import GRID_SIZE
from wavebank.filterbank import FilterBank, _polyphase_span, check_qmf, filters_from_polyphase
from wavebank.laurent import LaurentPoly, MatLaurentPoly, _vanishing_floor
from wavebank.transfer import (
    TransferSpec,
    _horner,
    _tail_plan,
    _weight_series,
    fixed_point_check,
    min_band,
    per_check,
    per_samples,
    spectrum,
    subdivision_apply,
    transfer_apply,
    transfer_matrix,
    weight_from_lowpass,
)

HAAR_W = weight_from_lowpass(haar().lowpass)  # (2 + z + 1/z)/2


def three_band_bank():
    """N = 3 bank: DFT prefactor times one degree-one projection factor."""
    v = np.array([1.0, 0.5 - 0.7j, -0.3 + 0.2j])
    proj = np.outer(v, np.conj(v)) / np.vdot(v, v).real
    A = MatLaurentPoly.from_constant(dft_matrix(3)) * general_factor(proj)
    return filters_from_polyphase(A)


def modulate(bank, alpha):
    """The bank with its low-pass times exp(1j*alpha*k), as `modulated_d4`
    for any bank (the other filters are kept)."""
    m0 = bank.lowpass
    taps = m0.coeff_array() * np.exp(1j * alpha * np.arange(m0.min_deg, m0.max_deg + 1))
    return FilterBank(bank.scale_n, (LaurentPoly.from_coeffs(m0.min_deg, taps),)
                      + bank.filters[1:])


def modulated_d4(alpha=0.7):
    """D4 low-pass times exp(1j*alpha*k): W picks up a sine part."""
    taps = daubechies4().coefficients(0) * np.exp(1j * alpha * np.arange(4))
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps))


def long_alternating_bank():
    """32-tap low-pass 2, -1, 1, -1, ..., 1, -1 scaled to m_0(1) = sqrt(2): its
    weight's series coefficients sum in modulus to about 1e3, too much mass
    for any tail polynomial of degree <= 64 to meet the remainder bound."""
    taps = (-1.0) ** np.arange(32)
    taps[0] = 2.0
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps * 2**0.5))


def all_direct_per_samples(monkeypatch, bank, t, n_max, k_terms):
    """per_samples with every factor evaluated pointwise (no tail)."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "_tail_plan", lambda *args: (args[-1], None))
        return per_samples(bank, t, n_max=n_max, k_terms=k_terms)


def complex_six_tap():
    """Six-tap spectral factor of the three-moment Daubechies weight with
    complex taps: of the complex root pair inside the circle, one root is
    kept and the other reflected to 1/conj.  W is real and even."""
    P = np.polynomial.polynomial
    zy = np.array([-1.0, 2.0, -1.0]) / 4  # z * (2 - z - 1/z) / 4
    q = P.polyadd(P.polyadd([0.0, 0.0, 1.0], 3 * P.polymul([0.0, 1.0], zy)),
                  6 * P.polymul(zy, zy))
    r = next(x for x in P.polyroots(q) if abs(x) < 1 and x.imag > 0)
    q = P.polyfromroots([r, 1 / r])
    taps = P.polymul([0.125, 0.375, 0.375, 0.125], q / P.polyval(1.0, q))
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps * 2**0.5))


def complex_eight_tap():
    """Eight-tap spectral factor of the four-moment Daubechies weight with
    complex taps, as the benchmark draws them: of the roots inside the
    circle, the real one and one of the complex pair are kept and the other
    is reflected to 1/conj."""
    P = np.polynomial.polynomial
    zy = np.array([-1.0, 2.0, -1.0]) / 4  # z * (2 - z - 1/z) / 4
    q = np.zeros(1)
    for k, c in enumerate((1, 4, 10, 20)):  # binom(3 + k, k)
        term = P.polymul(P.polypow(zy, k), np.eye(4 - k)[3 - k])
        q = P.polyadd(q, c * term)
    inside = [x for x in P.polyroots(q) if abs(x) < 1]
    r = next(x for x in inside if x.imag > 1e-9)
    real = next(x for x in inside if abs(x.imag) <= 1e-9)
    q = P.polyfromroots([real, r, 1 / r])
    taps = P.polymul(P.polypow([0.5, 0.5], 4), q / P.polyval(1.0, q))
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps * 2**0.5))


def box_bank(length):
    """Low-pass (1 + z**length) / sqrt(2): its scaling function is the box on
    [0, length], whose autocorrelation is the hat (length - |k|) / length**2."""
    taps = np.zeros(length + 1)
    taps[[0, length]] = 2**-0.5
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps))


def long_stretched_haar():
    """Low-pass (1 + z**15) / sqrt(2): its scaling function is the box on
    [0, 15], and W = 2 on every multiple of 2 pi / 15."""
    return box_bank(15)


def assert_hat(exact, length):
    m = (len(exact.coeffs) - 1) // 2
    want = np.maximum(length - np.abs(np.arange(-m, m + 1)), 0) / length**2
    assert np.max(np.abs(exact.coeffs - want)) <= 1e-12


def one_sided_cycle_bank():
    """Ten-tap complex low-pass with the single 3-cycle 2 pi / 7 * {1, 2, 4}.

    Found by least squares (residual 4e-15): the QMF conditions, m_0(1) =
    sqrt(2), and m_0 = 0 at t = c + pi for c on that cycle, so W = 2 there.
    The mirrored cycle 2 pi / 7 * {3, 5, 6} is not a cycle of W, so PER is
    not even and the sign of exp(-i k t) matters."""
    re = [0.1253649861511821, -0.0894409400153962, 0.3140175568427316,
          -0.047963352968078195, -0.01611408712720681, 0.13460179656018748,
          0.139146497909918, -0.0020990841872836974, 0.1446917745933459,
          0.7120084146136926]
    im = [-0.15570045102622562, -0.010031075635428946, -0.09294055246721135,
          -0.0005517304441400645, 0.17433262080851528, 0.15018885511568947,
          0.36219080191275493, -0.06783112861771709, -0.2878825387594835,
          -0.07177480088675317]
    taps = np.array(re) + 1j * np.array(im)
    return FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps))


def corrupted_d4():
    """D4 with one low-pass tap moved by 1e-3: it fails the QMF check."""
    taps = daubechies4().coefficients(0).copy()
    taps[1] += 1e-3
    return FilterBank(2, (LaurentPoly.from_coeffs(0, taps),) + daubechies4().filters[1:])


def truncated_report(bank, t_points, n_max):
    """The report of the truncated sum alone: max |per_samples - 1| on the
    t_points grid, with the 1e-2 flatness tolerance."""
    t = 2 * np.pi * np.arange(t_points) / t_points
    dev = float(np.max(np.abs(per_samples(bank, t, n_max=n_max) - 1.0)))
    tail = bank.scale_n / (np.pi**2 * n_max)
    return transfer.PerReport(dev, dev <= 1e-2, tail, n_max)


def per_by_complex_product(bank, t, n_max, k_terms):
    """Oracle: the periodization from |phihat|^2 of the complex product."""
    t = np.asarray(t, dtype=float)
    args = t[..., None] + 2 * np.pi * np.arange(-n_max, n_max + 1)
    vals = fourier_infinite_product(bank, args.ravel(), k_terms)
    return np.sum(np.abs(vals.reshape(args.shape)) ** 2, axis=-1)


def transfer_by_root_sums(spec, f, grid_size=128):
    """Oracle: sample (R_W f)(z) = (1/N) sum_{w^N=z} W(w) f(w) on a grid."""
    n = spec.scale_n
    zs = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    out = np.zeros(grid_size, dtype=complex)
    for g, z in enumerate(zs):
        roots = z ** (1.0 / n) * np.exp(2j * np.pi * np.arange(n) / n)
        out[g] = np.mean(spec.w.eval(roots) * f.eval(roots))
    return zs, out


class TestCoefficientFormulas:
    def test_constant_weight_fixes_constants(self):
        spec = TransferSpec.from_weight(LaurentPoly.one(), 2)
        out = transfer_apply(spec, LaurentPoly.one())
        assert out.approx_eq(LaurentPoly.one(), 1e-15)

    def test_haar_weight_fixes_constants(self):
        spec = TransferSpec.from_weight(HAAR_W, 2)
        assert transfer_apply(spec, LaurentPoly.one()).approx_eq(LaurentPoly.one(), 1e-12)

    def test_matches_root_sum_oracle(self):
        rng = np.random.default_rng(0)
        spec = TransferSpec.for_bank(daubechies4())
        for _ in range(10):
            f = random_poly(rng, (-3, 3), (1, 4))
            zs, oracle = transfer_by_root_sums(spec, f)
            sampled = transfer_apply(spec, f).eval(zs)
            assert np.max(np.abs(sampled - oracle)) <= 1e-12

    def test_adjointness(self):
        rng = np.random.default_rng(1)
        for n_scale in (2, 3):
            spec = TransferSpec.from_weight(random_poly(rng, (-2, 2), (2, 4)), n_scale)
            for _ in range(10):
                f = random_poly(rng, (-3, 3), (1, 4))
                g = random_poly(rng, (-3, 3), (1, 4))
                rf = transfer_apply(spec, f)
                sg = subdivision_apply(spec, g)

                def pair(p, q):
                    return sum(
                        np.conj(p.coeff(k)) * q.coeff(k)
                        for k in range(
                            min(p.min_deg, q.min_deg), max(p.max_deg, q.max_deg) + 1
                        )
                    )

                assert pair(rf, g) == pytest.approx(pair(f, sg), abs=1e-12)

    def test_subdivision_examples(self):
        one = LaurentPoly.one()
        spec = TransferSpec.from_weight(one, 2)
        assert subdivision_apply(spec, one).approx_eq(one, 1e-15)
        # real symmetric weight: conj-poly(W) = W, so R* z = W(z) * z^2
        spec = TransferSpec.from_weight(HAAR_W, 2)
        out = subdivision_apply(spec, LaurentPoly.monomial(1))
        want = HAAR_W * LaurentPoly.monomial(2)
        assert out.approx_eq(want, 1e-14)

    def test_no_interior_l2_eigenvectors(self):
        # eigenvectors of the truncated adjoint supported strictly inside the
        # window are not genuine eigen-sequences of the subdivision operator
        for bank in (haar(), daubechies4()):
            spec = TransferSpec.for_bank(bank)
            mat = np.conj(transfer_matrix(spec)).T
            values, vectors = np.linalg.eig(mat)
            m = spec.band_m
            for lam, vec in zip(values, vectors.T):
                vec = vec / np.max(np.abs(vec))
                if abs(vec[0]) > 1e-9 or abs(vec[-1]) > 1e-9:
                    continue  # touches the window boundary
                f = LaurentPoly.from_coeffs(-m, vec)
                resid = subdivision_apply(spec, f) - f.scale(lam)
                assert resid.max_abs_coeff() > 1e-6


class TestMatrix:
    def test_haar_three_by_three(self):
        spec = TransferSpec.for_bank(haar())
        assert spec.band_m == 1
        mat = transfer_matrix(spec)
        want = np.array([[0.5, 0, 0], [0.5, 1.0, 0.5], [0, 0, 0.5]])
        assert np.max(np.abs(mat - want)) <= 1e-12

    def test_constant_weight_matrix(self):
        spec = TransferSpec.from_weight(LaurentPoly.one(), 2, band_m=2)
        mat = transfer_matrix(spec)
        for i, n in enumerate(range(-2, 3)):
            for j, k in enumerate(range(-2, 3)):
                assert mat[i, j] == (1.0 if k == 2 * n else 0.0)

    def test_d4_window_and_row_sums(self):
        spec = TransferSpec.for_bank(daubechies4())
        assert spec.band_m == 3
        mat = transfer_matrix(spec)
        assert mat.shape == (7, 7)
        # the central row covers the whole coefficient support: sum = W(1) = 2
        assert np.sum(mat[3]).real == pytest.approx(2.0, abs=1e-12)
        # every row agrees with direct coefficient assembly
        w = spec.w
        for i, n in enumerate(range(-3, 4)):
            want = sum(w.coeff(2 * n - k) for k in range(-3, 4))
            assert np.sum(mat[i]) == pytest.approx(want, abs=1e-15)
        # constant function (mode 0) is fixed
        e0 = np.zeros(7)
        e0[3] = 1.0
        assert np.max(np.abs(mat @ e0 - e0)) <= 1e-12

    def test_window_bound_enforced(self):
        with pytest.raises(ValueError, match="band_m"):
            TransferSpec(HAAR_W, 2, 0)
        assert min_band(HAAR_W, 2) == 1
        assert min_band(weight_from_lowpass(daubechies4().lowpass), 2) == 3

    def test_truncation_invariance(self):
        rng = np.random.default_rng(5)
        for bank in (haar(), daubechies4()):
            spec = TransferSpec.for_bank(bank)
            m = spec.band_m
            # the window maps into itself: no truncation leakage out of it
            for _ in range(5):
                inside = random_poly(rng, (-m, 0), (1, m + 1))
                img = transfer_apply(spec, inside)
                assert img.is_zero or (img.min_deg >= -m and img.max_deg <= m)
            # and the matrix rows agree with the exact coefficient action
            mat = transfer_matrix(spec)
            for j, k in enumerate(range(-m, m + 1)):
                img = transfer_apply(spec, LaurentPoly.monomial(k))
                col = np.array([img.coeff(n) for n in range(-m, m + 1)])
                assert np.max(np.abs(mat[:, j] - col)) <= 1e-15

    @pytest.mark.parametrize(
        "bank, extra",
        [(haar(), 0), (daubechies4(), 2), (stretched_haar(), 1), (three_band_bank(), 3)],
    )
    def test_matches_entrywise_definition(self, bank, extra):
        w = weight_from_lowpass(bank.lowpass)
        spec = TransferSpec(w, bank.scale_n, min_band(w, bank.scale_n) + extra)
        mat = transfer_matrix(spec)
        modes = range(-spec.band_m, spec.band_m + 1)
        want = np.array([[w.coeff(bank.scale_n * n - k) for k in modes] for n in modes])
        assert np.array_equal(mat, want)

    def test_reflection_symmetry(self):
        # real symmetric weights make the truncated matrix itself invariant
        # under index reflection (n, k) -> (-n, -k), hence also its spectrum
        spec = TransferSpec.for_bank(daubechies4())
        mat = transfer_matrix(spec)
        assert np.max(np.abs(spec.w.coeff_array().imag)) <= 1e-15
        assert np.max(np.abs(mat - mat[::-1, ::-1])) <= 1e-15


class TestSpectrum:
    def test_haar_spectrum(self):
        report = spectrum(TransferSpec.for_bank(haar()))
        values = sorted((l.real for l in report.eigenvalues), reverse=True)
        assert np.allclose(values, [1.0, 0.5, 0.5], atol=1e-10)
        assert report.pf_holds
        # fixed vector is the constant function, normalized at z = 1
        assert sum(report.fixed_vector) == pytest.approx(1.0, abs=1e-10)
        assert abs(report.fixed_vector[1] - 1.0) <= 1e-10

    def test_d4_perron_frobenius(self):
        report = spectrum(TransferSpec.for_bank(daubechies4()))
        assert report.pf_holds
        assert len(report.peripheral) == 1

    def test_stretched_haar_fails(self):
        report = spectrum(TransferSpec.for_bank(stretched_haar()))
        assert not report.pf_holds
        assert len(report.peripheral) >= 2

    def test_json_shape(self):
        obj = spectrum(TransferSpec.for_bank(haar())).to_json()
        assert set(obj) == {"eigenvalues", "peripheral", "pf_holds", "fixed_vector"}
        assert obj["pf_holds"] is True

    def test_eigenvalues_sorted_by_modulus(self):
        report = spectrum(TransferSpec.for_bank(daubechies4()))
        mods = [abs(l) for l in report.eigenvalues]
        assert mods == sorted(mods, reverse=True)

    def test_nonnegativity_flag(self):
        TransferSpec.from_weight(HAAR_W, 2, require_nonnegative=True)
        negative = LaurentPoly.from_coeffs(0, [-1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            TransferSpec.from_weight(negative, 2, require_nonnegative=True)

    def test_failed_eigen_solve_is_a_value_error(self):
        # the CLI reports a ValueError as an error with exit 2
        w = LaurentPoly.from_coeffs(-1, [0.5, np.nan, 0.5])
        with pytest.raises(np.linalg.LinAlgError) as exc:
            spectrum(TransferSpec.from_weight(w, 2))
        assert isinstance(exc.value, ValueError)


class TestPeriodization:
    def test_haar_flat(self):
        report = per_check(haar(), t_points=16, n_max=10**4)
        assert report.max_dev_from_1 <= 1e-4
        assert report.is_constant_1

    def test_d4_flat(self):
        report = per_check(daubechies4(), t_points=16, n_max=2000)
        assert report.max_dev_from_1 <= 1e-3

    def test_stretched_haar_deviates(self):
        report = per_check(stretched_haar(), t_points=16, n_max=2000)
        assert not report.is_constant_1
        assert report.max_dev_from_1 >= 0.5

    @pytest.mark.parametrize("n_max", [1, 7, 300])
    @pytest.mark.parametrize("k_terms", [1, 40])
    @pytest.mark.parametrize(
        "bank",
        [haar(), daubechies4(), stretched_haar(), three_band_bank(), modulated_d4(),
         complex_six_tap()],
        ids=["haar", "d4", "stretched", "three-band", "modulated-d4", "complex-six-tap"],
    )
    def test_matches_complex_product(self, bank, n_max, k_terms):
        # 40 t-points: with n_max = 300 the 40 rows of 601 pairs take two
        # blocks (27 rows, then 13)
        t = np.linspace(-4.0, 9.0, 40).reshape(5, 8)
        got = per_samples(bank, t, n_max=n_max, k_terms=k_terms)
        assert got.shape == t.shape
        want = per_by_complex_product(bank, t, n_max, k_terms)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_row_wider_than_a_block(self):
        t = np.array([0.3, 2.0])
        got = per_samples(daubechies4(), t, n_max=9000)
        want = per_by_complex_product(daubechies4(), t, 9000, 40)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_sine_series_only_for_odd_weights(self):
        # complex taps whose W is even leave only rounding noise in Im W
        assert np.any(complex_six_tap().lowpass.coeff_array().imag)
        for bank in (haar(), daubechies4(), complex_six_tap()):
            assert _weight_series(bank)[1] is None
        for bank in (modulated_d4(), three_band_bank()):
            assert _weight_series(bank)[1] is not None

    @pytest.mark.parametrize(
        "bank", [daubechies4(), modulated_d4(), stretched_haar()],
        ids=["d4", "modulated-d4", "stretched"],
    )
    def test_long_sum_matches_complex_product(self, bank):
        t = np.array([-2.5, 0.4, 6.0])
        got = per_samples(bank, t, n_max=10**4)
        want = per_by_complex_product(bank, t, 10**4, 40)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_tail_never_starts(self, monkeypatch):
        # every argument of the first 5 factors is beyond rho: no tail at all
        bank, t = daubechies4(), np.linspace(-3.0, 3.0, 7)
        cos_c, sin_c = _weight_series(bank)
        reach = 3.0 + 2 * np.pi * 300
        assert _tail_plan(cos_c, sin_c, 2, reach, 5) == (5, None)
        assert _tail_plan(cos_c, sin_c, 2, reach, 40)[0] > 5
        got = per_samples(bank, t, n_max=300, k_terms=5)
        want = all_direct_per_samples(monkeypatch, bank, t, 300, 5)
        assert np.array_equal(got, want)

    def test_unmet_bound_falls_back_to_direct_product(self, monkeypatch):
        bank, t = long_alternating_bank(), np.array([0.0, 1.0, 2.5])
        cos_c, sin_c = _weight_series(bank)
        assert _tail_plan(cos_c, sin_c, 2, 2.5 + 2 * np.pi * 40, 40) == (40, None)
        got = per_samples(bank, t, n_max=40)
        assert np.array_equal(got, all_direct_per_samples(monkeypatch, bank, t, 40, 40))
        want = per_by_complex_product(bank, t, 40, 40)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_nan_t_leaves_the_other_points_exact(self):
        got = per_samples(daubechies4(), np.array([np.nan, 0.4]), n_max=10**4)
        assert np.isnan(got[0])
        want = per_by_complex_product(daubechies4(), 0.4, 10**4, 40)
        assert abs(got[1] - want) <= 1e-12

    def test_scalar_t(self):
        got = per_samples(daubechies4(), 1.5, n_max=7)
        assert np.shape(got) == ()
        assert float(got) == pytest.approx(
            float(per_by_complex_product(daubechies4(), 1.5, 7, 40)), abs=1e-12
        )

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            per_samples(haar(), np.zeros(4), n_max=n_max)
        with pytest.raises(ValueError, match="n_max"):
            per_check(haar(), t_points=4, n_max=n_max)

    @pytest.mark.parametrize(
        "bank, least",
        [(haar(), 21),
         (filters_from_polyphase(MatLaurentPoly.from_constant(dft_matrix(3))), 31)],
        ids=["haar", "three-band-haar"],
    )
    def test_least_admissible_n_max(self, bank, least):
        # the least n_max with tail estimate N / (pi**2 n_max) <= 1e-2
        with pytest.raises(ValueError, match=f"n_max must be >= {least}"):
            per_check(bank, t_points=8, n_max=least - 1)
        report = per_check(bank, t_points=8, n_max=least)
        assert report.tail_estimate <= 1e-2
        assert report.is_constant_1

    def test_t_points_below_one_rejected(self):
        with pytest.raises(ValueError, match="t_points"):
            per_check(haar(), t_points=0)

    def test_k_terms_below_one_rejected(self):
        with pytest.raises(ValueError, match="k_terms"):
            per_samples(haar(), np.zeros(4), n_max=5, k_terms=0)

    def test_haar_tail_scale(self):
        # truncation tail shrinks like 1/n_max
        coarse = per_check(haar(), t_points=8, n_max=500).max_dev_from_1
        fine = per_check(haar(), t_points=8, n_max=4000).max_dev_from_1
        assert fine <= coarse / 4

    def test_haar_truncated_sum_tail_scale(self):
        # per_check takes the exact path for the two-tap bank, so the 1/n_max
        # decay of the truncation error is checked on the sum itself
        t = 2 * np.pi * np.arange(8) / 8
        coarse = np.max(np.abs(per_samples(haar(), t, n_max=500) - 1.0))
        fine = np.max(np.abs(per_samples(haar(), t, n_max=4000) - 1.0))
        assert 0.0 < fine <= coarse / 4


class TestExactPeriodization:
    """`per_exact` against the truncated sum at n_max = 20000 on 16 points.

    The sum only adds nonnegative terms, so it lies below the exact
    periodization by its truncation error: 0 <= exact - sum <= gap."""

    T = 2 * np.pi * np.arange(16) / 16

    def check_against_sum(self, bank, gap):
        exact = transfer.per_exact(bank)
        assert exact is not None
        diff = exact.eval(self.T) - per_samples(bank, self.T, n_max=20000)
        assert -1e-12 <= np.min(diff) and np.max(diff) <= gap
        return exact

    @pytest.mark.parametrize(
        "bank, gap",
        # the N = 3 bank's |phihat|^2 decays slowly: its sum is 5e-4 short
        [(daubechies4(), 1e-9), (three_band_bank(), 1e-3), (complex_eight_tap(), 1e-9)],
        ids=["d4", "three-band", "complex-eight-tap"],
    )
    def test_no_cycle(self, bank, gap):
        exact = self.check_against_sum(bank, gap)
        assert exact.fixed_dim == 1 and exact.cycles == ()
        assert np.array_equal(exact.eval(self.T), np.ones(16))

    def test_eight_tap_factor_is_complex(self):
        taps = complex_eight_tap().lowpass.coeff_array()
        assert len(taps) == 8 and np.max(np.abs(taps.imag)) > 1e-3

    def test_one_cycle(self):
        exact = self.check_against_sum(stretched_haar(), 1e-5)
        assert exact.fixed_dim == 2
        (cycle,) = exact.cycles
        assert np.allclose(sorted(cycle), [2 * np.pi / 3, 4 * np.pi / 3], atol=1e-15)
        # the autocorrelation of the box on [0, 3]
        want = np.array([0, 1, 2, 3, 2, 1, 0]) / 9
        assert np.max(np.abs(exact.coeffs - want)) <= 1e-12

    def test_several_cycles(self):
        exact = self.check_against_sum(long_stretched_haar(), 1e-6)
        got = sorted(sorted(np.rint(c * 15 / (2 * np.pi)).astype(int))
                     for c in exact.cycles)
        assert got == [[1, 2, 4, 8], [3, 6, 9, 12], [5, 10], [7, 11, 13, 14]]
        for cycle in exact.cycles:
            assert np.max(np.abs(exact.eval(cycle))) <= 1e-12
        assert exact.fixed_dim == 5
        want = (15 - np.abs(np.arange(-15, 16))) / 225
        assert np.max(np.abs(exact.coeffs - want)) <= 1e-12

    def test_cycle_not_closed_under_reflection(self):
        exact = self.check_against_sum(one_sided_cycle_bank(), 1e-4)
        assert exact.fixed_dim == 2
        (cycle,) = exact.cycles
        assert np.allclose(cycle, 2 * np.pi / 7 * np.array([1, 2, 4]), atol=1e-15)
        assert np.max(np.abs(exact.eval(self.T) - exact.eval(-self.T))) >= 0.5

    @pytest.mark.parametrize("bank", [modulated_d4(), corrupted_d4()],
                             ids=["modulated-d4", "corrupted-d4"])
    def test_fallback_is_the_truncated_sum(self, bank):
        assert transfer.per_exact(bank) is None
        report = per_check(bank, t_points=16, n_max=300)
        assert report == truncated_report(bank, 16, 300)
        assert not report.certified

    def test_exact_report(self):
        report = per_check(stretched_haar(), t_points=64, n_max=10**4)
        assert report.certified and not report.is_constant_1
        assert report.max_dev_from_1 == pytest.approx(0.99964, abs=1e-5)
        assert set(report.to_json()) == {"max_dev_from_1", "is_constant_1",
                                         "tail_estimate", "n_max"}
        # the two-tap bank: the QMF residual of its weight is exactly 0
        assert per_check(haar(), t_points=8, n_max=500).max_dev_from_1 == 0.0

    def test_three_band_tail_no_longer_fails(self):
        # the truncated sum deviates by 0.041 here, four times its tail estimate
        report = per_check(three_band_bank(), t_points=64, n_max=31)
        assert report.max_dev_from_1 <= 1e-12
        assert report.is_constant_1

    def test_bank_near_a_cohen_cycle_is_certified(self):
        # eigenvalue 1 - 1.2e-7 sits next to 1, so T - I has no clear singular
        # value gap; with no cycle, Cohen's test certifies PER = 1 without it
        bank = FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, [
            0.706862556282352, -0.00024405631680146257,
            0.00024422490419554095, 0.7073508375033489,
        ]))
        exact = transfer.per_exact(bank)
        assert exact is not None and exact.fixed_dim == 1 and exact.cycles == ()
        report = per_check(bank)
        assert report.certified and report.is_constant_1
        assert report.max_dev_from_1 <= 1e-12

    def test_fixed_space_vetoes_a_missed_cycle(self, monkeypatch):
        # a cycle the root test misses, such as one too long to snap (the
        # 106-cycle of (1 + z**107)/sqrt(2)), must not certify PER = 1: the
        # SVD's fixed space of dimension > 1 sends the bank to the fallback
        monkeypatch.setattr(transfer, "_cohen_cycles", lambda w, n: [])
        assert transfer.per_exact(stretched_haar()) is None
        assert not per_check(stretched_haar(), n_max=100).is_constant_1

    def test_n_max_still_validated(self):
        with pytest.raises(ValueError, match="n_max must be >= 21"):
            per_check(daubechies4(), t_points=8, n_max=20)

    def test_106_cycle_is_certified(self, monkeypatch):
        # the cycle's least point is 2 pi j / (2**106 - 1) with j near
        # 2**106 / 107, beyond a float's 53 bits; the truncated sum, seconds
        # long on this bank, must not be taken
        def no_sum(*args, **kwargs):
            raise AssertionError("per_check fell back to the truncated sum")

        monkeypatch.setattr(transfer, "per_samples", no_sum)
        bank = box_bank(107)
        report = per_check(bank)
        assert report.certified and not report.is_constant_1
        exact = transfer.per_exact(bank)
        assert [len(c) for c in exact.cycles] == [106]
        assert_hat(exact, 107)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(st.sampled_from(range(1, 128, 2)))
    def test_every_odd_box_is_decided_exactly(self, length):
        exact = transfer.per_exact(box_bank(length))
        assert exact is not None
        assert_hat(exact, length)


    def test_bank_with_a_bad_highpass_is_certified(self, monkeypatch):
        # Cohen's test reads m_0 alone: the other filters of the bank, here a
        # high-pass that fails the quadrature conditions, do not matter
        def no_sum(*args, **kwargs):
            raise AssertionError("per_check fell back to the truncated sum")

        monkeypatch.setattr(transfer, "per_samples", no_sum)
        bank = FilterBank(2, (daubechies4().lowpass, LaurentPoly.one()))
        report = per_check(bank)
        assert report.certified and report.max_dev_from_1 <= 1e-12


def cycles_from_n_minus_w(w, scale_n):
    """The Cohen cycles of W = w found from the roots of z**D (N - W(z)), a
    polynomial of degree 2 D whose roots on the unit circle are double: the
    candidate search `_cohen_cycles` made before it read the zeros of m_0,
    kept here as the oracle for the one that replaced it."""
    root_tol = transfer._ROOT_TOL
    d = max(-w.min_deg, w.max_deg)
    poly = -w.window(-d, d + 1)
    poly[d] += scale_n
    roots = np.roots(poly[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) <= root_tol]
    zeros = np.mod(-np.angle(roots), 2 * np.pi)
    zeros = [t for t in np.sort(zeros) if min(t, 2 * np.pi - t) > root_tol]
    zeros = np.array(
        [t for i, t in enumerate(zeros) if i == 0 or t - zeros[i - 1] > root_tol]
    )

    def circular(a, b):
        gap = np.abs(np.mod(a - b, 2 * np.pi))
        return np.minimum(gap, 2 * np.pi - gap)

    successor = {}
    for i, t in enumerate(zeros):
        gap = circular(zeros, scale_n * t)
        if np.min(gap) <= scale_n * root_tol:
            successor[i] = int(np.argmin(gap))
    cycles = []
    for start in successor:
        orbit = [start]
        while len(orbit) <= len(zeros) and successor.get(orbit[-1], start) != start:
            orbit.append(successor[orbit[-1]])
        if successor.get(orbit[-1]) != start or min(orbit) != start:
            continue
        x = scale_n * zeros[orbit] / (2 * np.pi)
        if np.any(np.abs(x - np.round(x)) <= scale_n * root_tol):
            continue
        j = 0
        for digit in np.floor(x).astype(int).tolist():
            j = j * scale_n + digit
        period = scale_n ** len(orbit) - 1
        snapped = np.array([float(j * scale_n**i % period) for i in range(len(orbit))])
        snapped = 2 * np.pi * snapped / period
        if np.all(np.abs(w.eval_angle(snapped) - scale_n) <= _vanishing_floor(w)):
            cycles.append(snapped)
    return cycles


def oracle_banks():
    """The 64 boxes of odd length <= 127, 207 two-band projection banks with
    0..8 factors, and 100 N = 3 and 50 N = 4 DFT-projection banks of 1..3
    factors, from a fixed seed."""
    rng = np.random.default_rng(30)
    banks = [box_bank(length) for length in range(1, 128, 2)]
    banks += [random_projection_bank(rng, k % 9) for k in range(207)]
    for n, count in ((3, 100), (4, 50)):
        for _ in range(count):
            k = int(rng.integers(1, 4))
            vectors = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            banks.append(filters_from_polyphase(dft_projection_product(n, vectors)))
    return banks


class TestZerosOfTheLowpass:
    """`per_exact` reads m_0 alone.  Against the bank-wide sampled check and
    the roots of N - W it replaced, on the same banks: the zeros of m_0 give
    bitwise the same cycles, and the coefficient precondition
    sum_k |w_{N k} - delta_k| <= TOL accepts every bank `check_qmf` passed."""

    BANKS = oracle_banks()

    def test_same_cycles_as_the_roots_of_n_minus_w(self):
        with_cycles = 0
        for bank in self.BANKS:
            n = bank.scale_n
            want = cycles_from_n_minus_w(weight_from_lowpass(bank.lowpass), n)
            got = transfer._cohen_cycles(bank.lowpass, n)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            with_cycles += bool(got)
        # every box but the two-tap one has cycles; the other banks have none
        assert with_cycles == 63

    def test_coefficient_precondition_accepts_what_check_qmf_passed(self, monkeypatch):
        # with no cycles and no fixed space, per_exact refuses only by a
        # precondition
        monkeypatch.setattr(transfer, "_cohen_cycles", lambda m0, n: [])
        monkeypatch.setattr(transfer, "_fixed_space", lambda spec: None)
        for bank in self.BANKS:
            grid = max(GRID_SIZE, 2 * _polyphase_span(bank)[1] + 1)
            assert check_qmf(bank, grid).passed
            assert transfer.per_exact(bank) is not None


class TestTailPolynomial:
    @pytest.mark.parametrize(
        "bank, n_max",
        [(daubechies4(), 10**4), (modulated_d4(), 300), (stretched_haar(), 10**4),
         (three_band_bank(), 7)],
        ids=["d4", "modulated-d4", "stretched", "three-band"],
    )
    def test_matches_product_of_its_factors(self, bank, n_max):
        cos_c, sin_c = _weight_series(bank)
        n = bank.scale_n
        direct, coeffs = _tail_plan(cos_c, sin_c, n, 2 * np.pi * (n_max + 1), 40)
        assert 0 < direct < 40 and coeffs is not None
        rho = transfer._TAIL_OMEGA_RHO * (n - 1) / ((len(cos_c) - 1) * n)
        theta = np.linspace(-rho, rho, 201)
        # the 40 - direct factors W(theta / N**i) / N, i = 0, 1, ..., each
        # summed from its cosine and sine series in long double
        j = np.arange(len(cos_c))
        want = np.ones(theta.size, dtype=np.longdouble)
        for i in range(40 - direct):
            arg = theta.astype(np.longdouble)[:, None] / np.longdouble(n) ** i * j
            factor = np.cos(arg) @ cos_c.astype(np.longdouble)
            if sin_c is not None:
                factor += np.sin(arg[:, 1:]) @ sin_c.astype(np.longdouble)
            want *= factor
        got = _horner(coeffs, theta, np.empty_like(theta))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_even_weight_gives_even_polynomial(self):
        cos_c, sin_c = _weight_series(daubechies4())
        _, coeffs = _tail_plan(cos_c, sin_c, 2, 2 * np.pi * 10**4, 40)
        assert not coeffs[1::2].any()
        cos_c, sin_c = _weight_series(modulated_d4())
        _, coeffs = _tail_plan(cos_c, sin_c, 2, 2 * np.pi * 10**4, 40)
        assert coeffs[1::2].any()


@st.composite
def projection_banks(draw, modulated=True):
    """Two-band projection banks with 0..4 factors, the low-pass optionally
    modulated by exp(1j*alpha*k) (never when modulated is false)."""
    params = draw(st.lists(
        st.builds(
            ProjectionParam,
            st.floats(0.0, 1.0),
            st.floats(0.0, 2 * np.pi, exclude_max=True),
        ),
        max_size=4,
    ))
    bank = bank_from_projections(params)
    if not modulated:
        return bank
    alpha = draw(st.one_of(st.none(), st.floats(-np.pi, np.pi)))
    return bank if alpha is None else modulate(bank, alpha)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    bank=projection_banks(),
    t=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    n_max=st.integers(1, 60),
    k_terms=st.integers(1, 40),
)
def test_per_samples_matches_complex_product(bank, t, n_max, k_terms):
    got = per_samples(bank, np.array(t), n_max=n_max, k_terms=k_terms)
    want = per_by_complex_product(bank, np.array(t), n_max, k_terms)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bank=projection_banks(modulated=False))
def test_exact_per_is_the_periodization(bank):
    # ONB <=> no Cohen cycle: the exact PER is a nonnegative fixed point of R
    # with PER(0) = 1, and it is constant 1 just when the fixed space is a line.
    # Banks near a cycle, whose fixed space has no clear singular-value gap,
    # have no exact PER (per_check sums them instead).
    exact = transfer.per_exact(bank)
    assume(exact is not None)
    m, n = 32, bank.scale_n
    fine = exact.eval(2 * np.pi * np.arange(n * m) / (n * m))
    assert fixed_point_check(bank, fine, m) <= 1e-12
    assert np.min(fine) >= -1e-12
    assert abs(exact.eval(0.0) - 1.0) <= 1e-12
    assert per_check(bank).is_constant_1 == (exact.fixed_dim == 1)


class TestFixedPoint:
    def test_trivial_weight(self):
        bank = FilterBank(2, (LaurentPoly.one(), LaurentPoly.one()))
        m = 16
        f = np.ones(2 * m)
        assert fixed_point_check(bank, f, m) == 0.0

    def test_haar_with_exact_periodization(self):
        # the exact periodization of the two-tap bank is the constant 1
        m = 64
        f = np.ones(2 * m)
        assert fixed_point_check(haar(), f, m) <= 1e-12

    def test_d4_with_truncated_periodization(self):
        m = 32
        bank = daubechies4()
        u = 2 * np.pi * np.arange(2 * m) / (2 * m)
        f = per_samples(bank, u, n_max=2000)
        assert fixed_point_check(bank, f, m) <= 1e-3

    def test_sample_count_checked(self):
        with pytest.raises(ValueError):
            fixed_point_check(haar(), np.ones(33), 16)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: TransferSpec(LaurentPoly.one(), 1, 1), "scale number must be >= 2"),
        (lambda: fixed_point_check(haar(), np.ones(33)),
         "fine sample count must be a multiple of the scale number"),
    ],
    ids=["scale-one", "odd-sample-count"],
)
def test_refusal(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
