import gc
import weakref

import numpy as np
import pytest

from helpers import (
    haar,
    random_four_tap_bank,
    random_matrix_poly,
    random_partition,
    random_poly,
    random_projection_bank,
    random_signal,
)
from wavebank.design import daubechies4, dft_matrix
from wavebank.filterbank import FilterBank, check_qmf, dual_filters, filters_from_polyphase
from wavebank.laurent import LaurentPoly, MatLaurentPoly
from wavebank.operators import (
    InvalidPartitionError,
    PacketPartition,
    PyramidDecomposition,
    Signal,
    analyze,
    build_big_unitary,
    convolve_poly,
    downsample,
    inner,
    packet_decompose,
    packet_energy,
    packet_reconstruct,
    pyramid_decompose,
    pyramid_reconstruct,
    synthesize,
    upsample,
)


class TestSampling:
    def test_downsample_keeps_multiples(self):
        c = Signal.from_samples(0, [1, 2, 3, 4])
        d = downsample(c, 2)
        assert d.offset == 0 and d.samples == (1, 3)

    def test_downsample_respects_absolute_indices(self):
        c = Signal.from_samples(-3, [1, 2, 3, 4, 5])
        d = downsample(c, 2)  # keeps indices -2, 0
        assert d.offset == -1 and d.samples == (2, 4)

    def test_upsample_inserts_zeros(self):
        c = Signal.from_samples(0, [1, 2])
        u = upsample(c, 2)
        assert u.offset == 0 and u.samples == (1, 0, 2)

    def test_up_down_section_identity(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            c = random_signal(rng, 9, offset=int(rng.integers(-4, 4)))
            back = downsample(upsample(c, n), n)
            assert back.offset == c.offset and back.samples == c.samples

    def test_adjointness_exact(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            c = random_signal(rng, 8, offset=-3)
            d = random_signal(rng, 20, offset=-7)
            lhs = inner(upsample(c, n), d)
            rhs = inner(c, downsample(d, n))
            assert lhs == rhs


class TestSignalStorage:
    def test_stored_array_is_read_only(self):
        c = Signal.from_samples(2, np.array([1.0, 2.0 - 1j, 3.0]))
        with pytest.raises(ValueError):
            c.sample_array()[0] = 5.0
        with pytest.raises(ValueError):
            downsample(c, 2).sample_array()[0] = 5.0

    def test_input_array_is_copied(self):
        src = np.array([1.0, 2.0, 3.0], dtype=complex)
        c = Signal.from_samples(0, src)
        src[0] = 9.0
        assert c.samples == (1.0, 2.0, 3.0)

    def test_equal_along_different_paths(self):
        a = Signal.from_samples(0, [0.0, 1.0, 0.0, 3.0, 0.0])
        b = Signal.from_samples(1, [1.0, 0.0, 3.0]).scale(2.0).scale(0.5)
        c = downsample(upsample(b, 3), 3)
        d = Signal.impulse(1) + Signal.from_samples(2, [-0.0, 3.0]).scale(-1.0).scale(-1.0)
        for other in (b, c, d):
            assert a == other and hash(a) == hash(other)
        assert len({a, b, c, d}) == 1
        assert a != Signal.from_samples(0, [1.0, 0.0, 3.0])
        assert Signal.from_samples(0, [0.0, 0.0]) == Signal.zero()

    def test_signed_zero_samples_hash_alike(self):
        a = Signal.from_samples(0, [1.0, complex(0.0, -0.0), 1.0])
        b = Signal.from_samples(0, [1.0, 0.0, 1.0])
        assert a == b and hash(a) == hash(b)

    def test_accepts_generators_lists_and_arrays(self):
        want = Signal.from_samples(-2, [1.0, 2.0j, 3.0])
        assert Signal.from_samples(-2, (v for v in [1.0, 2.0j, 3.0])) == want
        assert Signal.from_samples(-2, np.array([1.0, 2.0j, 3.0])) == want
        assert Signal.from_samples(-2, (1, 2j, 3)) == want
        assert Signal.from_samples(-2, iter([0, 1.0, 2.0j, 3.0, 0])).offset == -1

    def test_trim_is_exact_zeros_only(self):
        c = Signal.from_samples(0, [0.0, 1e-300, 1.0, 0.0])
        assert c.offset == 1 and c.samples == (1e-300, 1.0)
        nan = Signal.from_samples(0, [np.nan, 0.0])
        assert nan.offset == 0 and len(nan.samples) == 1


class TestLaurentStorage:
    def test_stored_arrays_are_read_only(self):
        p = LaurentPoly.from_coeffs(-1, np.array([1.0, 2.0 - 1j, 3.0]))
        for q in (p, p.adjoint(), p * p, p.shift(2), -p):
            with pytest.raises(ValueError):
                q.data[0] = 5.0

    def test_input_array_is_copied(self):
        src = np.array([1.0, 2.0, 3.0], dtype=complex)
        p = LaurentPoly.from_coeffs(0, src)
        src[0] = 9.0
        assert p.coeffs == (1.0, 2.0, 3.0)
        mats = np.ones((2, 2, 2), dtype=complex)
        A = MatLaurentPoly.from_coeffs(0, mats)
        mats[0] = 9.0
        assert np.array_equal(A.coeffs, np.ones((2, 2, 2)))

    def test_equal_along_different_paths(self):
        p = LaurentPoly.from_coeffs(-3, [1 + 2j, 0.5, -1j, 2.0])
        others = (
            p.adjoint().adjoint(),
            p.shift(0),
            LaurentPoly.from_coeffs(-4, [1e-16, 1 + 2j, 0.5, -1j, 2.0, 0.0]),
            p + LaurentPoly.zero(),
            LaurentPoly.from_json(p.to_json()),
        )
        for q in others:
            assert p == q and hash(p) == hash(q)
        assert len({p, *others}) == 1
        assert p != p.shift(1) and p != p.scale(2.0)
        assert LaurentPoly.from_coeffs(3, [0.0, 1e-15]) == LaurentPoly.zero()

    def test_signed_zero_coefficients_hash_alike(self):
        a = LaurentPoly.from_coeffs(0, [1.0, complex(-0.0, -0.0), 1.0])
        b = LaurentPoly.from_coeffs(0, [1.0, 0.0, 1.0])
        assert a == b and hash(a) == hash(b)

    def test_nan_end_coefficients_are_kept(self):
        p = LaurentPoly.from_coeffs(-1, [np.nan, 1.0, 1e-20])
        assert p.min_deg == -1 and p.span == 1 and np.isnan(p.data[0])
        mats = np.zeros((3, 2, 2))
        mats[2, 1, 0] = np.nan
        A = MatLaurentPoly.from_coeffs(0, mats)
        assert A.min_deg == 2 and A.span == 0 and not A.is_zero

    def test_matrix_coeffs_are_one_read_only_array(self):
        A = MatLaurentPoly.from_coeffs(-1, [np.eye(3), np.ones((3, 3)), 2 * np.eye(3)])
        for B in (A, A * A, A.adjoint(), A + A, A * LaurentPoly.monomial(2, 1j)):
            assert isinstance(B.coeffs, np.ndarray)
            assert B.coeffs.shape == (B.span + 1, 3, 3)
            with pytest.raises(ValueError):
                B.coeffs[0, 0, 0] = 5.0

    def test_matrix_equality_and_hash_are_by_value(self):
        # comparing the dataclass's array field with == raised ValueError
        A = MatLaurentPoly.identity(2)
        assert A == MatLaurentPoly.identity(2)
        assert hash(A) == hash(MatLaurentPoly.identity(2))
        mats = [np.eye(2), np.array([[1.0, complex(-0.0, -0.0)], [2j, 0.5]])]
        B = MatLaurentPoly.from_coeffs(-1, mats)
        others = (
            B.adjoint().adjoint(),
            B + MatLaurentPoly.from_constant(np.zeros((2, 2))),
            MatLaurentPoly.from_coeffs(-2, [1e-16 * np.eye(2), *mats]),
        )
        for C in others:
            assert B == C and hash(B) == hash(C)
        assert len({B, *others}) == 1
        assert A != MatLaurentPoly.identity(3)
        assert B != B * LaurentPoly.monomial(1) and A != LaurentPoly.one()

    def test_matrix_product_matches_double_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = random_matrix_poly(rng, n)
            B = random_matrix_poly(rng, n)
            want = np.zeros((A.span + B.span + 1, n, n), dtype=complex)
            for a, ma in enumerate(A.coeffs):
                for b, mb in enumerate(B.coeffs):
                    want[a + b] += ma @ mb
            got = A * B
            assert got.min_deg == A.min_deg + B.min_deg
            assert np.array_equal(got.coeffs, want)

    def test_scalar_polynomial_product_matches_double_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            A = random_matrix_poly(rng, n)
            p = random_poly(rng, length_range=(1, 6))
            want = np.zeros((A.span + p.span + 1, n, n), dtype=complex)
            for a, ma in enumerate(A.coeffs):
                for b, cb in enumerate(p.coeffs):
                    want[a + b] += ma * cb
            for got in (A * p, p * A):
                assert got.min_deg == A.min_deg + p.min_deg
                assert np.array_equal(got.coeffs, want)


class TestAnalyzeSynthesize:
    def test_haar_two_point_split(self):
        c = Signal.from_samples(0, [3.0, 1.0])
        coarse, detail = analyze(c, haar())
        assert coarse.samples == (pytest.approx(4.0 / np.sqrt(2)),)
        assert detail.samples == (pytest.approx(2.0 / np.sqrt(2)),)
        assert coarse.offset == 0 and detail.offset == 0

    def test_zero_in_zero_out(self):
        bands = analyze(Signal.zero(), daubechies4())
        assert all(b.is_zero for b in bands)

    def test_impulse_response_splits_coefficients(self):
        bank = daubechies4()
        bands = analyze(Signal.impulse(0), bank)
        for j, band in enumerate(bands):
            f = bank.filters[j]
            # (S_j* delta_0)_n = conj(a_{-Nn})
            for n in range(-3, 3):
                assert band.at(n) == pytest.approx(np.conj(f.coeff(-2 * n)))

    def test_haar_round_trip_exact(self):
        rng = np.random.default_rng(2)
        c = random_signal(rng, 16)
        back = synthesize(analyze(c, haar()), haar())
        assert (back - c).norm() <= 1e-14

    def test_zero_bands_give_zero(self):
        assert synthesize([Signal.zero(), Signal.zero()], haar()).is_zero

    def test_band_count_checked(self):
        with pytest.raises(ValueError):
            synthesize([Signal.zero()], haar())

    def test_biorthogonal_round_trip(self):
        from helpers import random_monomial_det_matrix

        rng = np.random.default_rng(3)
        pair = dual_filters(random_monomial_det_matrix(rng))
        c = random_signal(rng, 32)
        # analyze with dual, synthesize with primal (and the reverse)
        rec1 = synthesize(analyze(c, pair.dual), pair.primal)
        rec2 = synthesize(analyze(c, pair.primal), pair.dual)
        assert (rec1 - c).norm() <= 1e-9
        assert (rec2 - c).norm() <= 1e-9

    def test_band_adjointness_and_isometry(self):
        rng = np.random.default_rng(4)
        bank = daubechies4()
        c = random_signal(rng, 12)
        d = random_signal(rng, 7)
        for j, f in enumerate(bank.filters):
            band = analyze(c, bank)[j]
            synth = convolve_poly(upsample(d, 2), f)
            assert inner(band, d) == pytest.approx(inner(c, synth), abs=1e-12)
            assert synth.norm() == pytest.approx(d.norm(), abs=1e-12)

    def test_cuntz_completeness(self):
        rng = np.random.default_rng(5)
        bank = random_projection_bank(rng, 3)
        c = random_signal(rng, 20)
        bands = analyze(c, bank)
        total = Signal.zero()
        for j, band in enumerate(bands):
            keep = [Signal.zero()] * bank.scale_n
            keep[j] = band
            total = total + synthesize(keep, bank)
        assert (total - c).norm() <= 1e-10


class TestPyramid:
    def test_one_level_is_analyze(self):
        rng = np.random.default_rng(6)
        c = random_signal(rng, 10)
        dec = pyramid_decompose(c, haar(), 1)
        bands = analyze(c, haar())
        assert (dec.coarse - bands[0]).is_zero
        assert (dec.details[0][0] - bands[1]).is_zero

    def test_haar_constant_ones(self):
        c = Signal.from_samples(0, np.ones(8))
        dec = pyramid_decompose(c, haar(), 3)
        assert dec.coarse.samples == (pytest.approx(2 * np.sqrt(2)),)
        assert dec.coarse.offset == 0
        assert all(d.norm() <= 1e-15 for level in dec.details for d in level)

    def test_d4_round_trip_and_energy(self):
        rng = np.random.default_rng(7)
        c = random_signal(rng, 64)
        dec = pyramid_decompose(c, daubechies4(), 4)
        assert dec.total_energy() == pytest.approx(c.energy(), abs=1e-10)
        back = pyramid_reconstruct(dec, daubechies4())
        assert (back - c).norm() <= 1e-10

    def test_wavelet_partition_matches_pyramid(self):
        rng = np.random.default_rng(13)
        c = random_signal(rng, 40)
        bank = daubechies4()
        depth = 3
        leaves = packet_decompose(c, bank, PacketPartition.wavelet(depth))
        dec = pyramid_decompose(c, bank, depth)
        assert (leaves[(depth, 0)] - dec.coarse).is_zero
        for level in range(1, depth + 1):
            assert (leaves[(level, 1)] - dec.details[level - 1][0]).is_zero

    def test_three_band_pyramid_round_trip(self):
        from wavebank.design import dft_matrix
        from wavebank.filterbank import filters_from_polyphase
        from wavebank.laurent import MatLaurentPoly

        bank3 = filters_from_polyphase(MatLaurentPoly.from_constant(dft_matrix(3)))
        rng = np.random.default_rng(14)
        c = random_signal(rng, 81)
        dec = pyramid_decompose(c, bank3, 3)
        assert len(dec.details[0]) == 2
        assert dec.total_energy() == pytest.approx(c.energy(), abs=1e-10)
        back = pyramid_reconstruct(dec, bank3)
        assert (back - c).norm() <= 1e-10

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            pyramid_decompose(Signal.impulse(), haar(), 0)

    @pytest.mark.parametrize("n_bands, levels", [(2, 1), (2, 5), (3, 3)])
    def test_same_bands_as_the_level_loop(self, n_bands, levels):
        # the pyramid read from the wavelet partition's leaves, against the
        # loop that splits the coarse band levels times, bitwise both ways
        bank = daubechies4() if n_bands == 2 else filters_from_polyphase(
            MatLaurentPoly.from_constant(dft_matrix(3)))
        c = random_signal(np.random.default_rng(levels), 50, offset=-7)
        dec = pyramid_decompose(c, bank, levels)
        coarse, details = c, []
        for _ in range(levels):
            coarse, *rest = analyze(coarse, bank)
            details.append(tuple(rest))
        assert dec.coarse == coarse and dec.details == tuple(details)
        back = dec.coarse
        for level in reversed(details):
            back = synthesize([back, *level], bank)
        assert pyramid_reconstruct(dec, bank) == back

    def test_no_details_reconstructs_the_coarse_band(self):
        c = random_signal(np.random.default_rng(5), 9)
        assert pyramid_reconstruct(PyramidDecomposition(c, ()), haar()) is c

    @pytest.mark.parametrize("count", [0, 2])
    def test_wrong_detail_count_rejected(self, count):
        c = random_signal(np.random.default_rng(5), 9)
        dec = PyramidDecomposition(c, ((c,) * count,))
        with pytest.raises(ValueError, match="expected 1 detail bands at each level"):
            pyramid_reconstruct(dec, haar())


def hadamard(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return H


class TestPackets:
    def test_signals_are_freed_without_the_cycle_collector(self):
        # no reference cycle keeps a leaf alive once its map is dropped, so
        # its memory comes back at once, not at the next gc pass
        partition = PacketPartition.wavelet(4)
        c = random_signal(np.random.default_rng(3), 64)
        gc.disable()
        try:
            leaves = packet_decompose(c, daubechies4(), partition)
            refs = [weakref.ref(s) for s in leaves.values()]
            packet_reconstruct(leaves, daubechies4(), partition)
            del leaves
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_trivial_partition_is_analyze(self):
        rng = np.random.default_rng(8)
        c = random_signal(rng, 10)
        leaves = packet_decompose(c, haar(), PacketPartition.from_leaves([(1, 0), (1, 1)]))
        bands = analyze(c, haar())
        assert (leaves[(1, 0)] - bands[0]).is_zero
        assert (leaves[(1, 1)] - bands[1]).is_zero

    def test_full_depth_three_haar_is_walsh_hadamard(self):
        partition = PacketPartition.full(3)
        T = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            leaves = packet_decompose(Signal.impulse(col), haar(), partition)
            for n in range(8):
                T[n, col] = leaves[(3, n)].at(0)
        # band labels are most-significant-digit-first, so rows appear in
        # bit-reversed order relative to the Sylvester-Hadamard construction
        bitrev = [int(f"{n:03b}"[::-1], 2) for n in range(8)]
        assert np.max(np.abs(T - hadamard(8)[bitrev] / (2 * np.sqrt(2)))) <= 1e-12

    def test_mixed_partition_round_trip(self):
        rng = np.random.default_rng(9)
        partition = PacketPartition.from_leaves([(1, 1), (2, 0), (2, 1)])
        c = random_signal(rng, 64)
        leaves = packet_decompose(c, daubechies4(), partition)
        assert set(leaves) == {(1, 1), (2, 0), (2, 1)}
        back = packet_reconstruct(leaves, daubechies4(), partition)
        assert (back - c).norm() <= 1e-10

    def test_energy_preserved_on_random_partitions(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            partition = random_partition(rng, depth=4)
            c = random_signal(rng, 48)
            leaves = packet_decompose(c, haar(), partition)
            assert packet_energy(leaves) == pytest.approx(c.energy(), abs=1e-10)

    def test_three_band_partition(self):
        rng = np.random.default_rng(11)
        bank = random_projection_bank(rng, 2)  # N = 2 only designs; build N=3 by hand
        from wavebank.filterbank import filters_from_polyphase
        from wavebank.laurent import MatLaurentPoly

        from wavebank.design import dft_matrix

        bank3 = filters_from_polyphase(MatLaurentPoly.from_constant(dft_matrix(3)))
        partition = PacketPartition.from_leaves([(1, 0), (1, 1), (2, 6), (2, 7), (2, 8)])
        c = random_signal(rng, 27)
        leaves = packet_decompose(c, bank3, partition)
        assert packet_energy(leaves) == pytest.approx(c.energy(), abs=1e-10)
        back = packet_reconstruct(leaves, bank3, partition)
        assert (back - c).norm() <= 1e-10

    def test_invalid_partitions_report_blocks(self):
        partition = PacketPartition.from_leaves([(1, 0)])
        with pytest.raises(InvalidPartitionError, match="missing"):
            partition.validate(2)
        partition = PacketPartition.from_leaves([(1, 0), (1, 1), (2, 0)])
        with pytest.raises(InvalidPartitionError, match="overlapping"):
            partition.validate(2)
        with pytest.raises(InvalidPartitionError, match="out of range"):
            PacketPartition.from_leaves([(1, 2)]).validate(2)

    def test_validate_needs_no_counter_per_index(self):
        # the depth-64 leaf made the old rule allocate 2**64 counters
        with pytest.raises(InvalidPartitionError, match=r"missing index blocks \[1, 2, "):
            PacketPartition.from_leaves([(1, 1), (64, 0)]).validate(2)
        chain = PacketPartition.from_leaves([(k, 1) for k in range(1, 41)] + [(40, 0)])
        assert chain.validate(2) == 40

    def test_validate_lists_match_the_counter_rule(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            scale_n = int(rng.integers(2, 4))
            if rng.uniform() < 0.3:
                partition = random_partition(rng, int(rng.integers(1, 5)), scale_n)
            else:
                leaves = set()
                for _ in range(int(rng.integers(1, 12))):
                    k = int(rng.integers(1, 5))
                    leaves.add((k, int(rng.integers(0, scale_n**k))))
                partition = PacketPartition.from_leaves(leaves)
            overlapping, missing = counter_rule(partition, scale_n)
            if overlapping or missing:
                with pytest.raises(InvalidPartitionError) as err:
                    partition.validate(scale_n)
                assert f"overlapping index blocks {overlapping}, " in str(err.value)
                assert f"missing index blocks {missing} " in str(err.value)
            else:
                assert partition.validate(scale_n) == partition.depth


def counter_rule(partition, scale_n):
    """The first 8 overlapping and missing indices by the rule validate used
    before: one counter per index at the partition's depth."""
    d = partition.depth
    counts = np.zeros(scale_n**d, dtype=int)
    for k, n in partition.leaves:
        width = scale_n ** (d - k)
        counts[n * width : (n + 1) * width] += 1
    return np.nonzero(counts > 1)[0].tolist()[:8], np.nonzero(counts == 0)[0].tolist()[:8]


class TestBigUnitary:
    def test_haar_rejected_for_tap_count(self):
        with pytest.raises(ValueError, match="taps"):
            build_big_unitary(haar())

    def test_d4_matches_explicit_layout(self):
        bank = daubechies4()
        a = bank.coefficients(0)
        b = bank.coefficients(1)
        U = build_big_unitary(bank)
        expect = np.array(
            [
                [a[1], a[2], a[3], 0, 0, 0, 0, a[0]],
                [b[1], b[2], b[3], 0, 0, 0, 0, b[0]],
                [0, a[0], a[1], a[2], a[3], 0, 0, 0],
                [0, b[0], b[1], b[2], b[3], 0, 0, 0],
                [0, 0, 0, a[0], a[1], a[2], a[3], 0],
                [0, 0, 0, b[0], b[1], b[2], b[3], 0],
                [a[3], 0, 0, 0, 0, a[0], a[1], a[2]],
                [b[3], 0, 0, 0, 0, b[0], b[1], b[2]],
            ]
        )
        assert U.shape == (8, 8)
        assert np.max(np.abs(U - expect)) <= 1e-15
        assert np.max(np.abs(np.conj(U).T @ U - np.eye(8))) <= 1e-12

    def test_random_four_tap_banks_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            bank = random_four_tap_bank(rng)
            U = build_big_unitary(bank)
            assert np.max(np.abs(np.conj(U).T @ U - np.eye(8))) <= 1e-12

    def test_six_tap_size(self):
        from wavebank.design import six_tap_from_angles

        bank = six_tap_from_angles(0.3, 1.1)
        U = build_big_unitary(bank)
        assert U.shape == (16, 16)
        assert np.max(np.abs(np.conj(U).T @ U - np.eye(16))) <= 1e-12

    def test_broken_bank_is_not_unitary(self):
        m0 = LaurentPoly.from_coeffs(0, [0.9, 0.1, 0.2, 0.4])
        bank = FilterBank.from_lowpass(m0)
        assert not check_qmf(bank).passed
        U = build_big_unitary(bank)
        assert np.max(np.abs(np.conj(U).T @ U - np.eye(8))) > 1e-6


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: downsample(Signal.impulse(), 1), "sampling factor must be >= 2"),
        (lambda: upsample(Signal.impulse(), 1), "sampling factor must be >= 2"),
        (lambda: build_big_unitary(
            filters_from_polyphase(MatLaurentPoly.identity(3))), "two-band banks"),
        (lambda: build_big_unitary(FilterBank(2, (
            LaurentPoly.from_coeffs(-1, [0.5, 0.5, 0.5, 0.5]), LaurentPoly.one()))),
         "low-pass filter must be supported on exactly 0..2n[+]1"),
        (lambda: build_big_unitary(haar()), "need exactly 2n[+]2 taps with n >= 1; got 2"),
        (lambda: build_big_unitary(FilterBank(2, (
            daubechies4().lowpass, LaurentPoly.from_coeffs(4, [1.0])))),
         "high-pass support must lie inside 0..2n[+]1"),
    ],
    ids=["downsample-by-1", "upsample-by-1", "three-band", "lowpass-below-0",
         "two-taps", "highpass-beyond"],
)
def test_refusal(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
