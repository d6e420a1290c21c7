"""Shared generators for randomized test corpora (all seeded by the caller)."""

import math

import numpy as np

from wavebank.design import (
    LiftingStep,
    ProjectionParam,
    bank_from_projections,
    dft_matrix,
    general_factor,
)
from wavebank.filterbank import FilterBank
from wavebank.laurent import LaurentPoly, MatLaurentPoly
from wavebank.operators import PacketPartition, Signal


def haar():
    return FilterBank.haar()


def stretched_haar():
    """Low-pass (1 + z**3)/sqrt(2): passes the quadrature check but its
    translates fail orthonormality (the classic non-ONB example)."""
    return FilterBank.from_lowpass(
        LaurentPoly.from_coeffs(0, [2**-0.5, 0.0, 0.0, 2**-0.5])
    )


def random_params(rng, k):
    return [
        ProjectionParam(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(k)
    ]


def random_projection_bank(rng, k):
    return bank_from_projections(random_params(rng, k))


def dft_projection_product(n, vectors):
    """dft_matrix(n) * prod_v (1 - P_v + z*P_v) for the rank-one projections
    P_v onto the nonzero vectors v of C^n: unitary on the torus, with
    determinant det(dft_matrix(n)) * z**len(vectors)."""
    A = MatLaurentPoly.from_constant(dft_matrix(n))
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        A = A * general_factor(np.outer(v, np.conj(v)) / np.vdot(v, v).real)
    return A


def random_four_tap_bank(rng):
    """k = 1 projection design with full four-tap support (redrawn if an
    endpoint tap degenerates)."""
    while True:
        params = [
            ProjectionParam(
                float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2 * math.pi - 0.1))
            )
        ]
        bank = bank_from_projections(params)
        m0 = bank.lowpass
        if m0.min_deg == 0 and len(m0.coeffs) == 4:
            return bank


def random_poly(rng, min_deg_range=(-2, 2), length_range=(1, 3), complex_coeffs=True):
    lo = int(rng.integers(*min_deg_range))
    n = int(rng.integers(length_range[0], length_range[1] + 1))
    coeffs = rng.normal(size=n)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.normal(size=n)
    return LaurentPoly.from_coeffs(lo, coeffs)


def random_matrix_poly(rng, n, min_deg_range=(-3, 4), length_range=(1, 6)):
    lo = int(rng.integers(*min_deg_range))
    length = int(rng.integers(length_range[0], length_range[1] + 1))
    mats = rng.normal(size=(length, n, n)) + 1j * rng.normal(size=(length, n, n))
    return MatLaurentPoly.from_coeffs(lo, mats)


def random_lifting_steps(rng, n_steps=6, min_deg_range=(-1, 2), max_len=2):
    steps = [LiftingStep("diag", k_const=complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)))]
    for i in range(n_steps):
        kind = "lower" if i % 2 == 0 else "upper"
        lo = int(rng.integers(*min_deg_range))
        n = int(rng.integers(1, max_len + 1))
        poly = LaurentPoly.from_coeffs(lo, rng.normal(size=n) + 1j * rng.normal(size=n))
        steps.append(LiftingStep(kind, poly=poly))
    return steps


def random_sl2_product(rng, max_steps=6, max_span=4):
    """Random lifting-step product with matrix degree span <= max_span
    (resampled until the span bound holds)."""
    from wavebank.design import lifting_recompose

    while True:
        steps = random_lifting_steps(rng, int(rng.integers(1, max_steps + 1)))
        A = lifting_recompose(steps)
        if A.span <= max_span:
            return steps, A


def random_monomial_det_matrix(rng, max_shear_deg=1):
    """Random invertible 2x2 matrix Laurent polynomial with monomial
    determinant and degree span <= 3."""
    while True:
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(c)) > 0.3:
            break
    A = MatLaurentPoly.from_constant(c)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    l = random_poly(rng, (0, max_shear_deg), (1, 2))
    u = random_poly(rng, (0, max_shear_deg), (1, 2))
    A = A * MatLaurentPoly.from_entries([[one, zero], [l, one]])
    p = int(rng.integers(0, 2))
    A = A * MatLaurentPoly.from_entries(
        [[LaurentPoly.monomial(p), zero], [zero, one]]
    )
    A = A * MatLaurentPoly.from_entries([[one, u], [zero, one]])
    return A


def random_partition(rng, depth, scale_n=2):
    """Random packet partition: split each node with probability 1/2 until depth
    (the root is always split, so every leaf has k >= 1)."""

    leaves = []

    def walk(k, n):
        if k >= depth or (k >= 1 and rng.uniform() < 0.5):
            leaves.append((k, n))
            return
        for band in range(scale_n):
            walk(k + 1, n * scale_n + band)

    walk(0, 0)
    return PacketPartition.from_leaves(leaves)


def random_signal(rng, length, offset=0):
    data = rng.normal(size=length) + 1j * rng.normal(size=length)
    return Signal.from_samples(offset, data)
