"""Transfer operator R_W, its adjoint subdivision operator, truncated spectra,
and the periodization diagnostics that decide ONB versus mere tight frame.

For a Laurent-polynomial weight W with coefficients c_k, the transfer
operator acts on Fourier coefficients as (R_W f)_n = sum_k c_{N n - k} f_k
and its adjoint as (R_W* f)_n = sum_k conj(c_{N k - n}) f_k.  With
D = max(|min_deg|, max_deg) of W, the mode window |n| <= ceil(D/(N-1)) is
invariant under R_W (|N n - k| <= D and |k| <= m force |n| <= m), so the
finite matrix on that window represents R_W without truncation leakage.

The orthogonality diagnostic: translates of the scaling function are
orthonormal exactly when PER(|phihat|^2)(t) = sum_n |phihat(t + 2*pi*n)|^2
is identically 1, and equivalently (generically) when the truncated
transfer matrix of W = |m_0|^2 has peripheral spectrum {1} with a simple
eigenvalue 1.

PER is a trigonometric polynomial, PER(t) = sum_k a_k exp(-i k t), whose
coefficients (the autocorrelation of the scaling function) lie in the
invariant window and form a fixed vector of R_W.  For a QMF bank with
|m_0(1)|^2 = N, `per_exact` reads a off the fixed space of the window
matrix: a simple eigenvalue 1 gives a = delta_0 (Lawton), and every further
fixed vector comes with a cycle of t -> N t on which W = N and PER = 0
(Cohen), which pins a down.  `per_check` uses that exact polynomial, and
falls back to the truncated sum below when a precondition fails or the
fixed space or the cycles cannot be certified.

The fallback periodization is the truncated sum over |n| <= n_max of the K-term
product |phihat(s)|^2 = prod_{k=1..K} W(s / N**k) / N, s = t + 2*pi*n.  W is
a real trigonometric polynomial, W(theta)/N = sum_j a_j cos(j theta) +
b_j sin(j theta), so each factor is a Chebyshev series in cos(theta) summed
by Clenshaw's recurrence, all in float64.  The (t, n) pairs run through
fixed-size blocks, so memory does not grow with n_max.

Only the first factors need that: once every argument s / N**k is small,
the remaining factors are the product of shifted copies of one entire
function, and their product is replaced by its Taylor polynomial in
s / N**(direct + 1).  The split point and the degree come from a rigorous
remainder bound (at most 1e-17, see `_tail_plan`); when no degree up to 64
meets it, every factor is evaluated pointwise as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .defaults import K_TERMS, N_MAX, PF_TOL
from .filterbank import FilterBank, _polyphase_span, check_qmf
from .laurent import DEFAULT_GRID, DEFAULT_TOL, LaurentPoly


def weight_from_lowpass(m0: LaurentPoly) -> LaurentPoly:
    """W = |m_0|^2 = m_0 * adjoint(m_0), the orthogonal-type transfer weight."""
    return m0 * m0.adjoint()


def min_band(w: LaurentPoly, scale_n: int) -> int:
    """Smallest invariant mode window for weight w under scaling by N."""
    if w.is_zero:
        return 1
    d = max(abs(w.min_deg), abs(w.max_deg))
    return max(math.ceil(d / (scale_n - 1)), 1)


@dataclass(frozen=True)
class TransferSpec:
    """Weight, scale number, and Fourier-mode cutoff for the truncated operator."""

    w: LaurentPoly
    scale_n: int
    band_m: int

    def __post_init__(self):
        if self.scale_n < 2:
            raise ValueError("scale number must be >= 2")
        required = min_band(self.w, self.scale_n)
        if self.band_m < required:
            raise ValueError(
                f"band_m {self.band_m} too small; the invariant window needs "
                f"band_m >= {required}"
            )

    @staticmethod
    def from_weight(
        w: LaurentPoly,
        scale_n: int,
        band_m: Optional[int] = None,
        require_nonnegative: bool = False,
        grid_size: int = DEFAULT_GRID,
    ) -> "TransferSpec":
        if require_nonnegative:
            low = float(np.min(w.eval_grid(grid_size).real))
            if low < -1e-9:
                raise ValueError(f"weight is not nonnegative on the torus (min {low:.3e})")
        if band_m is None:
            band_m = min_band(w, scale_n)
        return TransferSpec(w, scale_n, band_m)

    @staticmethod
    def for_bank(bank: FilterBank, band_m: Optional[int] = None) -> "TransferSpec":
        """Spec with W = |m_0|^2; nonnegativity holds by construction."""
        return TransferSpec.from_weight(
            weight_from_lowpass(bank.lowpass), bank.scale_n, band_m
        )


def transfer_apply(spec: TransferSpec, f: LaurentPoly) -> LaurentPoly:
    """(R_W f)_n = sum_k c_{N n - k} f_k, exact in coefficients.

    Sampled on the torus this equals (1/N) sum_{w^N = z} W(w) f(w).  The
    sum is coefficient N n of the product W f, read by one strided slice.
    """
    p, n = spec.w * f, spec.scale_n
    lo = -(-p.min_deg // n)  # least m with N m >= min_deg(W f)
    return LaurentPoly.from_coeffs(lo, p.data[n * lo - p.min_deg :: n])


def subdivision_apply(spec: TransferSpec, f: LaurentPoly) -> LaurentPoly:
    """(R_W* f)(z) = conj-poly(W)(z) * f(z**N), the subdivision operator."""
    if spec.w.is_zero or f.is_zero:
        return LaurentPoly.zero()
    return spec.w.adjoint() * f.compose_power(spec.scale_n)


def transfer_matrix(spec: TransferSpec) -> np.ndarray:
    """Matrix of R_W on modes -band_m..band_m: entry (n, k) = c_{N n - k}."""
    modes = np.arange(-spec.band_m, spec.band_m + 1)
    out = np.zeros((modes.size, modes.size), dtype=complex)
    if spec.w.is_zero:
        return out
    pos = spec.scale_n * modes[:, None] - modes[None, :] - spec.w.min_deg
    inside = (pos >= 0) & (pos < len(spec.w.data))
    out[inside] = spec.w.data[pos[inside]]
    return out


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues (descending modulus), peripheral subset, and the
    Perron-Frobenius verdict for the truncated transfer matrix."""

    eigenvalues: tuple
    peripheral: tuple
    pf_holds: bool
    fixed_vector: tuple

    def to_json(self) -> dict:
        return {
            "eigenvalues": [[l.real, l.imag] for l in self.eigenvalues],
            "peripheral": [[l.real, l.imag] for l in self.peripheral],
            "pf_holds": self.pf_holds,
            "fixed_vector": [[v.real, v.imag] for v in self.fixed_vector],
        }


def spectrum(spec: TransferSpec, tol: float = PF_TOL) -> SpectrumReport:
    """Eigen-decomposition of the truncated matrix and the PF condition.

    pf_holds is true iff every eigenvalue of modulus >= 1 - tol lies within
    tol of 1 and there is exactly one such (the fixed space is simple).  The
    fixed vector is normalized so its value at z = 1 (the sum of its mode
    coefficients) equals 1 when that value is nonzero.
    """
    mat = transfer_matrix(spec)
    try:
        values, vectors = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise RuntimeError(f"eigen-solve failed: {exc}") from exc
    order = np.argsort(-np.abs(values))
    values = values[order]
    vectors = vectors[:, order]
    peripheral = tuple(complex(l) for l in values if abs(l) >= 1.0 - tol)
    pf = len(peripheral) == 1 and abs(peripheral[0] - 1.0) <= tol
    idx = int(np.argmin(np.abs(values - 1.0)))
    vec = vectors[:, idx]
    at_one = np.sum(vec)
    if abs(at_one) > 1e-12:
        vec = vec / at_one
    return SpectrumReport(
        tuple(complex(l) for l in values),
        peripheral,
        bool(pf),
        tuple(complex(v) for v in vec),
    )


# Most (t, n) pairs per block: the eight float64 block buffers take 1 MB.
_BLOCK = 1 << 14


def _weight_series(bank: FilterBank) -> tuple:
    """Coefficients of W(theta)/N for W = |m_0|^2, as (cos_c, sin_c).

    W(theta)/N = sum_{j=0..D} cos_c[j] T_j(cos theta)
               + sin(theta) * sum_{j=0..D-1} sin_c[j] U_j(cos theta),
    that is cos_c[j] = 2 Re w_j / N (w_0 / N for j = 0) and
    sin_c[j - 1] = 2 Im w_j / N, since cos(j theta) = T_j(cos theta) and
    sin(j theta) = sin(theta) U_{j-1}(cos theta).  sin_c is None when W is
    even: W = m_0 m_0* is even when m_0 is real or is a spectral factor of an
    even weight, and then Im w_j is only the rounding error of the product,
    which stays below taps * eps * w_0; such a sine series is not evaluated.
    """
    w = weight_from_lowpass(bank.lowpass)
    if w.is_zero:
        return np.zeros(1), None
    d = max(w.max_deg, -w.min_deg)
    half = np.array([w.coeff(j) for j in range(d + 1)]) / bank.scale_n
    cos_c = 2 * half.real
    cos_c[0] = half[0].real
    sin_c = 2 * half.imag[1:]
    noise = 2 * len(bank.lowpass.data) * np.finfo(float).eps * cos_c[0]
    if np.max(np.abs(sin_c), initial=0.0) <= noise:
        return cos_c, None
    return cos_c, sin_c


def _clenshaw(coeffs: np.ndarray, x2: np.ndarray, y0, y1, scratch) -> tuple:
    """Run y_j = coeffs[j] + x2 * y_{j+1} - y_{j+2} from the last coefficient
    down to j = 0 (y = 0 beyond it) in the three buffers y0, y1, scratch, and
    return the buffers holding y_0 and y_1.

    With x2 = 2x: sum_j coeffs[j] U_j(x) = y_0 and
    sum_j coeffs[j] T_j(x) = y_0 - x y_1.
    """
    y0.fill(coeffs[-1])
    y1.fill(0.0)
    for c in coeffs[-2::-1]:
        np.multiply(x2, y0, out=scratch)
        np.subtract(scratch, y1, out=scratch)
        if c:
            scratch += c
        y0, y1, scratch = scratch, y0, y1
    return y0, y1


# The tail starts at the first factor whose arguments all lie within
# rho = _TAIL_OMEGA_RHO / Omega of 0 (Omega bounds the frequencies of the
# tail product); its Taylor polynomial has the least degree
# <= _TAIL_MAX_DEGREE whose remainder bound is <= _TAIL_TOL.  A larger rho
# moves factors into the tail but raises the degree; of Omega rho = 1, 2, 3,
# 4 and 6, 4 timed fastest on eight-tap and stretched Haar banks at
# n_max = 10**4, by 5-10 %.
_TAIL_OMEGA_RHO = 4.0
_TAIL_TOL = 1e-17
_TAIL_MAX_DEGREE = 64


def _taylor_factor(cos_c, sin_c, degree: int) -> np.ndarray:
    """Taylor coefficients f_0..f_degree of W(theta)/N at theta = 0, in
    long double: f_p = (-1)**(p//2) / p! * sum_j c_j j**p, with c = cos_c for
    even p and c_j = sin_c[j - 1] for odd p (cos(j theta) and sin(j theta)
    expanded)."""
    p = np.arange(degree + 1)
    j = np.arange(len(cos_c), dtype=np.longdouble)
    # jp[p, j] = j**p / p!, as a running product of j / q for q = 1..p
    steps = np.vstack([np.ones(j.size, dtype=j.dtype), j / p[1:, None]])
    jp = np.cumprod(steps, axis=0)
    f = jp @ cos_c.astype(j.dtype)
    if sin_c is not None:
        f[1::2] = jp[1::2, 1:] @ sin_c.astype(j.dtype)
    else:
        f[1::2] = 0.0
    return f * (-1.0) ** (p // 2)


def _tail_plan(cos_c, sin_c, scale_n: int, reach: float, k_terms: int) -> tuple:
    """Split the K factors W(s / N**k) / N, |s| <= reach, into `direct` ones
    evaluated pointwise and a tail replaced by one polynomial.

    With D the degree of W and Omega = D N / (N - 1), the first `direct`
    factors are those with reach / N**k > rho = _TAIL_OMEGA_RHO / Omega.
    The other K' = K - direct factors are prod_i W(theta / N**i) / N at
    theta = s / N**(direct + 1), |theta| <= rho; their product is truncated to
    its Taylor polynomial of degree M.  Each factor is bounded termwise by
    A exp(D |theta| / N**i), A the sum of the moduli of W's series
    coefficients, so the product by A**K' exp(Omega |theta|), and the
    remainder beyond degree M by
    A**K' (Omega rho)**(M+1) / (M+1)! exp(Omega rho).  M is the least degree
    with that bound <= _TAIL_TOL.

    The coefficients are multiplied out in long double and then rounded:
    the constant term is f_0**K', and f_0 rounded to float64 first would
    carry K' times its rounding error into it.

    Returns (direct, coeffs): coeffs holds c_0..c_M, or is None when the
    tail is empty, W is constant, or no M <= _TAIL_MAX_DEGREE meets the bound
    (then direct = K and every factor is evaluated pointwise).
    """
    d = len(cos_c) - 1
    if d == 0:
        return k_terms, None
    rho = _TAIL_OMEGA_RHO / (d * scale_n / (scale_n - 1))
    direct = 0
    # written so that a NaN reach (a NaN in t) keeps every factor direct
    while direct < k_terms and not reach / scale_n ** (direct + 1) <= rho:
        direct += 1
    if direct == k_terms:
        return k_terms, None
    k_tail = k_terms - direct
    mass = np.abs(cos_c).sum() + (0.0 if sin_c is None else np.abs(sin_c).sum())
    # the remainder bound in logs, without forming A**K'
    log_scale = k_tail * math.log(mass) + _TAIL_OMEGA_RHO
    for degree in range(_TAIL_MAX_DEGREE + 1):
        log_power = (degree + 1) * math.log(_TAIL_OMEGA_RHO) - math.lgamma(degree + 2)
        if log_scale + log_power <= math.log(_TAIL_TOL):
            break
    else:
        return k_terms, None
    f = _taylor_factor(cos_c, sin_c, degree)
    powers = np.arange(degree + 1)
    coeffs = f
    for i in range(1, k_tail):
        scaled = f * np.longdouble(scale_n) ** (-i * powers)
        coeffs = np.convolve(coeffs, scaled)[: degree + 1]
    return direct, coeffs.astype(float)


def _horner(coeffs, x, out):
    """sum_p coeffs[p] x**p into out, by Horner's rule."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        np.multiply(out, x, out=out)
        out += c
    return out


def _weight_product(theta, cos_c, sin_c, scale_n: int, plan: tuple, bufs):
    """prod_{k=1..K} W(theta / N**k) / N into bufs[0], in place, for the
    split plan = (direct, coeffs) of `_tail_plan`.

    theta is divided by N once per factor, as the complex product in
    `cascade.fourier_infinite_product` does, and is overwritten.  The first
    `direct` factors are Clenshaw sums; the tail, if any, is its polynomial
    at theta / N**(direct + 1), in theta**2 when the polynomial is even.
    """
    prod, x, x2, y0, y1, scratch, s = bufs
    direct, coeffs = plan
    prod.fill(1.0)
    for _ in range(direct):
        np.divide(theta, scale_n, out=theta)
        np.cos(theta, out=x)
        np.add(x, x, out=x2)
        b0, b1 = _clenshaw(cos_c, x2, y0, y1, scratch)
        np.multiply(x, b1, out=x)
        np.subtract(b0, x, out=x)
        if sin_c is not None:
            u0, _ = _clenshaw(sin_c, x2, y0, y1, scratch)
            np.sin(theta, out=s)
            np.multiply(s, u0, out=s)
            np.add(x, s, out=x)
        np.multiply(prod, x, out=prod)
    if coeffs is not None:
        np.divide(theta, scale_n, out=theta)
        if coeffs[1::2].any():
            tail = _horner(coeffs, theta, x)
        else:
            np.multiply(theta, theta, out=x2)
            tail = _horner(coeffs[::2], x2, x)
        np.multiply(prod, tail, out=prod)
    return prod


def per_samples(
    bank: FilterBank,
    t: np.ndarray,
    n_max: int = N_MAX,
    k_terms: int = K_TERMS,
) -> np.ndarray:
    """Truncated periodization sum_{|n| <= n_max} |phihat(t + 2*pi*n)|^2.

    |phihat|^2 is the K-term product prod_{k=1..K} W(s / N**k) / N of the
    real weight W = |m_0|^2, the squared modulus of
    `cascade.fourier_infinite_product`.  The first factors, those with
    (max|t| + 2 pi n_max) / N**k > rho, are Clenshaw sums in cos(s / N**k);
    the rest are one Taylor polynomial whose remainder is at most 1e-17 at
    every s, or, when no degree up to 64 achieves that, Clenshaw sums too
    (`_tail_plan` gives rho, the degree and the bound).  The
    t.size * (2 n_max + 1) pairs (t, n) are taken in blocks of at most 2**14
    whose sums accumulate per t, so memory stays bounded.
    Returns an array of t's shape.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    t = np.asarray(t, dtype=float)
    flat_t = t.ravel()
    out = np.zeros(flat_t.size)
    cos_c, sin_c = _weight_series(bank)
    reach = float(np.max(np.abs(flat_t), initial=0.0)) + 2 * np.pi * n_max
    plan = _tail_plan(cos_c, sin_c, bank.scale_n, reach, k_terms)
    # A block is `rows` whole rows of the (t, n) table, or one of `chunks`
    # equal pieces of a row longer than _BLOCK, so each row sum is a numpy
    # (pairwise) sum, as accurate as summing the whole row at once.
    width = 2 * n_max + 1
    chunks = -(-width // _BLOCK)
    cols = -(-width // chunks)
    rows = max(1, _BLOCK // width)
    bufs = np.empty((8, min(rows, flat_t.size) * cols))
    for c0 in range(-n_max, n_max + 1, cols):
        shifts = 2 * np.pi * np.arange(c0, min(c0 + cols, n_max + 1))
        for r0 in range(0, flat_t.size, rows):
            t_rows = flat_t[r0 : r0 + rows, None]
            shape = (t_rows.shape[0], shifts.size)
            block = bufs[:, : shape[0] * shape[1]].reshape(8, *shape)
            theta = block[0]
            np.add(t_rows, shifts, out=theta)
            prod = _weight_product(theta, cos_c, sin_c, bank.scale_n, plan, block[1:])
            out[r0 : r0 + shape[0]] += prod.sum(axis=1)
    return out.reshape(t.shape)


# Singular values of T - I up to _NULL_TOL * |T - I| span the fixed space;
# the next one must exceed _GAP_TOL * |T - I|, or the dimension is unclear.
_NULL_TOL = 1e-10
_GAP_TOL = 1e-6
# Roots of z**D (N - W) within _ROOT_TOL of the unit circle are candidate
# zeros, and N t is matched to a candidate within N * _ROOT_TOL: double roots
# come out of np.roots with errors near 1e-8.  Candidates only propose
# cycles; the check of W = N at the snapped points decides.
_ROOT_TOL = 1e-5
# A snapped cycle point must have |W - N| <= _CYCLE_TOL * sum_k |w_k|.
_CYCLE_TOL = 1e-9
# The constraint rows must have singular values >= _RANK_TOL times the
# largest, and the solution must meet them to _RANK_TOL.
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ExactPer:
    """The periodization PER(t) = sum_k coeffs[k + band_m] exp(-i k t).

    coeffs is the autocorrelation of the scaling function on the modes
    -band_m..band_m; fixed_dim is the dimension of the fixed space of R_W it
    was taken from, cycles the nontrivial Cohen cycles (angles) that pinned
    it down, and qmf_residual = max_n |w_{N n} - delta_n| for W scaled to
    W(1) = N: how far delta_0 is from an exact fixed vector.
    """

    coeffs: np.ndarray
    fixed_dim: int
    cycles: tuple
    qmf_residual: float

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        m = (len(self.coeffs) - 1) // 2
        modes = np.arange(-m, m + 1)
        return (np.exp(-1j * t[..., None] * modes) @ self.coeffs).real


def _fixed_space(spec: TransferSpec) -> Optional[np.ndarray]:
    """Orthonormal basis (columns) of the null space of T - I, from an SVD,
    or None when no clear gap separates it from the other singular values."""
    mat = transfer_matrix(spec)
    _, sing, vh = np.linalg.svd(mat - np.eye(mat.shape[0]))
    scale = sing[0]
    dim = int(np.count_nonzero(sing <= _NULL_TOL * scale))
    if dim == 0 or (dim < sing.size and sing[-dim - 1] < _GAP_TOL * scale):
        return None
    return vh[-dim:].conj().T


def _cohen_cycles(w: LaurentPoly, scale_n: int) -> list:
    """Nontrivial cycles of t -> N t (mod 2 pi) on which W(t) = N.

    The candidates are the roots of z**D (N - W(z)) near the unit circle,
    z = exp(-i t).  Following the map from candidate to nearest candidate
    gives the cycles; a p-cycle is then snapped to the exact points
    2 pi j / (N**p - 1) and kept only if W = N there to _CYCLE_TOL.
    Returns a list of arrays of cycle angles.
    """
    d = max(-w.min_deg, w.max_deg)
    poly = -np.array([w.coeff(k) for k in range(-d, d + 1)])
    poly[d] += scale_n
    roots = np.roots(poly[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) <= _ROOT_TOL]
    zeros = np.mod(-np.angle(roots), 2 * np.pi)
    # drop the trivial cycle {0}; each double root is kept once
    zeros = [t for t in np.sort(zeros) if min(t, 2 * np.pi - t) > _ROOT_TOL]
    zeros = np.array(
        [t for i, t in enumerate(zeros) if i == 0 or t - zeros[i - 1] > _ROOT_TOL]
    )

    def circular(a, b):
        gap = np.abs(np.mod(a - b, 2 * np.pi))
        return np.minimum(gap, 2 * np.pi - gap)

    successor = {}
    for i, t in enumerate(zeros):
        gap = circular(zeros, scale_n * t)
        if np.min(gap) <= scale_n * _ROOT_TOL:
            successor[i] = int(np.argmin(gap))
    mass = float(np.sum(np.abs(w.coeff_array())))
    cycles = []
    for start in successor:
        orbit = [start]
        while len(orbit) <= len(zeros) and successor.get(orbit[-1], start) != start:
            orbit.append(successor[orbit[-1]])
        # each cycle once, from its least candidate; 2**52 keeps j exact
        period = scale_n ** len(orbit) - 1
        if successor.get(orbit[-1]) != start or min(orbit) != start or period >= 2**52:
            continue
        j = round(zeros[start] * period / (2 * np.pi))
        snapped = np.array([j * scale_n**i % period for i in range(len(orbit))])
        snapped = 2 * np.pi * snapped / period
        if np.all(np.abs(w.eval_angle(snapped) - scale_n) <= _CYCLE_TOL * mass):
            cycles.append(snapped)
    return cycles


def per_exact(bank: FilterBank) -> Optional[ExactPer]:
    """The periodization of |phihat|^2 as an exact trigonometric polynomial.

    Its coefficients are the autocorrelation a_k of the scaling function,
    supported on the invariant window, and a = R_W a.  For a QMF bank with
    |m_0(1)|**2 = N the fixed space of R_W settles a:
      * dimension 1: a = delta_0 and PER = 1 (Lawton 1991);
      * dimension > 1: the extra fixed vectors come from the nontrivial
        cycles of t -> N t on which W = N, and PER vanishes on those cycles
        (Cohen 1990).  a is the fixed vector with sum_k a_k = PER(0) = 1 and
        PER = 0 on every cycle point; the constraint rows must determine it.
    Returns None when check_qmf fails, when |m_0(1)|**2 is off N by more than
    TOL * N, when the fixed space is not separated by a clear singular-value
    gap, or when the cycle constraints do not determine a.
    """
    n = bank.scale_n
    grid = max(DEFAULT_GRID, 2 * _polyphase_span(bank)[1] + 1)
    if not check_qmf(bank, grid).passed:
        return None
    if abs(abs(bank.lowpass.eval(1.0)) ** 2 - n) > DEFAULT_TOL * n:
        return None
    spec = TransferSpec.for_bank(bank)
    basis = _fixed_space(spec)
    if basis is None:
        return None
    m = spec.band_m
    unit = spec.w.scale(n / spec.w.eval(1.0).real)
    qmf_residual = max(abs(unit.coeff(n * k) - (k == 0)) for k in range(-m, m + 1))
    dim = basis.shape[1]
    if dim == 1:
        coeffs = np.zeros(2 * m + 1, dtype=complex)
        coeffs[m] = 1.0
        return ExactPer(coeffs, 1, (), float(qmf_residual))
    cycles = _cohen_cycles(spec.w, n)
    points = np.concatenate([np.zeros(1)] + cycles)
    rows = np.exp(-1j * points[:, None] * np.arange(-m, m + 1)) @ basis
    rhs = np.zeros(points.size)
    rhs[0] = 1.0
    # least squares through the SVD: _fixed_space has already paged in its
    # LAPACK routine, and lstsq would page in another (about 0.15 MB of RSS)
    u, sing, vh = np.linalg.svd(rows, full_matrices=False)
    if sing.size < dim or sing[-1] < _RANK_TOL * sing[0]:
        return None
    c = vh.conj().T @ ((u.conj().T @ rhs) / sing)
    if np.max(np.abs(rows @ c - rhs)) > _RANK_TOL:
        return None
    coeffs = basis @ c
    coeffs = (coeffs + np.conj(coeffs[::-1])) / 2  # a_{-k} = conj(a_k)
    return ExactPer(coeffs, dim, tuple(cycles), float(qmf_residual))


@dataclass(frozen=True)
class PerReport:
    """`certified` is true when the deviation comes from `per_exact` rather
    than the truncated sum; it is not part of the JSON report."""

    max_dev_from_1: float
    is_constant_1: bool
    tail_estimate: float
    n_max: int
    certified: bool = False

    def to_json(self) -> dict:
        return {
            "max_dev_from_1": self.max_dev_from_1,
            "is_constant_1": self.is_constant_1,
            "tail_estimate": self.tail_estimate,
            "n_max": self.n_max,
        }


def per_check(
    bank: FilterBank,
    t_points: int = 64,
    n_max: int = N_MAX,
    k_terms: int = K_TERMS,
    flat_tol: float = 1e-2,
) -> PerReport:
    """Max deviation of the periodization from 1 over the t-grid 2 pi i / t_points.

    The periodization is exact when `per_exact` certifies it: the deviation
    is then max|PER - 1| on the grid, or, for a one-dimensional fixed space,
    where PER = 1, the QMF residual max_n |w_{N n} - delta_n| of W scaled to
    W(1) = N (exactly 0.0 for the two-tap bank).  Otherwise it
    is the truncated sum `per_samples` with n_max and k_terms.
    The reported tail estimate N / (pi**2 n_max) is the O(1/n_max) size of the
    truncation error of that sum (a heuristic, not a bound).
    Raises ValueError for t_points < 1, for n_max < 1, and for an n_max whose
    tail estimate exceeds flat_tol (the message names the least admissible
    n_max, ceil(N / (pi**2 flat_tol))), on either path.
    """
    if t_points < 1:
        raise ValueError(f"t_points must be >= 1, got {t_points}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    least = math.ceil(bank.scale_n / (math.pi**2 * flat_tol))
    tail = float(bank.scale_n) / (math.pi**2 * n_max)
    if n_max < least:
        raise ValueError(
            f"n_max {n_max} leaves a truncation tail estimate of {tail:.3e}, above "
            f"the flatness tolerance {flat_tol:g}; n_max must be >= {least}"
        )
    t = 2 * np.pi * np.arange(t_points) / t_points
    exact = per_exact(bank)
    if exact is None:
        per = per_samples(bank, t, n_max=n_max, k_terms=k_terms)
        dev = float(np.max(np.abs(per - 1.0)))
    elif exact.fixed_dim == 1:
        dev = exact.qmf_residual
    else:
        dev = float(np.max(np.abs(exact.eval(t) - 1.0)))
    return PerReport(dev, dev <= flat_tol, tail, n_max, certified=exact is not None)


def fixed_point_check(
    bank: FilterBank, f_fine: Sequence[float], grid_points: Optional[int] = None
) -> float:
    """Residual of the transfer fixed-point equation R_{|m0|^2} f = f.

    `f_fine` holds samples of f on the fine angle grid u_j = 2*pi*j/(N*M),
    j = 0..N*M-1, where M = grid_points (default: len(f_fine)//N).  R f is
    evaluated on the coarse grid t_i = 2*pi*i/M by the torus-sum formula
    (R f)(t) = (1/N) sum_k W((t + 2*pi*k)/N) f((t + 2*pi*k)/N), every needed
    angle being a fine-grid point; the result is max_i |(R f)(t_i) - f(t_i)|.
    """
    f_fine = np.asarray(f_fine, dtype=float)
    n = bank.scale_n
    if grid_points is None:
        if len(f_fine) % n:
            raise ValueError("fine sample count must be a multiple of the scale number")
        grid_points = len(f_fine) // n
    if len(f_fine) != n * grid_points:
        raise ValueError(f"expected {n * grid_points} fine samples, got {len(f_fine)}")
    m = grid_points
    u = 2 * np.pi * np.arange(n * m) / (n * m)
    w_vals = np.abs(bank.lowpass.eval_angle(u)) ** 2
    rf = np.zeros(m)
    for k in range(n):
        idx = np.arange(m) + k * m
        rf += w_vals[idx] * f_fine[idx]
    rf /= n
    coarse = f_fine[np.arange(m) * n]
    return float(np.max(np.abs(rf - coarse)))
