"""Scaling and wavelet functions on dyadic grids.

A `GridFunction` is a `laurent.Block` of samples on the grid 2**(-J) * Z,
kept untrimmed.  The cascade iteration runs on that fixed fine grid: since
N * (i * 2**-J) - n lands back on the grid, the refinement step
(M_a g)(x) = sqrt(N) * sum_n a_n g(N x - n) is exact index arithmetic, no
resampling.  Iterates are rescaled after every step so the Riemann sum is 1,
pinning the integral-one normalization of the limit.

Position integrals use cell midpoints: values[i] is read as the value on the
cell [i, i+1) * 2**-J, so sum (i + 1/2) * 2**-J * |g_i|^2 * 2**-J is the
first-moment quadrature (exact for piecewise-constant functions such as the
two-tap bank's box and square wave, which is what makes the half-integer
expected-position check sharp).

For six-tap banks the same recursion can be packed into a 2 x 3 matrix
acting on stacked translate vectors (a binary-digit-inversion view of the
dyadic points); that is a special case of the general step implemented here
and is not treated separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .defaults import CASCADE_TOL, ITERS, J_LEVEL, K_TERMS
from .filterbank import FilterBank
from .laurent import Block, LaurentPoly, decimate, frozen_vector


@dataclass(frozen=True, eq=False)
class GridFunction(Block):
    """Samples on the grid 2**(-j_level) * Z over a finite support block.

    A `Block` whose offset is support_lo: data[i] is the sample at grid index
    support_lo + i, and `values` is the tuple-of-complex view of `data`.
    support_hi = support_lo + len(data) - 1.  Build grid functions with
    `from_values`, which copies and freezes its input and trims nothing.
    Equality and hashing also compare the level.
    """

    j_level: int

    _key = ("j_level",)

    def __post_init__(self):
        if self.j_level < 0:
            raise ValueError("j_level must be nonnegative")

    @staticmethod
    def from_values(j_level: int, support_lo: int, values) -> "GridFunction":
        return GridFunction(support_lo, frozen_vector(values), j_level)

    def _like(self, offset: int, arr: np.ndarray) -> "GridFunction":
        return GridFunction.from_values(self.j_level, offset, arr)

    values = Block.terms
    at_index = Block.at

    @property
    def support_lo(self) -> int:
        return self.offset

    @property
    def support_hi(self) -> int:
        return self.end - 1

    @staticmethod
    def box(j_level: int) -> "GridFunction":
        """Indicator of [0, 1) sampled at level j_level; Riemann sum exactly 1."""
        n = 1 << j_level
        return GridFunction.from_values(j_level, 0, np.ones(n))

    @property
    def step(self) -> float:
        return 2.0 ** (-self.j_level)

    value_array = Block.array

    def x(self) -> np.ndarray:
        """Left endpoints of the grid cells."""
        return np.arange(self.support_lo, self.support_hi + 1) * self.step

    def riemann_sum(self) -> complex:
        return complex(np.sum(self.value_array()) * self.step)

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.value_array()) ** 2) * self.step)

    def translate(self, integer_shift: int) -> "GridFunction":
        """Shift by an integer (in function units, i.e. 2**j_level grid steps)."""
        shift = integer_shift << self.j_level
        return GridFunction(self.support_lo + shift, self.data, self.j_level)

    def is_trivial(self) -> bool:
        return not np.any(self.value_array())


def l2_difference(a: GridFunction, b: GridFunction) -> float:
    _, va, vb = a.padded(b)
    return float(np.sqrt(np.sum(np.abs(va - vb) ** 2) * a.step))


def grid_inner(a: GridFunction, b: GridFunction) -> complex:
    """<a, b> = sum conj(a) b * 2**-J on the common grid."""
    _, va, vb = a.padded(b)
    return complex(np.sum(np.conj(va) * vb) * a.step)


def _band_step(coeffs: LaurentPoly, scale_n: int, g: GridFunction) -> GridFunction:
    """sqrt(N) * sum_n c_n g(N x - n) on the fixed grid of g: the term of c_n
    is g moved n integer shifts up, then decimated by N."""
    if coeffs.is_zero or g.is_trivial():
        return GridFunction.from_values(g.j_level, 0, [0.0])
    unit = 1 << g.j_level  # grid steps per integer shift
    taps = [
        Block(*decimate(g.offset + n * unit, g.data, scale_n))
        for n in range(coeffs.offset, coeffs.end)
    ]
    lo, hi = taps[0].offset, taps[-1].end
    if lo >= hi:
        return GridFunction.from_values(g.j_level, 0, [0.0])
    out = np.zeros(hi - lo, dtype=complex)
    root = math.sqrt(scale_n)
    for c, tap in zip(coeffs.coeffs, taps):
        if c != 0:  # placed, not windowed: a window per tap spans all of out
            out[tap.offset - lo : tap.end - lo] += root * c * tap.data
    return GridFunction.from_values(g.j_level, lo, out)


def cascade_step(bank: FilterBank, g: GridFunction) -> GridFunction:
    """One refinement step with the low-pass masking coefficients."""
    return _band_step(bank.lowpass, bank.scale_n, g)


@dataclass(frozen=True)
class CascadeResult:
    """Final iterate plus the convergence log.

    diffs[k] is the squared discrete L2 difference between iterates k and
    k+1, i.e. the quadrature of |delta|^2 (not its square root).
    """

    phi: GridFunction
    diffs: tuple
    converged: bool
    diverged: bool
    iterations: int


# squared differences below this multiple of ||phi||**2 are rounding noise
_ROUNDING_FLOOR = (16 * np.finfo(float).eps) ** 2


def scaling_function(
    bank: FilterBank,
    j_level: int = J_LEVEL,
    iters: int = ITERS,
    tol: float = CASCADE_TOL,
) -> CascadeResult:
    """Iterate the cascade from the unit box and monitor L2 convergence.

    Each iterate is rescaled to Riemann sum 1.  The log records the squared
    L2 successive differences; `converged` is set once a difference drops
    below tol, `diverged` after three consecutive increases (a
    non-convergence report, not an exception).  A difference counts as an
    increase only above the rounding floor (16 eps)**2 * ||phi_k||**2 of the
    new iterate, so differences at rounding level never report divergence.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    current = GridFunction.box(j_level)
    diffs = []
    increases = 0
    for _ in range(iters):
        nxt = cascade_step(bank, current)
        mass = nxt.riemann_sum()
        if abs(mass) > 1e-12:
            nxt = nxt.scale(1.0 / mass)
        diff = l2_difference(nxt, current) ** 2
        rose = diffs and diff > diffs[-1] and diff > _ROUNDING_FLOOR * nxt.l2_norm_sq()
        increases = increases + 1 if rose else 0
        diffs.append(diff)
        current = nxt
        if diff < tol or increases >= 3:
            break
    converged = diffs[-1] < tol
    diverged = increases >= 3 and not converged
    return CascadeResult(current, tuple(diffs), converged, diverged, len(diffs))


def wavelet_from_scaling(bank: FilterBank, phi: GridFunction) -> list:
    """psi_i(x) = sqrt(N) sum_n a_n^{(i)} phi(N x - n) for the high-pass bands."""
    return [
        _band_step(f, bank.scale_n, phi) for f in bank.filters[1:]
    ]


def fourier_infinite_product(bank: FilterBank, t, k_terms: int = K_TERMS):
    """Partial product prod_{k=1..K} m_0(t * N**-k) / sqrt(N), with
    m evaluated at z = exp(-1j * t * N**-k).

    At t = 0 every factor is m_0(1)/sqrt(N) = 1 for a normalized low-pass.
    Accepts scalars or arrays; the truncation error is O(|t| * N**-K).
    """
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    n = bank.scale_n
    root = math.sqrt(n)
    out = np.ones(t_arr.shape, dtype=complex)
    scaled = t_arr.astype(float)
    for _ in range(k_terms):
        scaled = scaled / n
        out *= bank.lowpass.eval_angle(scaled) / root
    return complex(out[0]) if scalar else out


def grid_fourier(g: GridFunction, t) -> np.ndarray:
    """Riemann approximation of the Fourier transform integral of g at
    frequencies t, with the exp(-1j*x*t) kernel and midpoint abscissae."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    xs = g.x() + 0.5 * g.step
    vals = g.value_array()
    out = (vals[None, :] * np.exp(-1j * np.outer(t_arr, xs))).sum(axis=1) * g.step
    return out if np.ndim(t) else complex(out[0])


@dataclass(frozen=True)
class PositionReport:
    value: float
    nearest_half_integer: float
    gap: float


def expected_position(g: GridFunction) -> PositionReport:
    """First moment of |g|^2 divided by its norm; also the distance to the
    nearest element of 1/2 + Z (midpoint quadrature, see module docstring)."""
    norm_sq = g.l2_norm_sq()
    if norm_sq <= 0.0:
        raise ValueError("expected position of the zero function is undefined")
    weights = np.abs(g.value_array()) ** 2
    mids = g.x() + 0.5 * g.step
    value = float(np.sum(mids * weights) * g.step / norm_sq)
    nearest = math.floor(value) + 0.5  # every other point of 1/2 + Z is 1/2 or more away
    return PositionReport(value, nearest, abs(value - nearest))


# -- closed forms for the two-tap bank --------------------------------------


def haar_scaling(x):
    """Indicator of [0, 1)."""
    x = np.asarray(x, dtype=float)
    out = ((x >= 0) & (x < 1)).astype(float)
    return float(out) if out.ndim == 0 else out


def haar_wavelet(x):
    """+1 on [0, 1/2), -1 on [1/2, 1)."""
    x = np.asarray(x, dtype=float)
    out = ((x >= 0) & (x < 0.5)).astype(float) - ((x >= 0.5) & (x < 1)).astype(float)
    return float(out) if out.ndim == 0 else out


def haar_telescoping(x: float, n_terms: int) -> np.ndarray:
    """Partial sums S_n = sum_{k=1..n} 2**-k * psi(2**-k * x).

    Pointwise the series telescopes to the box function, and the tail past n
    equals 2**-n * phi(2**-n * x); both facts hold away from the dyadic
    breakpoints of the partial sums.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    ks = np.arange(1, n_terms + 1, dtype=float)
    terms = (2.0**-ks) * np.asarray(haar_wavelet(x * 2.0**-ks))
    return np.cumsum(terms)
