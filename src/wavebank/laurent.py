"""Coefficient algebra for scalar and matrix Laurent polynomials on the torus.

A Laurent polynomial is stored as the exponent of its lowest term together
with one read-only complex ndarray of coefficients: shape (span + 1,) for
`LaurentPoly`, (span + 1, n, n) for `MatLaurentPoly`.  Arithmetic is exact
coefficient arithmetic (complex doubles) on those arrays; `from_coeffs`, the
one constructor, trims end terms of modulus below ``CANONICAL_EPS`` (a matrix
term by its largest entry) so degree bookkeeping stays stable after round
trips.

Every torus grid is sampled by one FFT (`sample_torus`).  Determinants and FIR
inverses, Laurent polynomials of known span, are taken pointwise on a grid
longer than that span and read back by `interpolate_torus`: exact up to
rounding, not in exact coefficients.

Torus conventions used throughout the package:

* sampling grids run counterclockwise, ``z_j = exp(2*pi*1j*j/G)``, which fixes
  the sign of winding numbers (``winding_number(z) == 1``);
* when a polynomial is read as a function of the angle ``t`` (filters,
  transfer weights), the substitution is ``z = exp(-1j*t)`` -- see
  :meth:`LaurentPoly.eval_angle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .defaults import GRID_SIZE as DEFAULT_GRID
from .defaults import TOL as DEFAULT_TOL

CANONICAL_EPS = 1e-14


class DimensionMismatchError(ValueError):
    """Operands have incompatible matrix dimensions."""


class SingularOnTorusError(ValueError):
    """A quantity required to be nonvanishing on the torus (nearly) vanishes."""


def sample_torus(min_deg: int, coeffs, grid_size: int) -> np.ndarray:
    """Values of sum_k coeffs[k] z**(min_deg + k) at z_j = exp(2*pi*1j*j/G),
    G = grid_size, with any trailing (matrix) axes of coeffs kept.  Degrees
    are folded mod G before one inverse FFT, so every G >= 1 is exact."""
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    coeffs = np.asarray(coeffs, dtype=complex)
    folded = np.zeros((grid_size,) + coeffs.shape[1:], dtype=complex)
    np.add.at(folded, (min_deg + np.arange(len(coeffs))) % grid_size, coeffs)
    return np.fft.ifft(folded, axis=0) * grid_size


def interpolate_torus(values: np.ndarray, min_deg: int, span: int) -> np.ndarray:
    """Coefficients of degrees min_deg..min_deg+span read back from the
    `sample_torus` values of a polynomial in those degrees; needs G > span."""
    if len(values) <= span:
        raise ValueError(f"{len(values)} samples cannot resolve span {span}")
    degrees = (min_deg + np.arange(span + 1)) % len(values)
    return np.fft.fft(values, axis=0)[degrees] / len(values)


def frozen_vector(values) -> np.ndarray:
    """A new read-only 1-D complex array of `values`, an array or any
    iterable of numbers (generators included)."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence of numbers, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _trim_ends(min_deg: int, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """(min_deg, arr) without the end terms of modulus below CANONICAL_EPS,
    a matrix term measured by its largest entry; NaN terms are kept.  When
    no term is kept the view is empty and min_deg is 0."""
    small = np.abs(arr) < CANONICAL_EPS
    if arr.ndim > 1:
        small = small.all(axis=(1, 2))
    small = small.tolist()  # the scans below stop at the first kept term
    lo, hi = 0, len(small)
    while lo < hi and small[lo]:
        lo += 1
    while hi > lo and small[hi - 1]:
        hi -= 1
    if lo == hi:
        return 0, arr[:0]
    return min_deg + lo, arr[lo:hi]


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """m(z) = sum_k data[k] * z**(min_deg + k), finitely supported.

    The coefficients are one read-only complex ndarray, `data`, which
    operations share without copying; `coeffs` is its tuple-of-complex view.
    Build polynomials with `from_coeffs`, which copies, freezes and trims its
    input.  The zero polynomial has an empty array and min_deg 0.  Equality
    and hashing compare min_deg and the coefficient values.
    """

    min_deg: int
    data: np.ndarray

    @staticmethod
    def from_coeffs(min_deg: int, coeffs: Iterable[complex]) -> "LaurentPoly":
        return LaurentPoly(*_trim_ends(min_deg, frozen_vector(coeffs)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, frozen_vector(()))

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, frozen_vector((1.0,)))

    @staticmethod
    def monomial(degree: int, coeff: complex = 1.0) -> "LaurentPoly":
        return LaurentPoly.from_coeffs(degree, [coeff])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(self.data.tolist())

    @property
    def is_zero(self) -> bool:
        return not len(self.data)

    @property
    def max_deg(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.min_deg + len(self.data) - 1

    @property
    def span(self) -> int:
        """max_deg - min_deg; 0 for monomials and for the zero polynomial."""
        return max(len(self.data) - 1, 0)

    def coeff(self, degree: int) -> complex:
        """Coefficient of z**degree (0 outside the stored block)."""
        k = degree - self.min_deg
        return complex(self.data[k]) if 0 <= k < len(self.data) else 0j

    def coeff_array(self) -> np.ndarray:
        return self.data

    @property
    def is_monomial(self) -> bool:
        return len(self.data) == 1

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.data), initial=0.0))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_deg == other.min_deg and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((self.min_deg, (self.data + 0.0).tobytes()))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        out = np.zeros(hi - lo + 1, dtype=complex)
        out[self.min_deg - lo : self.max_deg - lo + 1] += self.data
        out[other.min_deg - lo : other.max_deg - lo + 1] += other.data
        return LaurentPoly.from_coeffs(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_coeffs(self.min_deg, -self.data)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.is_zero or other.is_zero:
                return LaurentPoly.zero()
            conv = np.convolve(self.data, other.data)
            return LaurentPoly.from_coeffs(self.min_deg + other.min_deg, conv)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: complex) -> "LaurentPoly":
        return LaurentPoly.from_coeffs(self.min_deg, s * self.data)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k (exact reindexing)."""
        if self.is_zero:
            return self
        return LaurentPoly(self.min_deg + k, self.data)

    def adjoint(self) -> "LaurentPoly":
        """p*(z) = sum conj(c_k) z**(-k); equals conj(p(z)) for |z| = 1."""
        if self.is_zero:
            return self
        return LaurentPoly(-self.max_deg, frozen_vector(np.conj(self.data[::-1])))

    def compose_power(self, n: int) -> "LaurentPoly":
        """p(z**n): exponents multiply by n (n >= 1)."""
        if self.is_zero:
            return self
        out = np.zeros(self.span * n + 1, dtype=complex)
        out[::n] = self.data
        return LaurentPoly.from_coeffs(self.min_deg * n, out)

    # -- evaluation --------------------------------------------------------

    def eval(self, z):
        """Evaluate at z (scalar or ndarray); exact 0 for the zero polynomial."""
        if self.is_zero:
            return np.zeros_like(np.asarray(z, dtype=complex)) if isinstance(z, np.ndarray) else 0.0 + 0.0j
        z = np.asarray(z, dtype=complex)
        # Horner on the polynomial part, then restore the z**min_deg prefactor.
        acc = np.zeros_like(z)
        for c in self.data[::-1]:
            acc = acc * z + c
        acc = acc * z ** self.min_deg
        if acc.ndim == 0:
            return complex(acc)
        return acc

    __call__ = eval

    def eval_angle(self, t):
        """Evaluate as a function of angle, z = exp(-1j*t)."""
        return self.eval(np.exp(-1j * np.asarray(t, dtype=float)))

    def eval_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return sample_torus(self.min_deg, self.data, grid_size)

    # -- comparison / io ----------------------------------------------------

    def approx_eq(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def to_json(self) -> dict:
        return {"min_deg": self.min_deg, "coeffs": _re_im_pairs(self.data)}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        coeffs = [complex(re, im) for re, im in obj["coeffs"]]
        return LaurentPoly.from_coeffs(int(obj["min_deg"]), coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = ", ".join(
            f"z^{self.min_deg + k}: {c:.6g}" for k, c in enumerate(self.data.tolist())
        )
        return f"LaurentPoly({terms})"


def _re_im_pairs(arr: np.ndarray) -> list:
    """arr as nested lists with each complex entry a [real, imag] pair."""
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


@dataclass(frozen=True, eq=False)
class MatLaurentPoly:
    """Square-matrix-valued Laurent polynomial A(z) = sum_k A_k z**(min_deg+k).

    `coeffs` is one read-only complex ndarray of shape (span + 1, n, n),
    coeffs[k] = A_k.  Build matrices with `from_coeffs`, which copies,
    freezes and trims end matrices whose largest entry is below
    CANONICAL_EPS; the zero matrix keeps one zero coefficient at degree 0.
    """

    n: int
    min_deg: int
    coeffs: np.ndarray

    @staticmethod
    def from_coeffs(min_deg: int, mats: Sequence[np.ndarray]) -> "MatLaurentPoly":
        arr = np.array(mats, dtype=complex)
        if arr.ndim != 3 or not len(arr) or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"need a nonempty stack of square matrices of one size, got shape {arr.shape}"
            )
        lo, kept = _trim_ends(min_deg, arr)
        if not len(kept):
            kept = np.zeros_like(arr[:1])
        kept.flags.writeable = False
        return MatLaurentPoly(arr.shape[1], lo, kept)

    @staticmethod
    def from_constant(mat: np.ndarray) -> "MatLaurentPoly":
        return MatLaurentPoly.from_coeffs(0, [mat])

    @staticmethod
    def identity(n: int) -> "MatLaurentPoly":
        return MatLaurentPoly.from_constant(np.eye(n, dtype=complex))

    @staticmethod
    def from_entries(entries: Sequence[Sequence[LaurentPoly]]) -> "MatLaurentPoly":
        n = len(entries)
        polys = [list(row) for row in entries]
        if any(len(row) != n for row in polys):
            raise DimensionMismatchError("entry grid must be square")
        degs = [
            (p.min_deg, p.max_deg) for row in polys for p in row if not p.is_zero
        ]
        if not degs:
            return MatLaurentPoly.from_constant(np.zeros((n, n), dtype=complex))
        lo = min(d[0] for d in degs)
        hi = max(d[1] for d in degs)
        mats = np.zeros((hi - lo + 1, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                p = polys[i][j]
                if not p.is_zero:
                    mats[p.min_deg - lo : p.max_deg - lo + 1, i, j] = p.data
        return MatLaurentPoly.from_coeffs(lo, mats)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatLaurentPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.min_deg == other.min_deg
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((self.n, self.min_deg, (self.coeffs + 0.0).tobytes()))

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    @property
    def span(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(np.abs(self.coeffs) < CANONICAL_EPS))

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self.min_deg, self.coeffs[:, i, j])

    def coeff(self, degree: int) -> np.ndarray:
        if degree < self.min_deg or degree > self.max_deg:
            return np.zeros((self.n, self.n), dtype=complex)
        return np.array(self.coeffs[degree - self.min_deg])

    # -- algebra -----------------------------------------------------------

    def _require_same_dim(self, other: "MatLaurentPoly") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"matrix dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other: "MatLaurentPoly") -> "MatLaurentPoly":
        if not isinstance(other, MatLaurentPoly):
            return NotImplemented
        self._require_same_dim(other)
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        out = np.zeros((hi - lo + 1, self.n, self.n), dtype=complex)
        out[self.min_deg - lo : self.max_deg - lo + 1] += self.coeffs
        out[other.min_deg - lo : other.max_deg - lo + 1] += other.coeffs
        return MatLaurentPoly.from_coeffs(lo, out)

    def __neg__(self) -> "MatLaurentPoly":
        return MatLaurentPoly.from_coeffs(self.min_deg, -self.coeffs)

    def __sub__(self, other: "MatLaurentPoly") -> "MatLaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        """Coefficient convolution out[a + b] = sum_a A_a @ B_b (A_a * b_b for
        a scalar polynomial), one batched product per coefficient of the right
        operand.  Taking b downward adds the terms of each out[k] in increasing
        a, and A_a stays the left factor of each product: numpy's complex
        multiply is not bitwise commutative, so this fixes the rounding."""
        if isinstance(other, (int, float, complex)):
            return MatLaurentPoly.from_coeffs(self.min_deg, other * self.coeffs)
        if isinstance(other, MatLaurentPoly):
            self._require_same_dim(other)
            rhs, product = other.coeffs, np.matmul
        elif isinstance(other, LaurentPoly):
            if other.is_zero:
                return MatLaurentPoly.from_constant(np.zeros((self.n, self.n)))
            rhs, product = other.data, np.multiply
        else:
            return NotImplemented
        out = np.zeros((self.span + len(rhs), self.n, self.n), dtype=complex)
        for b in range(len(rhs) - 1, -1, -1):
            out[b : b + len(self.coeffs)] += product(self.coeffs, rhs[b])
        return MatLaurentPoly.from_coeffs(self.min_deg + other.min_deg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, LaurentPoly)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "MatLaurentPoly":
        """A*(z) = sum conj(A_k).T z**(-k); pointwise conjugate transpose on |z|=1."""
        mats = np.conj(self.coeffs[::-1]).transpose(0, 2, 1)
        return MatLaurentPoly.from_coeffs(-self.max_deg, mats)

    def determinant(self) -> LaurentPoly:
        """det A(z): np.linalg.det on a power-of-two grid longer than its span
        n*span(A), interpolated back to degrees n*min_deg(A)...n*max_deg(A)."""
        lo, span = self.n * self.min_deg, self.n * self.span
        dets = np.linalg.det(self.eval_grid(1 << span.bit_length()))
        return LaurentPoly.from_coeffs(lo, interpolate_torus(dets, lo, span))

    # -- evaluation --------------------------------------------------------

    def eval(self, z: complex) -> np.ndarray:
        acc = np.zeros((self.n, self.n), dtype=complex)
        for m in self.coeffs[::-1]:
            acc = acc * z + m
        return acc * z ** self.min_deg

    __call__ = eval

    def eval_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        """Values on the counterclockwise grid, shape (grid_size, n, n)."""
        return sample_torus(self.min_deg, self.coeffs, grid_size)

    # -- io ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "min_deg": self.min_deg, "coeffs": _re_im_pairs(self.coeffs)}

    @staticmethod
    def from_json(obj: dict) -> "MatLaurentPoly":
        mats = [
            np.array([[complex(re, im) for re, im in row] for row in m])
            for m in obj["coeffs"]
        ]
        return MatLaurentPoly.from_coeffs(int(obj["min_deg"]), mats)


@dataclass(frozen=True)
class UnitarityReport:
    passed: bool
    max_residual: float


def is_unitary_on_torus(
    A: MatLaurentPoly, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> UnitarityReport:
    """Check max over the grid of ||A(z)*A(z) - I||_inf against tol.

    Requires grid_size >= 2*span(A) + 1 so that a vanishing residual on the
    grid certifies A*A == I identically (the residual is a Laurent polynomial
    of span at most 2*span(A)).
    """
    required = 2 * A.span + 1
    if grid_size < required:
        raise ValueError(f"grid_size {grid_size} < required {required}")
    vals = A.eval_grid(grid_size)
    prod = np.conj(np.transpose(vals, (0, 2, 1))) @ vals
    prod -= np.eye(A.n)
    residual = float(np.max(np.abs(prod)))
    return UnitarityReport(residual <= tol, residual)


def _vanishing_floor(p: LaurentPoly) -> float:
    """|p| at or below this counts as zero on the torus: 1e-9 * sum_k |c_k|,
    a fraction of the bound sum_k |c_k| >= max |p| there."""
    return 1e-9 * float(np.sum(np.abs(p.data)))


def winding_number(p: LaurentPoly, grid_size: int = DEFAULT_GRID) -> int:
    """Total argument increment of p around the (counterclockwise) torus, / 2*pi.

    Sums principal-branch phase increments; the grid is refined x4 whenever a
    single increment exceeds pi/2, so root-free curves are tracked reliably.
    p vanishes where |p| <= `_vanishing_floor(p)`, whatever the scale of p.
    """
    if p.is_zero:
        raise SingularOnTorusError("winding number of the zero polynomial is undefined")
    floor = _vanishing_floor(p)
    g = grid_size
    while True:
        vals = p.eval_grid(g)
        if np.min(np.abs(vals)) <= floor:
            raise SingularOnTorusError(
                "polynomial (nearly) vanishes on the torus; winding undefined"
            )
        closed = np.concatenate([vals, vals[:1]])
        increments = np.angle(closed[1:] / closed[:-1])
        if np.max(np.abs(increments)) <= np.pi / 2:
            total = float(np.sum(increments))
            return int(round(total / (2 * np.pi)))
        if g >= 1 << 22:
            raise SingularOnTorusError(
                "winding number did not stabilize under grid refinement"
            )
        g *= 4


def k1_class(A: MatLaurentPoly, grid_size: int = DEFAULT_GRID) -> int:
    """Winding number of det A(z); the integer homotopy invariant of A."""
    return winding_number(A.determinant(), grid_size)
