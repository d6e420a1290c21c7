"""Coefficient algebra for scalar and matrix Laurent polynomials on the torus.

`Block`, an integer offset plus one read-only complex ndarray, represents
every finitely supported sequence in the package (these polynomials,
`operators.Signal`, `cascade.GridFunction`) and owns their equality, hashing,
index lookup, index maps and termwise algebra (`+`, `-`, negation, `scale`);
`_trim_ends` is their one end trim.  The index maps are `Block.window` (the
terms at lo..hi - 1, zero outside), `Block.upsampled` (index k to N k) and its
adjoint `decimate` (index N k to k, other terms dropped).  A polynomial's
offset is its lowest exponent and its array has shape (span + 1,), or
(span + 1, n, n) for `MatLaurentPoly`.  Arithmetic is exact coefficient
arithmetic (complex doubles); `from_coeffs`, the one constructor, trims end
terms of modulus below ``CANONICAL_EPS`` (a matrix term by its largest entry)
so degree bookkeeping stays stable after round trips.

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
    """Operands have incompatible matrix dimensions (or other `Block._key` fields)."""


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
    return np.fft.ifft(folded, axis=0, norm="forward")  # unscaled: no 1/G factor


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


def _trim_ends(offset: int, arr: np.ndarray, floor: float) -> tuple[int, np.ndarray]:
    """(offset, arr) without the end terms of modulus below floor, a matrix
    term measured by its largest entry; a floor of 0 trims exact zeros only,
    and NaN terms are kept.  When no term is kept the view is empty and
    offset is 0.  The two end terms are tested first, as scalars (cheaper than
    numpy calls at that size), so a vector with nothing to trim costs O(1)."""
    terms = np.abs(arr).max(axis=tuple(range(1, arr.ndim))) if arr.ndim > 1 else arr
    if not len(terms):
        return 0, arr
    first, last = terms[0], terms[-1]
    if not (abs(first) < floor or first == 0 or abs(last) < floor or last == 0):
        return offset, arr
    keep = np.flatnonzero(~((np.abs(terms) < floor) | (terms == 0)))
    if not len(keep):
        return 0, arr[:0]
    return offset + int(keep[0]), arr[keep[0] : keep[-1] + 1]


def decimate(offset: int, arr: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """(ceil(offset / n), a view of the terms of arr at indices divisible by n),
    term i of arr at index offset + i; index n * k becomes k."""
    first = -(-offset // n)
    return first, arr[n * first - offset :: n]


def _checked(block, obj: dict):
    """block, read from the JSON obj, refused (ValueError) when a term holds a
    NaN or an infinity, which json reads from NaN, Infinity and 1e999, or when
    a degree from min_deg to min_deg + len(coeffs) - 1 falls outside int64."""
    if not np.isfinite(block.data).all():
        raise ValueError("coefficients must be finite")
    lo, hi = int(obj["min_deg"]), int(obj["min_deg"]) + len(obj["coeffs"]) - 1
    if lo < np.iinfo(np.int64).min or hi > np.iinfo(np.int64).max:
        raise ValueError(f"min_deg {lo}: degrees {lo}..{hi} do not all fit in int64")
    return block


@dataclass(frozen=True, eq=False)
class Block:
    """Terms from an integer index on: data[i] sits at index offset + i.

    `data` is one read-only complex ndarray, 1-D or a stack of matrices along
    axis 0, which operations slice and share without copying.  Equality and
    hashing compare the exact type, the offset, the fields named in `_key`,
    the array shape and the values (-0.0 hashes like 0.0, which it equals).
    `+`, `-`, negation and `scale` build their result with `_like(offset,
    arr)`, the subclass's constructor given self's `_key` fields.
    """

    offset: int
    data: np.ndarray

    _key = ()  # further fields that equality and hashing compare

    def _ident(self) -> tuple:
        return (self.offset, *(getattr(self, k) for k in self._key))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._ident() == other._ident() and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((type(self), self._ident(), self.data.shape, (self.data + 0.0).tobytes()))

    @property
    def end(self) -> int:
        """Index one past the last stored term."""
        return self.offset + len(self.data)

    @property
    def is_zero(self) -> bool:
        return not len(self.data)

    @property
    def span(self) -> int:
        """Index of the last term minus that of the first; 0 when empty."""
        return max(len(self.data) - 1, 0)

    @property
    def terms(self) -> tuple:
        """`data` as a tuple of Python complex numbers."""
        return tuple(self.data.tolist())

    def array(self) -> np.ndarray:
        return self.data

    def at(self, index: int):
        """The term at `index`, zero outside the stored block: a complex, or
        a new array for a matrix term."""
        k = index - self.offset
        if 0 <= k < len(self.data):
            return complex(self.data[k]) if self.data.ndim == 1 else np.array(self.data[k])
        return 0j if self.data.ndim == 1 else np.zeros(self.data.shape[1:], dtype=complex)

    def _require_compatible(self, other: "Block") -> None:
        mine = (self.data.shape[1:], *[getattr(self, k) for k in self._key])
        theirs = (other.data.shape[1:], *[getattr(other, k) for k in self._key])
        if mine != theirs:
            names = ("matrix shape", *self._key)
            raise DimensionMismatchError(f"operands differ in {names}: {mine} vs {theirs}")

    def window(self, lo: int, hi: int) -> np.ndarray:
        """A new array of the terms at indices lo..hi - 1 (empty when hi <= lo),
        zero outside the stored block.  The terms are added into zeros, not
        copied, so -0.0 terms come out as 0.0."""
        out = np.zeros((max(hi - lo, 0),) + self.data.shape[1:], dtype=complex)
        first, last = max(lo, self.offset), min(hi, self.end)
        if first < last:
            out[first - lo : last - lo] += self.data[first - self.offset : last - self.offset]
        return out

    def padded(self, other: "Block") -> tuple[int, np.ndarray, np.ndarray]:
        """(lo, a, b): the `window`s of self and other, two compatible blocks,
        on their common support lo..max(end) - 1, so a + b rounds exactly like
        the terms summed into one zero array."""
        self._require_compatible(other)
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        return lo, self.window(lo, hi), other.window(lo, hi)

    def upsampled(self, n: int) -> tuple[int, np.ndarray]:
        """(n * offset, arr): the term at index k moved to index n * k, with
        zeros in between (an empty block stays empty)."""
        out = np.zeros(max(n * len(self.data) - n + 1, 0), dtype=complex)
        out[::n] = self.data
        return n * self.offset, out

    def __add__(self, other: "Block") -> "Block":
        """Termwise sum; an operand with no stored terms returns the other one
        itself, whose -0.0 terms padding would turn into 0.0."""
        if type(other) is not type(self):
            return NotImplemented
        if not len(self.data):
            return other
        if not len(other.data):
            return self
        lo, a, b = self.padded(other)
        a += b
        return self._like(lo, a)

    def __neg__(self) -> "Block":
        return self._like(self.offset, -self.data)

    def __sub__(self, other: "Block") -> "Block":
        return self + (-other)

    def scale(self, s: complex) -> "Block":
        return self._like(self.offset, s * self.data)

    def _horner(self, z):
        """sum_k data[k] * z**(offset + k) by Horner's rule on the terms, then
        the z**offset prefactor: an array of z's shape times a term's shape."""
        acc = np.zeros(np.shape(z) + self.data.shape[1:], dtype=complex)
        for c in self.data[::-1]:
            acc = acc * z + c
        return acc * z**self.offset


@dataclass(frozen=True, eq=False)
class LaurentPoly(Block):
    """m(z) = sum_k data[k] * z**(min_deg + k), finitely supported.

    A `Block` whose offset is min_deg; `coeffs` is the tuple-of-complex view
    of `data`.  Build polynomials with `from_coeffs`, which copies, freezes
    and trims end terms of modulus below CANONICAL_EPS.  The zero polynomial
    has an empty array and min_deg 0.
    """

    @staticmethod
    def from_coeffs(min_deg: int, coeffs: Iterable[complex]) -> "LaurentPoly":
        return LaurentPoly(*_trim_ends(min_deg, frozen_vector(coeffs), CANONICAL_EPS))

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

    coeffs = Block.terms
    coeff = Block.at  # coefficient of z**degree (0 outside the stored block)

    @property
    def min_deg(self) -> int:
        return self.offset

    @property
    def max_deg(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.end - 1

    coeff_array = Block.array

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.data), initial=0.0))

    # -- algebra -----------------------------------------------------------

    def _like(self, offset: int, arr: np.ndarray) -> "LaurentPoly":
        return LaurentPoly.from_coeffs(offset, arr)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.is_zero or other.is_zero:
                return LaurentPoly.zero()
            conv = np.convolve(self.data, other.data)
            return LaurentPoly.from_coeffs(self.min_deg + other.min_deg, conv)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # a scalar times self

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
        return LaurentPoly.from_coeffs(*self.upsampled(n))

    # -- evaluation --------------------------------------------------------

    def eval(self, z):
        """Evaluate at z (scalar or array-like); exact 0 for the zero
        polynomial, in the shape of z."""
        acc = self._horner(np.asarray(z, dtype=complex))
        return complex(acc) if acc.ndim == 0 else acc

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
        return _checked(LaurentPoly.from_coeffs(int(obj["min_deg"]), coeffs), obj)


def _re_im_pairs(arr: np.ndarray) -> list:
    """arr as nested lists with each complex entry a [real, imag] pair."""
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def coeff_product(lhs: np.ndarray, rhs: np.ndarray, product) -> np.ndarray:
    """Untrimmed coefficient convolution out[a + b] = sum product(lhs[a],
    rhs[b]), one batched product per coefficient of rhs.  Taking b downward
    adds the terms of each out[k] in increasing a, and lhs[a] stays the left
    factor: numpy's complex multiply is not bitwise commutative, so this
    fixes the rounding."""
    out = np.zeros((len(lhs) + len(rhs) - 1,) + lhs.shape[1:], dtype=complex)
    for b in range(len(rhs) - 1, -1, -1):
        out[b : b + len(lhs)] += product(lhs, rhs[b])
    return out


@dataclass(frozen=True, eq=False)
class MatLaurentPoly(Block):
    """Square-matrix-valued Laurent polynomial A(z) = sum_k A_k z**(min_deg+k).

    A `Block` whose offset is min_deg and whose `data` (also `coeffs`) has
    shape (span + 1, n, n), data[k] = A_k.  Build matrices with
    `from_coeffs`, which copies, freezes and trims end matrices whose largest
    entry is below CANONICAL_EPS; the zero matrix keeps one zero coefficient
    at degree 0.
    """

    @staticmethod
    def from_coeffs(min_deg: int, mats: Sequence[np.ndarray]) -> "MatLaurentPoly":
        arr = np.array(mats, dtype=complex)
        if arr.ndim != 3 or not len(arr) or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"need a nonempty stack of square matrices of one size, got shape {arr.shape}"
            )
        lo, kept = _trim_ends(min_deg, arr, CANONICAL_EPS)
        if not len(kept):
            kept = np.zeros_like(arr[:1])
        kept.flags.writeable = False
        return MatLaurentPoly(lo, kept)

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
        live = [p for row in polys for p in row if not p.is_zero]
        lo = min((p.offset for p in live), default=0)
        hi = max((p.end for p in live), default=1)
        mats = np.zeros((hi - lo, n, n), dtype=complex)
        for i, row in enumerate(polys):
            for j, p in enumerate(row):  # a zero entry stores no terms
                mats[p.offset - lo : p.end - lo, i, j] = p.data
        return MatLaurentPoly.from_coeffs(lo, mats)

    # -- structure ---------------------------------------------------------

    min_deg = LaurentPoly.min_deg
    coeff = Block.at  # new array A_degree (zeros outside the stored block)
    coeffs = property(Block.array)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def max_deg(self) -> int:
        return self.end - 1

    @property
    def is_zero(self) -> bool:
        # the zero matrix keeps one zero term, so the stored block is not empty
        return bool(np.all(np.abs(self.data) < CANONICAL_EPS))

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self.min_deg, self.data[:, i, j])

    # -- algebra -----------------------------------------------------------

    def _like(self, offset: int, arr: np.ndarray) -> "MatLaurentPoly":
        return MatLaurentPoly.from_coeffs(offset, arr)

    def __mul__(self, other):
        """The `coeff_product` of the coefficients (A_a * b_b for a scalar
        polynomial b), trimmed by `from_coeffs`."""
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, MatLaurentPoly):
            self._require_compatible(other)
            rhs, product = other.coeffs, np.matmul
        elif isinstance(other, LaurentPoly):
            if other.is_zero:
                return MatLaurentPoly.from_constant(np.zeros((self.n, self.n)))
            rhs, product = other.data, np.multiply
        else:
            return NotImplemented
        out = coeff_product(self.coeffs, rhs, product)
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

    eval = __call__ = Block._horner  # A(z) at one point z, an (n, n) array

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
        return _checked(MatLaurentPoly.from_coeffs(int(obj["min_deg"]), mats), obj)


@dataclass(frozen=True)
class UnitarityReport:
    passed: bool
    max_residual: float


def is_unitary_on_torus(
    A: MatLaurentPoly, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> UnitarityReport:
    """Check max over the grid of ||A(z)*A(z) - I||_inf against tol.

    The residual A*A - I, Hermitian on the torus, is built on and above the
    diagonal as an exact, untrimmed Laurent polynomial of span 2*span(A) by
    `coeff_product` and sampled once.  Requires grid_size >= 2*span(A) + 1 so
    that a vanishing residual on the grid certifies A*A == I identically.
    """
    required = 2 * A.span + 1
    if grid_size < required:
        raise ValueError(f"grid_size {grid_size} < required {required}")
    rows, cols = np.nonzero(np.tri(A.n, dtype=bool).T)
    adj = A.adjoint().coeffs  # A*, from degree -max_deg(A)
    prod = coeff_product(adj, A.coeffs, np.matmul)[:, rows, cols]
    prod[A.span] -= rows == cols  # degree 0 of A*A, whose lowest degree is -span(A)
    residual = float(np.max(np.abs(sample_torus(-A.span, prod, grid_size))))
    return UnitarityReport(residual <= tol, residual)


def _vanishing_floor(p: LaurentPoly) -> float:
    """|p| at or below this counts as zero on the torus: 1e-9 * sum_k |c_k|,
    a fraction of the bound sum_k |c_k| >= max |p| there."""
    return 1e-9 * float(np.sum(np.abs(p.data)))


def winding_number(p: LaurentPoly, grid_size: int = DEFAULT_GRID) -> int:
    """Total argument increment of p around the (counterclockwise) torus, / 2*pi.

    Certified: when one coefficient's modulus exceeds the sum of the others'
    by more than `_vanishing_floor(p)`, it is that term's exponent (Rouche).
    Otherwise q = z**-min_deg * p is sampled on grids refined x4 (up to 2**22)
    until |q| > L*pi/G at all G samples, L = sum_k |k*c_k| over q's terms, so
    that each principal phase increment is the true one; min_deg is added.
    p vanishes where |p| <= `_vanishing_floor(p)`, whatever the scale of p.
    """
    if p.is_zero:
        raise SingularOnTorusError("winding number of the zero polynomial is undefined")
    floor = _vanishing_floor(p)
    mags = np.abs(p.data)
    if 2 * mags.max() - mags.sum() > floor:  # the largest |c_k| minus the others
        return p.min_deg + int(np.argmax(mags))
    lipschitz = float(np.sum(np.arange(len(mags)) * mags))  # bounds |d q(e^it) / dt|
    g = grid_size
    while True:
        vals = sample_torus(0, p.data, g)
        if np.min(np.abs(vals)) <= floor:
            raise SingularOnTorusError(
                "polynomial (nearly) vanishes on the torus; winding undefined"
            )
        if np.min(np.abs(vals)) > lipschitz * np.pi / g:
            increments = np.angle(np.roll(vals, -1) / vals)
            return p.min_deg + int(round(float(np.sum(increments)) / (2 * np.pi)))
        if g >= 1 << 22:
            raise SingularOnTorusError(
                "winding number did not stabilize under grid refinement"
            )
        g *= 4


def k1_class(A: MatLaurentPoly, grid_size: int = DEFAULT_GRID) -> int:
    """Winding number of det A(z), the integer homotopy invariant of A; det A
    = c*z^k of a unitary A is certified by Rouche's theorem, without sampling."""
    return winding_number(A.determinant(), grid_size)
