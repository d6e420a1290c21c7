"""Subband filter systems and their polyphase matrix representation.

A bank of N filters (m_0, ..., m_{N-1}) corresponds to an N x N matrix
Laurent polynomial A(z) by the exact coefficient rearrangement

    A[i, j] coefficient k   <->   coefficient (N*k + j) of m_i,

equivalently A[i, j](z) = (1/N) * sum_{w^N = z} m_i(w) w**(-j) and
m_i(z) = sum_j z**j A[i, j](z**N).  Orthogonality (the quadrature
conditions) of the bank is equivalent to unitarity of A on the torus; both
sides of that equivalence are implemented independently so they can be
checked against each other.

Filter normalization follows the sqrt(N) convention: a low-pass filter has
m_0(1) = sqrt(N), i.e. its coefficients sum to sqrt(N).  Banks built from the
classical h-convention (coefficients summing to 2 for N = 2) are bridged by
a_n = h_n / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    LaurentPoly,
    MatLaurentPoly,
    SingularOnTorusError,
    _vanishing_floor,
    interpolate_torus,
)


class NonPolynomialInverseError(ValueError):
    """det A is not a monomial, so (A*)^{-1} is not a Laurent polynomial."""

    def __init__(self, message: str, determinant: LaurentPoly):
        super().__init__(message)
        self.determinant = determinant


@dataclass(frozen=True)
class FilterBank:
    """N subband filters; filters[0] is the low-pass slot."""

    scale_n: int
    filters: tuple

    def __post_init__(self):
        if self.scale_n < 2:
            raise ValueError("scale number must be >= 2")
        if len(self.filters) != self.scale_n:
            raise ValueError(
                f"expected {self.scale_n} filters, got {len(self.filters)}"
            )

    @property
    def lowpass(self) -> LaurentPoly:
        return self.filters[0]

    def coefficients(self, band: int) -> np.ndarray:
        return self.filters[band].coeff_array()

    @staticmethod
    def haar() -> "FilterBank":
        m0 = LaurentPoly.from_coeffs(0, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        m1 = LaurentPoly.from_coeffs(0, [1 / math.sqrt(2), -1 / math.sqrt(2)])
        return FilterBank(2, (m0, m1))

    @staticmethod
    def from_lowpass(m0: LaurentPoly) -> "FilterBank":
        """Complete a two-band bank from its low-pass filter.

        Requires m0 supported on 0..2n+1 (an even tap count); the high-pass
        is the standard completion b_k = (-1)**k * conj(a_{2n+1-k}).
        """
        if m0.is_zero or m0.min_deg != 0 or len(m0.data) % 2 != 0:
            raise ValueError("low-pass filter must have support 0..2n+1")
        a = m0.coeff_array()
        top = len(a) - 1
        b = np.array(
            [(-1) ** k * np.conj(a[top - k]) for k in range(len(a))], dtype=complex
        )
        return FilterBank(2, (m0, LaurentPoly.from_coeffs(0, b)))

    def to_json(self) -> dict:
        return {
            "N": self.scale_n,
            "filters": [f.to_json() for f in self.filters],
            "convention": "sqrtN",
        }

    @staticmethod
    def from_json(obj: dict) -> "FilterBank":
        """Read a bank file; "convention" may be absent or "sqrtN", the only
        normalization read (ValueError for any other value)."""
        convention = obj.get("convention", "sqrtN")
        if convention != "sqrtN":
            raise ValueError(
                f'unsupported "convention" {convention!r}; only "sqrtN" is read'
            )
        n = int(obj["N"])
        filters = tuple(LaurentPoly.from_json(f) for f in obj["filters"])
        return FilterBank(n, filters)


@dataclass(frozen=True)
class BiorthPair:
    """Primal/dual filter banks satisfying the biorthogonal duality relations."""

    primal: FilterBank
    dual: FilterBank

    def __post_init__(self):
        if self.primal.scale_n != self.dual.scale_n:
            raise ValueError("primal and dual banks must share the scale number")


@dataclass(frozen=True)
class QmfReport:
    passed: bool
    max_residual: float
    lowpass_ok: bool


def _root_values(bank: FilterBank, grid_size: int) -> np.ndarray:
    """Filter values at the N-th roots of every grid point.

    Returns shape (N_filters, N_roots, grid_size): entry (i, k, j) is
    m_i(w_{k,j}) where {w_{k,j}}_k are the N-th roots of z_j.
    """
    n = bank.scale_n
    vals = np.stack([f.eval_grid(n * grid_size) for f in bank.filters])
    return vals.reshape(len(bank.filters), n, grid_size)


def _polyphase_span(bank: FilterBank) -> tuple[int, int]:
    """min_deg and span of polyphase_from_filters(bank), read off the filter
    degrees: coefficient d of a filter lands in degree d // N of the matrix."""
    n = bank.scale_n
    live = [f for f in bank.filters if not f.is_zero]
    if not live:
        return 0, 0
    lo = min(f.min_deg // n for f in live)
    return lo, max(f.max_deg // n for f in live) - lo


def _require_grid(grid_size: int, primal: FilterBank, dual: FilterBank) -> None:
    """The Gram residual A*(z) B(z) - I of polyphase matrices A and B is a
    Laurent polynomial of span at most span(A) + span(B); a grid of fewer
    points can alias it to zero and pass a bank that fails."""
    required = _polyphase_span(primal)[1] + _polyphase_span(dual)[1] + 1
    if grid_size < required:
        raise ValueError(f"grid_size {grid_size} < required {required}")


def check_qmf(
    bank: FilterBank, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> QmfReport:
    """Verify the quadrature conditions on a torus grid.

    The residual is the max over the grid and over filter pairs (j, k) of
    |(1/N) * sum_{w^N=z} conj(m_j(w)) m_k(w) - delta_jk|; lowpass_ok records
    whether |m_0(1) - sqrt(N)| <= tol.  Failures are reported, not raised.
    Requires grid_size >= 2*span(A) + 1 for the polyphase matrix A, the
    bound of `is_unitary_on_torus`, so that a passing residual certifies the
    conditions everywhere on the torus.
    """
    _require_grid(grid_size, bank, bank)
    n = bank.scale_n
    roots = _root_values(bank, grid_size)
    gram = np.einsum("ikg,jkg->ijg", np.conj(roots), roots) / n
    gram -= np.eye(n)[:, :, None]
    residual = float(np.max(np.abs(gram)))
    lowpass_ok = abs(bank.lowpass.eval(1.0) - math.sqrt(n)) <= tol
    return QmfReport(residual <= tol, residual, lowpass_ok)


def polyphase_from_filters(bank: FilterBank) -> MatLaurentPoly:
    """Exact index rearrangement A[i, j]_k = m_i[N*k + j]: the filters, zero
    padded into one (N, L*N) block from degree N*min_deg(A), read as (L, N, N)."""
    n = bank.scale_n
    lo, span = _polyphase_span(bank)
    block = np.zeros((n, (span + 1) * n), dtype=complex)
    for row, f in zip(block, bank.filters):
        start = f.min_deg - n * lo
        row[start : start + len(f.data)] = f.data
    return MatLaurentPoly.from_coeffs(lo, block.reshape(n, span + 1, n).transpose(1, 0, 2))


def filters_from_polyphase(A: MatLaurentPoly) -> FilterBank:
    """m_i(z) = sum_j z**j A[i, j](z**N): row i of every coefficient, read in
    (k, j) order from degree N*min_deg(A); exact inverse of polyphase_from_filters."""
    n = A.n
    rows = (A.coeffs[:, i].reshape(-1) for i in range(n))
    return FilterBank(n, tuple(LaurentPoly.from_coeffs(n * A.min_deg, r) for r in rows))


def _as_monomial(p: LaurentPoly) -> int:
    """The degree of p read as a monomial, tolerating coefficient dust below
    1e-12 relative."""
    if p.is_zero:
        raise SingularOnTorusError("determinant is identically zero")
    arr = np.abs(p.data)
    k = int(np.argmax(arr))
    if np.any(np.delete(arr, k) > 1e-12 * arr[k]):
        raise NonPolynomialInverseError(
            "determinant is not a monomial; the inverse polyphase matrix "
            "is not FIR",
            p,
        )
    return p.min_deg + k


def inverse_of_monomial_det(A: MatLaurentPoly) -> MatLaurentPoly:
    """A^{-1} = adj(A) / (c z**d) when det A = c z**d: the pointwise inverse on
    a grid longer than (n-1)*span(A), read back at degrees (n-1)*min_deg(A) - d..."""
    deg = _as_monomial(A.determinant())
    lo, span = (A.n - 1) * A.min_deg - deg, (A.n - 1) * A.span
    inv = np.linalg.inv(A.eval_grid(1 << span.bit_length()))
    return MatLaurentPoly.from_coeffs(lo, interpolate_torus(inv, lo, span))


def dual_filters(A: MatLaurentPoly, grid_size: int = DEFAULT_GRID) -> BiorthPair:
    """Primal bank of A together with the dual bank of (A*)^{-1}.

    Only FIR duals are supported: det A must be a monomial (then the adjugate
    divided by the determinant is again a Laurent polynomial).  det A must
    also be bounded away from zero on the torus, relative to its scale.
    """
    det = A.determinant()
    if det.is_zero or np.min(np.abs(det.eval_grid(grid_size))) <= _vanishing_floor(det):
        raise SingularOnTorusError("det A (nearly) vanishes on the torus")
    _as_monomial(det)  # raises with det A attached when the inverse is not FIR
    dual_mat = inverse_of_monomial_det(A.adjoint())
    return BiorthPair(filters_from_polyphase(A), filters_from_polyphase(dual_mat))


def biorthogonality_residual(pair: BiorthPair, grid_size: int = DEFAULT_GRID) -> float:
    """Max deviation of (1/N) sum_{w^N=z} conj(m_i(w)) mdual_j(w) from delta_ij.

    Requires grid_size >= span(A) + span(B) + 1 for the primal and dual
    polyphase matrices A and B (2*span(A) + 1 when they are alike).
    """
    _require_grid(grid_size, pair.primal, pair.dual)
    n = pair.primal.scale_n
    prim = _root_values(pair.primal, grid_size)
    dual = _root_values(pair.dual, grid_size)
    gram = np.einsum("ikg,jkg->ijg", np.conj(prim), dual) / n
    gram -= np.eye(n)[:, :, None]
    return float(np.max(np.abs(gram)))
