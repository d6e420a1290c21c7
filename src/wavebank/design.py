"""Constructive filter design.

Three construction routes are implemented:

* products of degree-one projection factors V * prod_j (1 - Q_j + z*Q_j),
  which parametrize every two-band orthogonal bank of a given support;
* the closed-form four-tap bank with two vanishing moments (h-coefficients
  (1+sqrt3)/4, (3+sqrt3)/4, (3-sqrt3)/4, (1-sqrt3)/4, stored in the
  sqrt(N) convention a_n = h_n/sqrt2);
* the two-angle six-tap family, available both as a closed form for the
  masking coefficients and as the matrix product V * U_theta(z) * U_rho(z)
  (the two routes agree coefficient-wise and are cross-checked in tests).

The lifting machinery factors any 2 x 2 matrix Laurent polynomial with
det == 1 into a constant diag(K, 1/K) followed by alternating lower/upper
triangular steps, by Euclidean reduction on one row of the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .filterbank import FilterBank, filters_from_polyphase
from .laurent import LaurentPoly, MatLaurentPoly, _trim_ends, coeff_product

V_HAAR = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class FactorizationError(RuntimeError):
    """Lifting factorization stalled; carries the residual matrix."""

    def __init__(self, message: str, residual: MatLaurentPoly):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ProjectionParam:
    """Rank-one projection parameters: lam in [0, 1], theta in [0, 2*pi)."""

    lam: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not 0.0 <= self.theta < 2 * math.pi:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")


def projection(param: ProjectionParam) -> np.ndarray:
    """The rank-one orthogonal projection with diagonal (lam, 1-lam)."""
    lam, theta = param.lam, param.theta
    off = math.sqrt(lam * (1.0 - lam))
    return np.array(
        [
            [lam, off * np.exp(1j * theta)],
            [off * np.exp(-1j * theta), 1.0 - lam],
        ]
    )


def general_factor(P: np.ndarray) -> MatLaurentPoly:
    """Degree-one unitary factor z*P + (I - P) for a rank-one projection P."""
    P = np.asarray(P, dtype=complex)
    n = P.shape[0]
    idem = float(np.max(np.abs(P @ P - P)))
    herm = float(np.max(np.abs(P - np.conj(P).T)))
    tr = abs(np.trace(P) - 1.0)
    if max(idem, herm, tr) > 1e-12:
        raise ValueError(
            "input is not a rank-one orthogonal projection "
            f"(||P^2-P||={idem:.2e}, ||P-P*||={herm:.2e}, |tr P - 1|={tr:.2e})"
        )
    return MatLaurentPoly.from_coeffs(0, [np.eye(n) - P, P])


def dft_matrix(nbands: int) -> np.ndarray:
    """Constant prefactor for nbands > 2: H[k, l] = exp(2i*pi*k*l/N)/sqrt(N)."""
    k, l = np.meshgrid(np.arange(nbands), np.arange(nbands), indexing="ij")
    return np.exp(2j * np.pi * k * l / nbands) / math.sqrt(nbands)


def _projection_product(projections: Sequence[np.ndarray]) -> MatLaurentPoly:
    """V * prod_j (I - P_j + z*P_j) on one coefficient array, trimmed once: the
    product of unchecked `general_factor`s, bitwise, unless their chain would
    trim a nonzero end term between factors (rounding dust, kept here)."""
    C = V_HAAR.astype(complex)[None]
    P = np.reshape(projections, (-1, 2, 2))
    for factor in np.stack((np.eye(2) - P, P), axis=1):
        C = coeff_product(C, factor, np.matmul)
    return MatLaurentPoly.from_coeffs(0, C)


def unitary_from_projections(params: Sequence[ProjectionParam]) -> MatLaurentPoly:
    """A(z) = V * prod_j (1 - Q_j + z*Q_j) for two-band banks.

    The product of k factors is unitary on the torus, has polynomial degree
    at most k, and winding class k: det A is c*z^k up to rounding (each
    factor has determinant z), which `k1_class` certifies by Rouche's theorem.
    """
    return _projection_product([projection(param) for param in params])


def bank_from_projections(params: Sequence[ProjectionParam]) -> FilterBank:
    return filters_from_polyphase(unitary_from_projections(params))


def daubechies4() -> FilterBank:
    """Four-tap orthogonal bank with two vanishing moments, support [0, 3].

    The classical h-coefficients ((1+sqrt3)/4, (3+sqrt3)/4, (3-sqrt3)/4,
    (1-sqrt3)/4) sum to 2; they are stored here in the sqrt(N) convention,
    a_n = h_n / sqrt(2), so the low-pass evaluates to sqrt(2) at z = 1.
    """
    s3 = math.sqrt(3.0)
    h = np.array([(1 + s3) / 4, (3 + s3) / 4, (3 - s3) / 4, (1 - s3) / 4])
    return FilterBank.from_lowpass(
        LaurentPoly.from_coeffs(0, h / math.sqrt(2.0))
    )


def rotation_projection(angle: float) -> np.ndarray:
    """Real rank-one projection onto span of (cos angle, sin angle); the
    angle must be finite (ValueError)."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def six_tap_coefficients(theta: float, rho: float) -> np.ndarray:
    """Closed form for the six masking coefficients of the two-angle family."""
    return _six_tap_coeff_grid(np.array([theta]), np.array([rho]))[0, 0]


def six_tap_polyphase(theta: float, rho: float) -> MatLaurentPoly:
    """A(z) = V * (Q_theta^perp + z Q_theta) * (Q_rho^perp + z Q_rho)."""
    return _projection_product([rotation_projection(theta), rotation_projection(rho)])


def six_tap_from_angles(theta: float, rho: float) -> FilterBank:
    """Six-tap orthogonal bank of the two-angle family (angles taken mod 2*pi)."""
    return filters_from_polyphase(six_tap_polyphase(theta, rho))


def _six_tap_coeff_grid(thetas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The six-tap closed form over a meshgrid; shape (len(thetas), len(rhos), 6)."""
    r = math.sqrt(2.0)
    th = thetas[:, None]
    rh = rhos[None, :]
    e0 = np.full(np.broadcast_shapes(th.shape, rh.shape), 1 / r)
    e1 = (np.cos(2 * th) + np.cos(2 * rh)) / r
    e2 = (np.sin(2 * th) + np.sin(2 * rh)) / r
    e3 = np.cos(2 * th - 2 * rh) / r
    e4 = np.sin(2 * th - 2 * rh) / r
    return np.stack(
        [
            (e0 - e1 - e2 + e3 + e4) / 4,
            (e0 + e1 - e2 + e3 - e4) / 4,
            (e0 - e3 - e4) / 2,
            (e0 - e3 + e4) / 2,
            (e0 + e1 + e2 + e3 + e4) / 4,
            (e0 - e1 + e2 + e3 - e4) / 4,
        ],
        axis=-1,
    )


def find_angles_for_bank(target: FilterBank) -> tuple[float, float, float]:
    """Grid-search the two-angle family for the closest match to target's low-pass.

    Scans a 360 x 360 lattice over [0, 2*pi)^2, then refines once by a
    factor 10 around the best cell.  Returns (theta, rho, distance)
    where distance is the max abs coefficient difference on taps 0..5.
    """
    grid, refine = 360, 10
    want = np.zeros(6)
    arr = target.lowpass.coeff_array()
    if target.lowpass.min_deg != 0 or len(arr) > 6 or np.max(np.abs(arr.imag)) > 0:
        raise ValueError("target low-pass must be real with support inside 0..5")
    want[: len(arr)] = arr.real

    def search(thetas: np.ndarray, rhos: np.ndarray) -> tuple[float, float, float]:
        dists = np.max(np.abs(_six_tap_coeff_grid(thetas, rhos) - want), axis=-1)
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        return float(dists[i, j]), float(thetas[i]), float(rhos[j])

    step = 2 * math.pi / grid
    coarse = np.arange(grid) * step
    d, th0, rh0 = search(coarse, coarse)
    fine = step / refine
    offsets = np.arange(-refine, refine + 1) * fine
    d2, th, rh = search(th0 + offsets, rh0 + offsets)
    if d2 < d:
        d, best_th, best_rh = d2, th, rh
    else:
        best_th, best_rh = th0, rh0
    return best_th % (2 * math.pi), best_rh % (2 * math.pi), d


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------

_EFFECTIVE_ZERO = 1e-12


@dataclass(frozen=True)
class LiftingStep:
    """One factor of a lifting chain.

    kind "lower" is [[1, 0], [poly, 1]], kind "upper" is [[1, poly], [0, 1]],
    kind "diag" is [[k, 0], [0, 1/k]] with k != 0.
    """

    kind: str
    poly: Optional[LaurentPoly] = None
    k_const: Optional[complex] = None

    def __post_init__(self):
        if self.kind in ("lower", "upper"):
            if self.poly is None or self.k_const is not None:
                raise ValueError(f"{self.kind} step carries a polynomial only")
        elif self.kind == "diag":
            if self.k_const is None or self.poly is not None:
                raise ValueError("diag step carries a nonzero constant only")
            if self.k_const == 0:
                raise ValueError("diag constant must be nonzero")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")

    def matrix(self) -> MatLaurentPoly:
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        if self.kind == "lower":
            return MatLaurentPoly.from_entries([[one, zero], [self.poly, one]])
        if self.kind == "upper":
            return MatLaurentPoly.from_entries([[one, self.poly], [zero, one]])
        k = complex(self.k_const)
        return MatLaurentPoly.from_constant(np.array([[k, 0], [0, 1 / k]]))

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        if self.poly is not None:
            obj["poly"] = self.poly.to_json()
        if self.k_const is not None:
            k = complex(self.k_const)
            obj["k"] = [k.real, k.imag]
        return obj

    @staticmethod
    def from_json(obj: dict) -> "LiftingStep":
        kind = obj["kind"]
        if kind == "diag":
            re, im = obj["k"]
            k = complex(re, im)
            if not np.isfinite(k):
                raise ValueError("diag constant must be finite")
            return LiftingStep(kind, k_const=k)
        return LiftingStep(kind, poly=LaurentPoly.from_json(obj["poly"]))


def lifting_recompose(steps: Sequence[LiftingStep]) -> MatLaurentPoly:
    """Ordered matrix product of the steps (empty sequence gives the identity)."""
    A = MatLaurentPoly.identity(2)
    for step in steps:
        A = A * step.matrix()
    return A


def _is_effectively_zero(p: LaurentPoly) -> bool:
    return p.max_abs_coeff() < _EFFECTIVE_ZERO


def _strip_relative_dust(p: LaurentPoly, scale: float) -> LaurentPoly:
    """Trim end coefficients below 1e-13 * scale so rounding dust left over
    from earlier cancellations can never be promoted to a division pivot."""
    return LaurentPoly.from_coeffs(*_trim_ends(p.min_deg, p.data, 1e-13 * scale))


def _monomial_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Monomial q with span(f - q*g) < span(f), cancelling one end term of f
    against the matching end of g (requires span(g) <= span(f)).

    Both ends qualify; the quotient with the smaller magnitude is taken for
    numerical stability, ties broken toward cancelling the highest exponent.
    """
    q_top = f.coeff(f.max_deg) / g.coeff(g.max_deg)
    q_bot = f.coeff(f.min_deg) / g.coeff(g.min_deg)
    if abs(q_bot) < abs(q_top):
        return LaurentPoly.monomial(f.min_deg - g.min_deg, q_bot)
    return LaurentPoly.monomial(f.max_deg - g.max_deg, q_top)


def _push_step(steps: list, kind: str, poly: LaurentPoly) -> None:
    # merge with a preceding step of the same kind; drop zero steps
    if _is_effectively_zero(poly):
        return
    if steps and steps[0].kind == kind:
        poly = steps[0].poly + poly
        steps.pop(0)
        if _is_effectively_zero(poly):
            return
    steps.insert(0, LiftingStep(kind, poly=poly))


def _monomial_diag_steps(p: int) -> list:
    """Elementary steps multiplying to diag(z**p, z**-p)."""
    if p == 0:
        return []
    zp = LaurentPoly.monomial(p)
    steps = []
    _push_step(steps, "upper", LaurentPoly.monomial(0, -1.0))
    _push_step(steps, "lower", LaurentPoly.one())
    _push_step(steps, "upper", zp + LaurentPoly.monomial(0, -1.0))
    _push_step(steps, "lower", LaurentPoly.monomial(-p, -1.0))
    _push_step(steps, "upper", zp)
    return steps


def lifting_factorize(A: MatLaurentPoly) -> list:
    """Factor a 2 x 2 matrix Laurent polynomial with det == 1 into lifting steps.

    Returns [diag(K), step, step, ...] whose ordered product reproduces A.
    Works by Euclidean reduction on the top row: column operations subtract a
    monomial multiple of one entry from the other, strictly shrinking the
    combined degree span, until the row is (constant, 0); each operation is
    emitted as a lower or upper step (consecutive same-kind steps merge).
    Each reduction cancels whichever end term of the longer entry yields the
    smaller quotient, and rounding dust is trimmed relative to the working
    row's scale, keeping the recomposition residual near machine precision.

    Raises ValueError when det A != 1 and FactorizationError if the
    reduction stalls.
    """
    if A.n != 2:
        raise ValueError("lifting factorization is defined for 2 x 2 matrices")
    det = A.determinant()
    if not det.approx_eq(LaurentPoly.one(), 1e-10):
        raise ValueError("determinant must be identically 1 for lifting")

    entries = [[A.entry(i, j) for j in range(2)] for i in range(2)]
    steps: list = []

    def apply_upper(u: LaurentPoly) -> None:
        # col2 <- col2 - u * col1, i.e. strip an upper factor with poly u
        entries[0][1] = entries[0][1] - u * entries[0][0]
        entries[1][1] = entries[1][1] - u * entries[1][0]
        _push_step(steps, "upper", u)

    def apply_lower(l: LaurentPoly) -> None:
        # col1 <- col1 - l * col2
        entries[0][0] = entries[0][0] - l * entries[0][1]
        entries[1][0] = entries[1][0] - l * entries[1][1]
        _push_step(steps, "lower", l)

    guard = 0
    max_iters = 16 * (A.span + 2) + 64
    while True:
        guard += 1
        if guard > max_iters:
            raise FactorizationError(
                "degree reduction stalled",
                MatLaurentPoly.from_entries(entries),
            )
        scale = max(entries[0][0].max_abs_coeff(), entries[0][1].max_abs_coeff())
        entries[0][0] = _strip_relative_dust(entries[0][0], scale)
        entries[0][1] = _strip_relative_dust(entries[0][1], scale)
        a, b = entries[0][0], entries[0][1]
        if _is_effectively_zero(b):
            break
        if _is_effectively_zero(a):
            # make the (0,0) slot usable, then continue reducing
            apply_lower(LaurentPoly.monomial(0, -1.0))
            continue
        if a.span == 0:
            # a is a unit; one exact division kills b entirely
            apply_upper(b * LaurentPoly.monomial(-a.min_deg, 1.0 / a.coeff(a.min_deg)))
        elif b.span >= a.span:
            apply_upper(_monomial_quotient(b, a))
        else:
            apply_lower(_monomial_quotient(a, b))

    a = entries[0][0]
    if a.span != 0:
        raise FactorizationError(
            "top-left entry failed to reduce to a monomial",
            MatLaurentPoly.from_entries(entries),
        )
    power = a.min_deg
    K = a.coeff(a.min_deg)
    # remaining matrix is [[K z^p, 0], [c, (1/K) z^-p]]; strip the lower-left,
    # then expand diag(z^p, z^-p) into elementary steps
    c = entries[1][0]
    if not _is_effectively_zero(c):
        _push_step(steps, "lower", c * LaurentPoly.monomial(power, K))
    steps = _monomial_diag_steps(power) + steps
    return [LiftingStep("diag", k_const=K)] + steps


def lifting_step_on_filters(bank: FilterBank, step: LiftingStep) -> FilterBank:
    """Apply one lifting step directly to a two-band filter pair.

    lower: m1 <- m1 + l(z**2) * m0;  upper: m0 <- m0 + u(z**2) * m1;
    diag: (m0, m1) <- (K*m0, m1/K).  Matches left-multiplying the polyphase
    matrix by the step matrix.
    """
    if bank.scale_n != 2:
        raise ValueError("lifting steps act on two-band banks")
    m0, m1 = bank.filters
    if step.kind == "lower":
        return FilterBank(2, (m0, m1 + step.poly.compose_power(2) * m0))
    if step.kind == "upper":
        return FilterBank(2, (m0 + step.poly.compose_power(2) * m1, m1))
    k = complex(step.k_const)
    return FilterBank(2, (m0.scale(k), m1.scale(1 / k)))
