"""Sequence-domain algorithms: sampling, subband analysis/synthesis, pyramids,
wavelet packets, and the big unitary wavelet matrix.

Signals are finitely supported sequences on the integers; convolutions grow
support and nothing is periodized.  The subband operators use the unitary
normalization (a two-point Haar average is (a+b)/sqrt(2), not (a+b)/2): the
function-side convention that splits f into halves carries an extra
1/sqrt(2) from expanding in the unscaled dilate, while the sequence-side
operators here realize genuine isometries, so energy is preserved exactly.

Band j of `analyze` is the adjoint isometry applied to the input,
(band_j)_n = sum_k conj(a^{(j)}_k) c_{N n + k}; `synthesize` is the sum of
the forward isometries, filter convolution after upsampling.

Packet leaves are labeled (depth k, index n) with the index built from the
band digits most-significant first (children of (k, n) are (k+1, n*N+band)),
so every leaf owns a contiguous block of depth-d indices.  Consequently the
full-depth two-tap packet transform reproduces the Sylvester-Hadamard matrix
with bit-reversed row labels (the Walsh/sequency order is yet another
relabeling; none is enforced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .filterbank import FilterBank
from .laurent import LaurentPoly, frozen_vector


@dataclass(frozen=True, eq=False)
class Signal:
    """Finite complex sequence; data[i] sits at integer index offset + i.

    The samples are one read-only complex ndarray, `data`, which operations
    slice and share without copying; `samples` is its tuple-of-complex view.
    Canonical form trims leading and trailing exact zeros (the all-zero
    signal has an empty array and offset 0).  Build signals with
    `from_samples`, which copies, trims and freezes its input.  Equality and
    hashing compare the offset and the sample values.
    """

    offset: int
    data: np.ndarray

    @staticmethod
    def from_samples(offset: int, samples: Iterable[complex]) -> "Signal":
        arr = frozen_vector(samples)
        nonzero = np.flatnonzero(arr)
        if not len(nonzero):
            return Signal.zero()
        lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
        return Signal(offset + lo, arr[lo:hi])

    @staticmethod
    def zero() -> "Signal":
        return Signal(0, frozen_vector(()))

    @staticmethod
    def impulse(index: int = 0) -> "Signal":
        return Signal(index, frozen_vector((1.0,)))

    @property
    def samples(self) -> tuple:
        return tuple(self.data.tolist())

    @property
    def is_zero(self) -> bool:
        return not len(self.data)

    @property
    def end(self) -> int:
        """Index one past the last stored sample."""
        return self.offset + len(self.data)

    def sample_array(self) -> np.ndarray:
        return self.data

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((self.offset, (self.data + 0.0).tobytes()))

    def at(self, index: int) -> complex:
        if self.is_zero or index < self.offset or index >= self.end:
            return 0.0 + 0.0j
        return complex(self.data[index - self.offset])

    def energy(self) -> float:
        if self.is_zero:
            return 0.0
        return float(np.sum(np.abs(self.sample_array()) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.energy()))

    def __add__(self, other: "Signal") -> "Signal":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        out = np.zeros(hi - lo, dtype=complex)
        out[self.offset - lo : self.end - lo] += self.data
        out[other.offset - lo : other.end - lo] += other.data
        return Signal.from_samples(lo, out)

    def __sub__(self, other: "Signal") -> "Signal":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "Signal":
        if self.is_zero:
            return self
        return Signal.from_samples(self.offset, s * self.sample_array())


def inner(c: Signal, d: Signal) -> complex:
    """<c, d> = sum conj(c_n) d_n (exactly rounded, so adjointness identities
    hold bit-for-bit regardless of zero padding)."""
    if c.is_zero or d.is_zero:
        return 0.0 + 0.0j
    lo = max(c.offset, d.offset)
    hi = min(c.end, d.end)
    if lo >= hi:
        return 0.0 + 0.0j
    a = c.sample_array()[lo - c.offset : hi - c.offset]
    b = d.sample_array()[lo - d.offset : hi - d.offset]
    prod = np.conj(a) * b
    return complex(math.fsum(prod.real), math.fsum(prod.imag))


def downsample(c: Signal, n: int) -> Signal:
    """Keep samples at indices divisible by n, re-indexed by /n."""
    if n < 2:
        raise ValueError("sampling factor must be >= 2")
    if c.is_zero:
        return c
    first = c.offset + (-c.offset) % n
    if first >= c.end:
        return Signal.zero()
    kept = c.sample_array()[first - c.offset :: n]
    return Signal.from_samples(first // n, kept)


def upsample(c: Signal, n: int) -> Signal:
    """Insert n-1 zeros between consecutive samples (index k -> n*k)."""
    if n < 2:
        raise ValueError("sampling factor must be >= 2")
    if c.is_zero:
        return c
    out = np.zeros(n * (len(c.data) - 1) + 1, dtype=complex)
    out[::n] = c.data
    return Signal.from_samples(n * c.offset, out)


def convolve_poly(c: Signal, p: LaurentPoly) -> Signal:
    """Convolution with the coefficient sequence of p (offsets add)."""
    if c.is_zero or p.is_zero:
        return Signal.zero()
    out = np.convolve(c.sample_array(), p.coeff_array())
    return Signal.from_samples(c.offset + p.min_deg, out)


def analyze(c: Signal, bank: FilterBank) -> list:
    """Subband coefficients: band j is downsample(conj-reversed m_j * c, N)."""
    n = bank.scale_n
    return [downsample(convolve_poly(c, f.adjoint()), n) for f in bank.filters]


def synthesize(bands: Sequence[Signal], bank: FilterBank) -> Signal:
    """Sum over j of m_j * upsample(band_j, N); inverse of analyze for QMF banks."""
    if len(bands) != bank.scale_n:
        raise ValueError(
            f"expected {bank.scale_n} bands, got {len(bands)}"
        )
    out = Signal.zero()
    for band, f in zip(bands, bank.filters):
        out = out + convolve_poly(upsample(band, bank.scale_n), f)
    return out


@dataclass(frozen=True)
class PyramidDecomposition:
    """Coarse band after `levels` steps plus per-level detail bands.

    details[l] holds the N-1 detail signals split off at recursion level
    l+1 (details[0] is the finest level).
    """

    coarse: Signal
    details: tuple

    @property
    def levels(self) -> int:
        return len(self.details)

    def total_energy(self) -> float:
        return self.coarse.energy() + sum(
            d.energy() for level in self.details for d in level
        )


def pyramid_decompose(
    c: Signal, bank: FilterBank, levels: int
) -> PyramidDecomposition:
    """Recursively split the coarse band `levels` times."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    details = []
    current = c
    for _ in range(levels):
        bands = analyze(current, bank)
        current = bands[0]
        details.append(tuple(bands[1:]))
    return PyramidDecomposition(current, tuple(details))


def pyramid_reconstruct(dec: PyramidDecomposition, bank: FilterBank) -> Signal:
    current = dec.coarse
    for level in reversed(dec.details):
        current = synthesize([current, *level], bank)
    return current


class InvalidPartitionError(ValueError):
    pass


@dataclass(frozen=True)
class PacketPartition:
    """Set of packet-tree leaves (k, n): depth k >= 1, packet index 0 <= n < N**k.

    A leaf covers the index block {n * N**(d-k), ..., (n+1) * N**(d-k) - 1}
    at the deepest declared level d = max k; validity means those blocks are
    pairwise disjoint and cover {0, ..., N**d - 1}.
    """

    leaves: frozenset

    @staticmethod
    def from_leaves(leaves: Iterable[Tuple[int, int]]) -> "PacketPartition":
        return PacketPartition(frozenset((int(k), int(n)) for k, n in leaves))

    @staticmethod
    def full(depth: int, scale_n: int = 2) -> "PacketPartition":
        return PacketPartition.from_leaves(
            (depth, n) for n in range(scale_n**depth)
        )

    @staticmethod
    def wavelet(depth: int, scale_n: int = 2) -> "PacketPartition":
        """The pyramid partition: detail leaves at each level plus the coarse leaf."""
        leaves = [(depth, 0)]
        for k in range(1, depth + 1):
            leaves.extend((k, n) for n in range(1, scale_n))
        return PacketPartition.from_leaves(leaves)

    @property
    def depth(self) -> int:
        return max(k for k, _ in self.leaves)

    def validate(self, scale_n: int) -> None:
        if not self.leaves:
            raise InvalidPartitionError("partition has no leaves")
        for k, n in self.leaves:
            if k < 1 or n < 0 or n >= scale_n**k:
                raise InvalidPartitionError(f"leaf {(k, n)} out of range for N={scale_n}")
        d = self.depth
        counts = np.zeros(scale_n**d, dtype=int)
        for k, n in self.leaves:
            width = scale_n ** (d - k)
            counts[n * width : (n + 1) * width] += 1
        overlapping = np.nonzero(counts > 1)[0]
        missing = np.nonzero(counts == 0)[0]
        if len(overlapping) or len(missing):
            raise InvalidPartitionError(
                f"invalid partition: overlapping index blocks {overlapping.tolist()[:8]}, "
                f"missing index blocks {missing.tolist()[:8]} (at depth {d})"
            )


def packet_decompose(
    c: Signal, bank: FilterBank, partition: PacketPartition
) -> Dict[Tuple[int, int], Signal]:
    """Leaf (k, n) receives the chain of adjoint isometries selected by the
    base-N digits of n, most-significant digit first: the children of node
    (k, n) are (k+1, n*N + band), so leaf index blocks stay contiguous."""
    partition.validate(bank.scale_n)
    n_bands = bank.scale_n
    max_depth = partition.depth  # scans every leaf: read it once
    out: Dict[Tuple[int, int], Signal] = {}

    def walk(signal: Signal, depth: int, index: int) -> None:
        if (depth, index) in partition.leaves:
            out[(depth, index)] = signal
            return
        if depth >= max_depth:
            return
        for band, piece in enumerate(analyze(signal, bank)):
            walk(piece, depth + 1, index * n_bands + band)

    walk(c, 0, 0)
    return out


def packet_reconstruct(
    leaf_map: Mapping[Tuple[int, int], Signal],
    bank: FilterBank,
    partition: PacketPartition,
) -> Signal:
    partition.validate(bank.scale_n)
    n_bands = bank.scale_n
    max_depth = partition.depth  # scans every leaf: read it once

    def build(depth: int, index: int) -> Signal:
        if (depth, index) in partition.leaves:
            return leaf_map.get((depth, index), Signal.zero())
        if depth >= max_depth:
            return Signal.zero()
        children = [
            build(depth + 1, index * n_bands + band) for band in range(n_bands)
        ]
        return synthesize(children, bank)

    return build(0, 0)


def packet_energy(leaf_map: Mapping[Tuple[int, int], Signal]) -> float:
    return sum(sig.energy() for sig in leaf_map.values())


def build_big_unitary(bank: FilterBank) -> np.ndarray:
    """Assemble the 2**(n+2) x 2**(n+2) block-circulant-with-border matrix of a
    two-band bank whose filters have exactly 2n+2 taps (n >= 1) on 0..2n+1.

    The interior is the cyclic arrangement of the 2 x 2 coefficient blocks
    A_k = [[a_2k, a_2k+1], [b_2k, b_2k+1]]; the two scalar border columns are
    the split columns of the wrapped block column.  The result is unitary
    exactly when the bank passes the quadrature check.
    """
    if bank.scale_n != 2:
        raise ValueError("the big unitary matrix is defined for two-band banks")
    m0, m1 = bank.filters
    if m0.is_zero or m0.min_deg != 0:
        raise ValueError("low-pass filter must be supported on exactly 0..2n+1")
    taps = len(m0.data)
    if taps < 4 or taps % 2 != 0:
        raise ValueError(
            f"need exactly 2n+2 taps with n >= 1; got {taps} low-pass taps"
        )
    if not m1.is_zero and (m1.min_deg < 0 or m1.max_deg > taps - 1):
        raise ValueError("high-pass support must lie inside 0..2n+1")
    half = taps // 2  # n + 1 blocks A_0..A_n
    a = m0.coeff_array()
    b = np.array([m1.coeff(k) for k in range(taps)], dtype=complex)
    blocks = [
        np.array([[a[2 * k], a[2 * k + 1]], [b[2 * k], b[2 * k + 1]]])
        for k in range(half)
    ]
    m_blocks = 2 ** (half)  # 2**(n+1) block rows
    size = 2 * m_blocks
    U = np.zeros((size, size), dtype=complex)
    for i in range(m_blocks):
        for j in range(m_blocks):
            k = (j - i) % m_blocks
            if k >= half:
                continue
            block = blocks[k]
            if j == 0:
                U[2 * i : 2 * i + 2, 0] = block[:, 1]
                U[2 * i : 2 * i + 2, size - 1] = block[:, 0]
            else:
                U[2 * i : 2 * i + 2, 2 * j - 1 : 2 * j + 1] = block
    return U
