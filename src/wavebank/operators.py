"""Sequence-domain algorithms: sampling, subband analysis/synthesis, pyramids,
wavelet packets, and the big unitary wavelet matrix.

Signals are finitely supported sequences on the integers, each a
`laurent.Block` trimmed of exact zeros at its ends; convolutions grow support
and nothing is periodized.  The subband operators use the unitary
normalization (a two-point Haar average is (a+b)/sqrt(2), not (a+b)/2): the
function-side convention that splits f into halves carries an extra
1/sqrt(2) from expanding in the unscaled dilate, while the sequence-side
operators here realize genuine isometries, so energy is preserved exactly.

Band j of `analyze` is the adjoint isometry S_j*, (band_j)_k = sum_t
conj(A[j, t]) c_{Nk + lo + t}, and `synthesize` is the sum of the S_j: each is
one product of the bank's tap array A (every filter on the degrees lo..lo +
mN - 1) with a read-only view of the windows of mN samples that start every N
samples, the polyphase matrix acting on the N polyphase components.

Packet leaves are labeled (depth k, index n) with the index built from the
band digits most-significant first (children of (k, n) are (k+1, n*N+band)),
so every leaf owns a contiguous block of depth-d indices.  Consequently the
full-depth two-tap packet transform reproduces the Sylvester-Hadamard matrix
with bit-reversed row labels (the Walsh/sequency order is yet another
relabeling; none is enforced).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .filterbank import FilterBank
from .laurent import Block, LaurentPoly, _trim_ends, decimate, frozen_vector


@dataclass(frozen=True, eq=False)
class Signal(Block):
    """Finite complex sequence; data[i] sits at integer index offset + i.

    A `Block` whose `samples` is the tuple-of-complex view of `data`.
    Canonical form trims leading and trailing exact zeros (the all-zero
    signal has an empty array and offset 0).  Build signals with
    `from_samples`, which copies, trims and freezes its input.
    """

    @staticmethod
    def from_samples(offset: int, samples: Iterable[complex]) -> "Signal":
        return Signal(*_trim_ends(offset, frozen_vector(samples), 0.0))

    def _like(self, offset: int, arr: np.ndarray) -> "Signal":
        return Signal.from_samples(offset, arr)

    @staticmethod
    def zero() -> "Signal":
        return Signal(0, frozen_vector(()))

    @staticmethod
    def impulse(index: int = 0) -> "Signal":
        return Signal(index, frozen_vector((1.0,)))

    samples = Block.terms

    sample_array = Block.array

    def energy(self) -> float:
        return float(np.sum(np.abs(self.sample_array()) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.energy()))


def inner(c: Signal, d: Signal) -> complex:
    """<c, d> = sum conj(c_n) d_n (exactly rounded, so adjointness identities
    hold bit-for-bit regardless of zero padding)."""
    lo, hi = max(c.offset, d.offset), min(c.end, d.end)
    prod = np.conj(c.window(lo, hi)) * d.window(lo, hi)
    return complex(math.fsum(prod.real), math.fsum(prod.imag))


def downsample(c: Signal, n: int) -> Signal:
    """Keep samples at indices divisible by n, re-indexed by /n."""
    if n < 2:
        raise ValueError("sampling factor must be >= 2")
    return Signal.from_samples(*decimate(c.offset, c.sample_array(), n))


def upsample(c: Signal, n: int) -> Signal:
    """Insert n-1 zeros between consecutive samples (index k -> n*k)."""
    if n < 2:
        raise ValueError("sampling factor must be >= 2")
    return Signal.from_samples(*c.upsampled(n))


def convolve_poly(c: Signal, p: LaurentPoly) -> Signal:
    """Convolution with the coefficient sequence of p (offsets add)."""
    if c.is_zero or p.is_zero:
        return Signal.zero()
    out = np.convolve(c.sample_array(), p.coeff_array())
    return Signal.from_samples(c.offset + p.min_deg, out)


def _tap_array(bank: FilterBank) -> tuple[int, np.ndarray]:
    """(lo, A): row j of the N x mN array A holds filter j's taps at degrees
    lo..lo + mN - 1, for the least m covering every nonzero filter, else 0."""
    n, live = bank.scale_n, [f for f in bank.filters if len(f.data)]
    lo = min((f.offset for f in live), default=0)
    hi = max((f.offset + len(f.data) for f in live), default=lo + 1)
    taps = np.zeros((n, -(-(hi - lo) // n) * n), dtype=complex)
    for j, f in enumerate(bank.filters):
        taps[j, f.offset - lo : f.offset - lo + len(f.data)] = f.data
    return lo, taps


def _windows(buf: np.ndarray, width: int, step: int) -> np.ndarray:
    """A read-only view, no copy, of buf[step i : step i + width] as row i, for
    every window inside buf."""
    unit, count = buf.strides[0], (len(buf) - width) // step + 1
    view = np.ndarray((count, width), buf.dtype, buf, 0, (step * unit, unit))
    view.flags.writeable = False
    return view


def analyze(c: Signal, bank: FilterBank) -> list:
    """The N adjoint isometries at once: band j is row j of the product of
    conj(A) with the windows of mN samples of c that start every N samples."""
    n = bank.scale_n
    lo, taps = _tap_array(bank)
    width = taps.shape[1]
    first = -(-(c.offset - lo - width + 1) // n)  # the first window to reach c
    last = (c.end - 1 - lo) // n
    buf = c.window(n * first + lo, n * last + lo + width)
    bands = np.einsum("kt,jt->jk", _windows(buf, width, n), taps.conj())
    return [Signal.from_samples(first, row) for row in bands]


def synthesize(bands: Sequence[Signal], bank: FilterBank) -> Signal:
    """Sum over j of the isometries S_j, inverse of analyze for QMF banks: phase
    r of output block p is the window of band rows (b_0[k], ..., b_{N-1}[k]),
    k = p - m + 1..p, times A's phase-r taps in reversed block order."""
    n = bank.scale_n
    if len(bands) != n:
        raise ValueError(f"expected {n} bands, got {len(bands)}")
    live = [b for b in bands if not b.is_zero]
    first = min((b.offset for b in live), default=0)
    end = max((b.end for b in live), default=first)
    lo, taps = _tap_array(bank)
    m = taps.shape[1] // n
    rows = np.zeros((end - first + 2 * m - 2, n), dtype=complex)  # m - 1 zero rows each side
    for j, b in enumerate(bands):
        rows[m - 1 + b.offset - first : m - 1 + b.end - first, j] = b.data
    # phased[r, n u + j] = A[j, n (m - 1 - u) + r]
    phased = taps.reshape(n, m, n)[:, ::-1].transpose(2, 1, 0).reshape(n, m * n)
    out = np.einsum("pt,rt->pr", _windows(rows.ravel(), m * n, n), phased)
    return Signal.from_samples(lo + n * first, out.ravel())


@dataclass(frozen=True)
class PyramidDecomposition:
    """Coarse band after len(details) steps plus per-level detail bands.

    details[l] holds the N-1 detail signals split off at recursion level
    l+1 (details[0] is the finest level).
    """

    coarse: Signal
    details: tuple

    def total_energy(self) -> float:
        return self.coarse.energy() + sum(
            d.energy() for level in self.details for d in level
        )


def pyramid_decompose(
    c: Signal, bank: FilterBank, levels: int
) -> PyramidDecomposition:
    """Recursively split the coarse band `levels` times: the packet transform
    on the wavelet partition, its leaves regrouped by level."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n = bank.scale_n
    leaves = packet_decompose(c, bank, PacketPartition.wavelet(levels, n))
    details = (tuple(leaves[(k, b)] for b in range(1, n)) for k in range(1, levels + 1))
    return PyramidDecomposition(leaves[(levels, 0)], tuple(details))


def pyramid_reconstruct(dec: PyramidDecomposition, bank: FilterBank) -> Signal:
    levels, n = len(dec.details), bank.scale_n
    if any(len(level) != n - 1 for level in dec.details):
        raise ValueError(f"expected {n - 1} detail bands at each level")
    if not levels:
        return dec.coarse
    leaves = {(k, b): d for k, level in enumerate(dec.details, 1)
              for b, d in enumerate(level, 1)}
    leaves[(levels, 0)] = dec.coarse
    return packet_reconstruct(leaves, bank, PacketPartition.wavelet(levels, n))


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
        if not self.leaves:
            raise InvalidPartitionError("partition has no leaves")
        return max(k for k, _ in self.leaves)

    def validate(self, scale_n: int) -> int:
        """The depth d, once the leaves' index blocks at depth d tile 0..N**d - 1
        (swept as sorted block ends, in memory linear in the leaves); an
        invalid partition names its first 8 overlapping and missing indices."""
        d = self.depth
        steps = Counter({0: 0, scale_n**d: 0})  # cover count change at each block end
        for k, n in self.leaves:
            if k < 1 or n < 0 or n >= scale_n**k:
                raise InvalidPartitionError(f"leaf {(k, n)} out of range for N={scale_n}")
            width = scale_n ** (d - k)
            steps[n * width] += 1
            steps[(n + 1) * width] -= 1
        overlapping, missing, count = [], [], 0
        ends = sorted(steps)
        for lo, hi in zip(ends, ends[1:]):
            count += steps[lo]
            if count != 1:
                bad = missing if count == 0 else overlapping
                bad.extend(range(lo, min(hi, lo + 8 - len(bad))))
        if overlapping or missing:
            raise InvalidPartitionError(
                f"invalid partition: overlapping index blocks {overlapping}, "
                f"missing index blocks {missing} (at depth {d})"
            )
        return d


def packet_decompose(
    c: Signal, bank: FilterBank, partition: PacketPartition
) -> Dict[Tuple[int, int], Signal]:
    """Leaf (k, n) receives the chain of adjoint isometries selected by the
    base-N digits of n, most-significant digit first: the children of node
    (k, n) are (k+1, n*N + band), so leaf index blocks stay contiguous."""
    n_bands = bank.scale_n
    partition.validate(n_bands)  # every path from the root then ends at a leaf
    out: Dict[Tuple[int, int], Signal] = {}
    # a stack, not a closure that calls itself: such a closure is a reference
    # cycle, which kept every signal it reached until the next gc pass
    nodes = [(0, 0, c)]
    while nodes:
        depth, index, signal = nodes.pop()
        if (depth, index) in partition.leaves:
            out[(depth, index)] = signal
            continue
        for band, piece in reversed(list(enumerate(analyze(signal, bank)))):
            nodes.append((depth + 1, index * n_bands + band, piece))
    return out


def packet_reconstruct(
    leaf_map: Mapping[Tuple[int, int], Signal],
    bank: FilterBank,
    partition: PacketPartition,
) -> Signal:
    """Synthesize the tree from its deepest level up; a missing leaf reads as 0."""
    n_bands = bank.scale_n
    nodes: Dict[int, Signal] = {}  # the signals at one depth, by index
    for depth in range(partition.validate(n_bands), 0, -1):
        nodes.update((n, leaf_map.get((k, n), Signal.zero()))
                     for k, n in partition.leaves if k == depth)
        parents = {index // n_bands for index in nodes}
        nodes = {p: synthesize([nodes[p * n_bands + b] for b in range(n_bands)], bank)
                 for p in parents}
    return nodes[0]


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
    m_blocks = 2 ** (half)  # 2**(n+1) block rows
    size = 2 * m_blocks
    filt = np.zeros((2, size), dtype=complex)
    filt[0, :taps] = m0.data
    filt[1, m1.offset : m1.end] = m1.data
    # blocks[k] = A_k, the polyphase coefficients A[i, j]_k = m_i[2k + j]; zero past n
    blocks = filt.reshape(2, m_blocks, 2).transpose(1, 0, 2)
    ring = np.arange(m_blocks)
    tiles = blocks[(ring[None, :] - ring[:, None]) % m_blocks]  # (i, j): A_{(j - i) mod M}
    # one column to the left: the wrapped block column splits into the border
    return np.roll(tiles.transpose(0, 2, 1, 3).reshape(size, size), -1, axis=1)
