"""Seeded input generator for the wavebank benchmark.

Only numpy and the standard library are used here, never `wavebank` itself:
banks, matrices, signals and partitions are built from the documented math
and written in the documented file formats (bank / matrix / partition JSON,
`index,re,im` CSV).  Refactors of the package therefore cannot change the
inputs, and one seed always gives byte-identical files.

A workload is an endless sequence of *cycles*.  A cycle is a fixed template
of slots (which subcommand, which size class, which bank family); the seed
only picks the numbers inside each slot (exact lengths, bank parameters,
partitions, offsets).  Because every seed runs the same mix in the same
order, runs with different seeds measure the same amount of work.  Cycle c
draws from its own generator seeded by (seed, workload, c), so the inputs
of a cycle do not depend on how many cycles a run reaches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

SQRT2 = math.sqrt(2.0)
V_HAAR = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2

WORKLOADS = ("pyramid-long", "packets-deep", "bank-verify", "diagnose")


@dataclass
class Op:
    """One `wavebank.cli.main` call.

    `argv` may hold "{out}", replaced by the op's fresh output directory.
    `check` names a function in checks.py; `expect` holds what that check
    compares against, all known from construction.  `props` are the input
    properties the report aggregates.
    """

    kind: str
    argv: list
    expect_rc: int
    check: str
    expect: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


# -- banks ------------------------------------------------------------------


def polyphase_product(prefactor: np.ndarray, projections) -> np.ndarray:
    """Coefficients (k+1, N, N) of prefactor * prod_j (I - P_j + z P_j)."""
    n = prefactor.shape[0]
    coeffs = prefactor[None].astype(complex)
    eye = np.eye(n)
    for p in projections:
        nxt = np.zeros((len(coeffs) + 1, n, n), dtype=complex)
        nxt[:-1] += coeffs @ (eye - p)
        nxt[1:] += coeffs @ p
        coeffs = nxt
    return coeffs


def filters_from_polyphase(a: np.ndarray) -> np.ndarray:
    """Filter rows m_i with coefficient N*k + j equal to A_k[i, j]."""
    length, n, _ = a.shape
    filt = np.zeros((n, n * length), dtype=complex)
    for j in range(n):
        filt[:, j::n] = a[:, :, j].T
    return filt


def two_band_projection(lam: float, theta: float) -> np.ndarray:
    off = math.sqrt(lam * (1.0 - lam))
    return np.array(
        [[lam, off * np.exp(1j * theta)], [off * np.exp(-1j * theta), 1.0 - lam]]
    )


def rank_one_projection(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def dft_prefactor(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


def projection_params(rng, k: int) -> list:
    return [
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2 * math.pi)))
        for _ in range(k)
    ]


def projection_filters(params) -> np.ndarray:
    """Two-band bank V * prod (I - P + z P) of (lambda, theta) parameters."""
    return filters_from_polyphase(
        polyphase_product(V_HAAR, [two_band_projection(l, t) for l, t in params])
    )


def six_tap_filters(theta: float, rho: float) -> np.ndarray:
    """Two-angle six-tap bank: V (I - Q_theta + z Q_theta)(I - Q_rho + z Q_rho)."""
    def q(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c * c, c * s], [c * s, s * s]])

    return filters_from_polyphase(polyphase_product(V_HAAR, [q(theta), q(rho)]))


def n_band_filters(rng, n: int, k: int) -> np.ndarray:
    """N-band bank: DFT prefactor times k degree-one projection factors."""
    return filters_from_polyphase(
        polyphase_product(dft_prefactor(n), [rank_one_projection(rng, n) for _ in range(k)])
    )


def complete_lowpass(a: np.ndarray) -> np.ndarray:
    """Two-band bank from a low-pass on 0..2n+1: b_k = (-1)^k conj(a_{L-1-k})."""
    top = len(a) - 1
    b = np.array([(-1) ** k * np.conj(a[top - k]) for k in range(len(a))])
    return np.stack([a, b])


def daubechies_lowpass(p: int, rng, minimum_phase: bool = False) -> np.ndarray:
    """A spectral factor of the Daubechies product filter with p vanishing moments.

    |m0|^2 = 2 cos^{2p}(w/2) P(sin^2(w/2)).  Each root r inside the unit
    circle of z^{p-1} P((2 - z - 1/z)/4) is kept or reflected to 1/conj(r)
    at random (or always kept, for the minimum-phase factor); every choice
    has the same |m0|^2, so the same transfer spectrum and periodization,
    and 2p taps.
    """
    y = np.array([-1.0, 2.0, -1.0]) / 4.0  # z * y(z)
    poly = np.zeros(1)
    for k in range(p):
        term = np.array([1.0])
        for _ in range(k):
            term = npoly.polymul(term, y)
        term = npoly.polymul(term, np.eye(p - k)[p - 1 - k])
        poly = npoly.polyadd(poly, math.comb(p - 1 + k, k) * term)
    inside = [r for r in npoly.polyroots(poly) if abs(r) < 1.0] if p > 1 else []
    chosen = [r if minimum_phase or rng.random() < 0.5 else 1.0 / np.conj(r) for r in inside]
    q = npoly.polyfromroots(chosen) if chosen else np.array([1.0 + 0j])
    q = q / npoly.polyval(1.0, q)
    m = np.array([1.0 + 0j])
    for _ in range(p):
        m = npoly.polymul(m, [0.5, 0.5])
    return npoly.polymul(m, q) * SQRT2


def daubechies4_filters() -> np.ndarray:
    s3 = math.sqrt(3.0)
    h = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / 4.0
    return complete_lowpass(h / SQRT2 + 0j)


STRETCHED_HAAR = complete_lowpass(np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2 + 0j)


def corrupt(filters: np.ndarray, rng) -> np.ndarray:
    """Perturb one coefficient by 1e-3: the quadrature check must fail."""
    out = filters.copy()
    i = int(rng.integers(0, out.shape[0]))
    j = int(rng.integers(0, out.shape[1]))
    out[i, j] += 1e-3 * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return out


def bank_json(filters: np.ndarray) -> dict:
    return {
        "N": int(filters.shape[0]),
        "filters": [
            {"min_deg": 0, "coeffs": [[float(c.real), float(c.imag)] for c in row]}
            for row in filters
        ],
        "convention": "sqrtN",
    }


def random_two_band(rng, kind: str) -> tuple[np.ndarray, dict]:
    """A two-band orthogonal bank of the mixed families, with its properties."""
    if kind == "d4":
        f = daubechies4_filters()
    elif kind == "six":
        f = six_tap_filters(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
    else:
        f = projection_filters(projection_params(rng, int(rng.integers(0, 9))))
    return f, {"bank": kind, "taps": int(f.shape[1]), "N": 2}


# -- signals, matrices, files -----------------------------------------------


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n")


def write_signal(path: Path, offset: int, x: np.ndarray) -> None:
    """`index,re,im` rows with shortest round-trip floats."""
    rows = zip(
        map(str, range(offset, offset + len(x))),
        map(repr, x.real.tolist()),
        map(repr, x.imag.tolist()),
    )
    path.write_text("index,re,im\n" + "\n".join(map(",".join, rows)) + "\n")


def random_signal(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def jittered_length(rng, log2: float) -> int:
    """About 2^log2 samples; the seed moves the length by under 1 %, so a
    slot costs about the same for every seed."""
    return int(2.0 ** (log2 + 0.025 * (rng.uniform() - 0.5)))


def random_partition(rng, depth: int, splits: int) -> list:
    """Valid two-band packet partition made by `splits` node splits.

    The first `depth` splits follow one random path, so the deepest leaf is
    at `depth`; the rest split random leaves above that depth.
    """
    path = int(rng.integers(0, 2**depth))
    leaves = {(0, 0)}

    def split(k: int, n: int) -> None:
        leaves.remove((k, n))
        leaves.update({(k + 1, 2 * n), (k + 1, 2 * n + 1)})

    for k in range(depth):
        split(k, path >> (depth - k))
    for _ in range(splits - depth):
        open_leaves = sorted(leaf for leaf in leaves if leaf[0] < depth)
        split(*open_leaves[int(rng.integers(len(open_leaves)))])
    return [list(leaf) for leaf in sorted(leaves)]


def lifting_matrix(rng, n_steps: int) -> tuple[int, np.ndarray]:
    """det == 1 matrix: diag(K, 1/K) times alternating lower/upper steps.

    Returns (min_deg, coeffs of shape (L, 2, 2)).
    """
    kc = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    lo, mat = 0, np.array([[[kc, 0], [0, 1 / kc]]], dtype=complex)
    for s in range(n_steps):
        terms = int(rng.integers(1, 3))
        first = int(rng.integers(-2, 2))
        cs = rng.uniform(-1, 1, terms) + 1j * rng.uniform(-1, 1, terms)
        slo, shi = min(first, 0), max(first + terms - 1, 0)
        step = np.zeros((shi - slo + 1, 2, 2), dtype=complex)
        step[-slo] += np.eye(2)
        step[first - slo : first - slo + terms, 1 - s % 2, s % 2] = cs
        prod = np.zeros((len(mat) + len(step) - 1, 2, 2), dtype=complex)
        for i, a in enumerate(mat):
            for j, b in enumerate(step):
                prod[i + j] += a @ b
        lo, mat = lo + slo, prod
    return lo, mat


def matrix_json(min_deg: int, mat: np.ndarray) -> dict:
    return {
        "n": 2,
        "min_deg": int(min_deg),
        "coeffs": [
            [[[float(v.real), float(v.imag)] for v in row] for row in m] for m in mat
        ],
    }


# -- workloads ----------------------------------------------------------------


class Generator:
    """Writes the inputs of cycle c of a workload under `root` and returns its ops."""

    def __init__(self, workload: str, seed: int, root: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.root = root
        self._make = {
            "pyramid-long": self._pyramid_long,
            "packets-deep": self._packets_deep,
            "bank-verify": self._bank_verify,
            "diagnose": self._diagnose,
        }[workload]

    def cycle(self, c: int):
        """Jobs of cycle c (lists of ops sharing an output dir), each job's
        input files written just before the job is yielded."""
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload), c])
        d = self.root / f"cycle{c}"
        d.mkdir(parents=True, exist_ok=True)
        return self._make(rng, d, c)

    def warmup(self) -> list:
        """Jobs with one small op of each kind the workload runs, for set-up."""
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload), 2**31])
        d = self.root / "warmup"
        d.mkdir(parents=True, exist_ok=True)
        return list(self._make(rng, d, 0, small=True))

    # Each slot is (log2 length, levels, bank family).  Lengths come in three
    # classes over 2^13..2^17: three small ones spread out, three near 2^15
    # and three near 2^17, so the median op falls inside the middle class and
    # rests on many samples instead of on the gap between two slots.
    PYRAMID_SLOTS = [
        (16.9, 8, "d4"), (13.2, 1, "proj"), (15.0, 4, "proj"),
        (16.7, 6, "proj"), (13.7, 2, "d4"), (15.0, 5, "d4"),
        (16.8, 7, "six"), (14.2, 3, "six"), (15.0, 6, "six"),
    ]

    def _pyramid_long(self, rng, d: Path, c: int, small: bool = False):
        slots = self.PYRAMID_SLOTS[:1] if small else self.PYRAMID_SLOTS
        for i, (log2, levels, family) in enumerate(slots):
            n = 2**10 if small else jittered_length(rng, log2)
            filt, props = random_two_band(rng, family)
            x = random_signal(rng, n)
            sig, bank = d / f"sig{i}.csv", d / f"bank{i}.json"
            write_signal(sig, int(rng.integers(-1000, 1000)), x)
            write_json(bank, bank_json(filt))
            props.update(length=n, levels=levels)
            yield [Op(
                "pyramid",
                ["pyramid", str(bank), "--signal", str(sig), "--levels", str(levels),
                 "--out-dir", "{out}"],
                0, "bands",
                {"files": 1 + levels, "energy": float(np.sum(np.abs(x) ** 2))},
                props,
            )]

    # Each slot is (log2 length, depth, partition kind, bank family).  The
    # four random partitions are the cheap ops; the cheapest full partition
    # is the median op, and the two depth-8 full partitions the top tenth.
    PACKET_SLOTS = [
        (12.7, 8, "full", "proj"), (10.3, 5, "random", "d4"), (11.6, 6, "full", "proj"),
        (10.8, 8, "random", "proj"), (12.2, 7, "full", "six"), (11.5, 6, "random", "six"),
        (12.9, 5, "full", "d4"), (12.0, 7, "random", "proj"), (12.75, 8, "full", "d4"),
    ]

    def _packets_deep(self, rng, d: Path, c: int, small: bool = False):
        slots = self.PACKET_SLOTS[:2] if small else self.PACKET_SLOTS
        for i, (log2, depth, part, family) in enumerate(slots):
            if small:
                n, depth = 2**8, 3
            else:
                n = jittered_length(rng, log2)
            filt, props = random_two_band(rng, family)
            x = random_signal(rng, n)
            sig, bank = d / f"sig{i}.csv", d / f"bank{i}.json"
            write_signal(sig, int(rng.integers(-1000, 1000)), x)
            write_json(bank, bank_json(filt))
            argv = ["packets", str(bank), "--signal", str(sig), "--out-dir", "{out}"]
            if part == "full":
                argv += ["--depth", str(depth)]
                leaves = 2**depth
            else:
                partition = random_partition(rng, depth, min(3 * depth, 2**depth - 1))
                write_json(d / f"part{i}.json", {"leaves": partition})
                argv += ["--partition", str(d / f"part{i}.json")]
                leaves = len(partition)
            props.update(length=n, depth=depth, partition=part, leaves=leaves)
            yield [Op(
                "packets", argv, 0, "bands",
                {"files": leaves, "energy": float(np.sum(np.abs(x) ** 2))},
                props,
            )]

    BANK_SLOTS = [
        "design-low", "verify-2band", "verify-N3", "lift", "verify-corrupt-2band",
        "verify-N4", "random-banks", "verify-six", "design-high", "verify-N5",
        "verify-daubechies", "lift", "verify-corrupt-N", "verify-N6",
    ]

    def _bank_verify(self, rng, d: Path, c: int, small: bool = False):
        slots = list(dict.fromkeys(self.BANK_SLOTS)) if small else self.BANK_SLOTS
        for i, slot in enumerate(slots):
            bank = d / f"bank{i}.json"
            if slot.startswith("design"):
                k = int(rng.integers(0, 5) if slot == "design-low" else rng.integers(5, 9))
                params = projection_params(rng, k)
                write_json(d / f"params{i}.json", {
                    "projections": [{"lambda": l, "theta": t} for l, t in params]
                })
                filt = projection_filters(params)
                yield [Op(
                    "design",
                    ["design", "--projections", str(d / f"params{i}.json"),
                     "-o", "{out}/bank.json"],
                    0, "design", {"filters": bank_json(filt)["filters"]},
                    {"N": 2, "k": k, "taps": int(filt.shape[1])},
                )]
            elif slot == "random-banks":
                count = 8 if small else 16
                yield [Op(
                    "verify-random",
                    ["verify", "--random-banks", str(count),
                     "--seed", str(int(rng.integers(0, 2**31)))],
                    0, "random_banks", {"count": count}, {"N": 2, "banks": count},
                )]
            elif slot == "lift":
                # Two to four steps: with up to six, a few valid matrices in a
                # thousand factor with a recomposition residual above the
                # CLI's 1e-9 and exit 1 (README).
                lo, mat = lifting_matrix(rng, int(rng.integers(2, 5)))
                write_json(d / f"mat{i}.json", matrix_json(lo, mat))
                props = {"N": 2, "span": len(mat) - 1}
                yield [
                    Op("lift", ["lift", str(d / f"mat{i}.json"), "-o", "{out}/steps.json"],
                       0, "lift", {}, props),
                    Op("lift-recompose",
                       ["lift", "{out}/steps.json", "--recompose", "-o", "{out}/back.json"],
                       0, "recompose", {"matrix": matrix_json(lo, mat)}, props),
                ]
            else:
                if slot.startswith("verify-N"):
                    n, k = int(slot[-1]), 2
                    filt = n_band_filters(rng, n, k)
                elif slot == "verify-corrupt-N":
                    n, k = 3 + c % 4, 2
                    filt = n_band_filters(rng, n, k)
                elif slot == "verify-six":
                    n, k = 2, 2
                    filt = six_tap_filters(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                elif slot == "verify-daubechies":
                    n, p = 2, int(rng.integers(2, 5))
                    filt, k = complete_lowpass(daubechies_lowpass(p, rng)), p - 1
                else:  # two-band projection bank, plain or corrupted
                    n, k = 2, int(rng.integers(1, 9))
                    filt = projection_filters(projection_params(rng, k))
                corrupted = "corrupt" in slot
                if corrupted:
                    filt = corrupt(filt, rng)
                write_json(bank, bank_json(filt))
                # Projection and Daubechies banks have det A = c z^k: winding class k.
                expect = {} if corrupted else {"winding": k}
                yield [Op(
                    "verify-corrupt" if corrupted else "verify",
                    ["verify", str(bank)], 1 if corrupted else 0, "verify", expect,
                    {"N": n, "taps": int(filt.shape[1])},
                )]

    # (kind, J, Daubechies p): cascades at J = 10..14 on the four-tap (p = 2)
    # and six-tap (p = 3) factors, three of them at J = 12 so the median op
    # rests on many samples, and one periodization check per cycle, on an
    # eight-tap factor in even cycles and on the stretched Haar bank in odd.
    DIAGNOSE_SLOTS = [
        ("cascade", 10, 3), ("cascade", 12, 2), ("transfer", None, 4),
        ("cascade", 12, 2), ("cascade", 14, 2), ("cascade", 12, 2),
        ("cascade", 13, 3), ("cascade", 11, 2),
    ]

    def _diagnose(self, rng, d: Path, c: int, small: bool = False):
        slots = self.DIAGNOSE_SLOTS[:3] if small else self.DIAGNOSE_SLOTS
        for i, (kind, j_level, p) in enumerate(slots):
            if kind == "transfer" and c % 2:
                p = "stretched"
            bank = d / f"bank{i}.json"
            if p == "stretched":
                filt = STRETCHED_HAAR
            elif kind == "cascade":
                # The cascade's iteration count depends on which spectral
                # factor is taken, so cascades use the minimum-phase one and
                # the seed only turns the high-pass by a unimodular factor.
                filt = complete_lowpass(daubechies_lowpass(p, rng, minimum_phase=True))
                filt[1] *= np.exp(1j * rng.uniform(0, 2 * math.pi))
            else:
                filt = complete_lowpass(daubechies_lowpass(p, rng))
            write_json(bank, bank_json(filt))
            props = {"N": 2, "taps": int(filt.shape[1])}
            if kind == "cascade":
                j_level = 10 if small else j_level
                props["J"] = j_level
                yield [Op(
                    "cascade",
                    ["cascade", str(bank), "--j", str(j_level), "--iters", "20",
                     "-o", "{out}/phi.csv", "--plot", "{out}/phi.svg",
                     "--psi-prefix", "{out}/psi_"],
                    0, "cascade", {"J": j_level}, props,
                )]
            else:
                orthonormal = p != "stretched"
                argv = ["transfer", str(bank), "-o", "{out}/spectrum.json", "--per"]
                if small:
                    argv += ["--n-max", "50"]
                yield [Op(
                    "transfer", argv, 0 if orthonormal else 1, "transfer",
                    {"pf_holds": orthonormal, "per_constant": orthonormal}, props,
                )]
