"""File formats used by the command line: JSON for banks/matrices/steps,
CSV for signals and grid functions, minimal SVG polylines for plots.

The writers' bytes are fixed: CSV cells are the `repr` of their number, CSV
lines end in CRLF and SVG points are "%.2f,%.2f".  Rows are written in
blocks of at most 2**13, and a write that fails part way removes the file.

The text comes from exact integer arithmetic in numpy:
- signal files (index, re and im) and the grid value columns: the index
  digits and `_repr_frame`, shortest round-trip digits by Schubfach on
  uint64, with `repr` itself for NaN, infinities and subnormals.  Each
  block is one byte matrix and a keep mask, compressed and written at once.
  Blocks of fewer than _FRAME_ROWS rows, and indices of magnitude 10**18
  and more, keep one `repr` per cell;
- the grid x column (`_grid_x_cells`) and SVG coordinates (`_fixed2_cells`),
  whose docstrings say when a cell falls back to `repr` or "%.2f".
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from . import defaults
from .cascade import GridFunction
from .operators import Signal


class InputFormatError(ValueError):
    """Malformed input file; message carries the file and line number."""


def load_json(path) -> dict:
    path = Path(path)
    try:
        with path.open() as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}:{exc.lineno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from exc


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


_BLOCK_ROWS = 1 << 13
# Blocks of signal and grid rows from this many on are built as byte frames
# in numpy.  Below it the frame path's fixed cost, some 200 numpy calls,
# exceeds what it saves over a repr per cell: on files of random complex
# values both paths took the same time at 512-640 rows (numpy 2.4, x86-64).
_FRAME_ROWS = 600


def _write_rows(
    path, head: str, n: int, columns, tail="", lead="", end="\r\n", frames=None
) -> None:
    """Write head, n rows and tail to path, _BLOCK_ROWS rows per write.

    columns[c](rows) gives column c's cells for the slice `rows`.  A row is
    lead (not before the first row), its cells joined by ",", then end.
    frames(rows), where given, gives instead the bytes of each block of at
    least _FRAME_ROWS rows.  A failure part way removes the file.
    """
    path = Path(path)
    template = [lead] + [None, ","] * len(columns)
    template[-1] = end
    with path.open("wb") as fh:
        try:
            fh.write(head.encode())
            for start in range(0, n, _BLOCK_ROWS):
                rows = slice(start, min(start + _BLOCK_ROWS, n))
                if frames is not None and rows.stop - start >= _FRAME_ROWS:
                    fh.write(frames(rows))
                    continue
                parts = template * (rows.stop - start)
                for c, column in enumerate(columns):
                    parts[2 * c + 1 :: len(template)] = column(rows)
                if not start:
                    parts[0] = ""
                fh.write("".join(parts).encode())
            fh.write(tail.encode())
        except BaseException:
            fh.close()
            path.unlink()
            raise


def _join_frames(frames, end: bytes) -> bytes:
    """The rows of the (text, keep) frames, equal in length: each row's kept
    bytes of every frame, joined by "," and followed by end."""
    n = len(frames[0][0])
    texts, keeps = [], []
    for c, (text, keep) in enumerate(frames):
        sep = np.frombuffer(end if c == len(frames) - 1 else b",", np.uint8)
        texts += [text, np.broadcast_to(sep, (n, len(sep)))]
        keeps += [keep, np.ones((n, len(sep)), dtype=bool)]
    return np.concatenate(texts, axis=1)[np.concatenate(keeps, axis=1)].tobytes()


def _frame_cells(frame) -> list:
    """The kept bytes of each row of a (text, keep) frame, one str per row."""
    cells = _join_frames([frame], b"\n").decode("ascii").split("\n")
    cells.pop()
    return cells


def _str_frame(cells: list):
    """The ASCII strs `cells` as a (text, keep) frame, one row each."""
    width = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    keep = np.arange(width.max()) < width[:, None]
    text = np.zeros(keep.shape, dtype=np.uint8)
    text[keep] = np.frombuffer("".join(cells).encode("ascii"), dtype=np.uint8)
    return text, keep


@functools.cache
def _digit_quads() -> np.ndarray:
    """Entry r < 10**4 is the four ASCII digits of r, as the bytes of one uint32."""
    digits = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _decimal_frame(mag: np.ndarray, neg: np.ndarray, scale: int, decimals=0):
    """Exact positional text of -mag / 10**scale where neg, else mag / 10**scale,
    as a (text, keep) frame: '-' where neg, the integer digits and, for
    scale >= 1, '.' and the first `decimals` (1..scale, per entry or for all)
    of the `scale` decimals, the caller making sure the others are zeros.
    mag is a nonempty int64 array with entries in 0..10**18 - 1."""
    width = max(len(str(int(mag.max()))), scale + 1)  # at least one integer digit
    point = width - scale
    quads = np.empty((len(mag), -(-width // 4)), dtype=np.uint32)
    rest = mag
    for g in range(quads.shape[1] - 1, -1, -1):
        rest, quads[:, g] = rest // 10**4, _digit_quads()[rest % 10**4]
    digits = quads.view(np.uint8)[:, 4 * quads.shape[1] - width :]
    text = np.insert(digits, [0, point], [ord("-"), ord(".")], axis=1)
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 0] = neg
    # no leading zeros: the integer digit worth 10**p needs mag >= 10**(p + scale)
    keep[:, 1:point] = mag[:, None] >= 10 ** np.arange(width - 1, scale, -1, dtype=np.int64)
    keep[:, point + 1] = scale > 0
    keep[:, point + 2 :] = np.arange(scale) < np.reshape(decimals, (-1, 1))
    return text, keep


# -- repr of float64 arrays ---------------------------------------------------
#
# The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
# doubles", 2020) computed on uint64 arrays.  Every operand is an np.uint64,
# so no promotion rule can turn the arithmetic into floats.

_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW63 = _U(2**63 - 1)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)


@functools.cache
def _schubfach_table() -> np.ndarray:
    """Column e + 292 for e = -292..324 holds g1 and the 32-bit halves of g0
    and of g1, where g = g1 * 2**63 + g0 = floor(10**e / 2**r) + 1 and r is
    such that 2**125 <= 10**e / 2**r < 2**126."""
    columns = []
    for e in range(-292, 325):
        p = 10 ** abs(e)
        if e < 0:
            g = (1 << (p.bit_length() + 125)) // p + 1
        else:
            shift = p.bit_length() - 126
            g = (p >> shift if shift >= 0 else p << -shift) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        columns.append([g1, g0 & 0xFFFF_FFFF, g0 >> 32, g1 & 0xFFFF_FFFF, g1 >> 32])
    return np.array(columns, dtype=np.uint64).T.copy()


def _mul_high(a0, a1, b0, b1):
    """floor(a * b / 2**64) for a = a1 * 2**32 + a0 and b = b1 * 2**32 + b0,
    uint64 arrays of 32-bit halves."""
    t = a1 * b0
    t += (a0 * b0) >> _U(32)
    w = a0 * b1
    w += t & _LOW32
    high = a1 * b1
    high += t >> _U(32)
    high += w >> _U(32)
    return high


def _round_odd(g, cp):
    """Schubfach's rop(g cp / 2**127) for the columns g of _schubfach_table:
    the floor, with its last bit set when the part cut off is not zero."""
    g1, g0_lo, g0_hi, g1_lo, g1_hi = g
    c0, c1 = cp & _LOW32, cp >> _U(32)
    z = (g1 * cp) >> _U(1)  # g1 * cp: its low 64 bits
    z += _mul_high(g0_lo, g0_hi, c0, c1)
    vbp = _mul_high(g1_lo, g1_hi, c0, c1)
    vbp += z >> _U(63)
    z &= _LOW63
    z += _LOW63
    return vbp | z >> _U(63)


def _shortest_decimal(bits):
    """(f, k) for the positive normal doubles with the uint64 `bits`: f * 10**k
    is the shortest decimal that reads back as the double and, of those, the
    nearest, f even on a tie."""
    be = (bits >> _U(52)).astype(np.int64)
    c = bits & _U(2**52 - 1) | _U(2**52)
    q = be - 1075  # the double is c * 2**q
    # at a power of two the lower neighbour is half as far as the upper one
    irregular = (c == _U(2**52)) & (be > 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = _schubfach_table()[:, 292 - k]
    cb = c << _U(2)
    vb = _round_odd(g, cb << h)
    vbl = _round_odd(g, (cb - _U(2) + irregular.astype(np.uint64)) << h)
    vbr = _round_odd(g, (cb + _U(2)) << h)
    out = c & _U(1)  # the ends of the rounding interval round to even c
    # s >= 2**52 for normal doubles, so s has a last digit to cut
    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)
    tp = sp + _U(10)
    upin = vbl + out <= sp << _U(2)
    wpin = (tp << _U(2)) + out <= vbr
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    mid = (s + t) << _U(1)
    nearer_s = (vb < mid) | (vb == mid) & (s & _U(1) == _U(0))
    f = np.where(
        upin != wpin,
        np.where(upin, sp, tp),
        np.where(uin != win, np.where(uin, s, t), np.where(nearer_s, s, t)),
    )
    return f, k


# The columns of a repr frame: "-0.000", the 17 digits d1..d17, ".", the 17
# digits again, then "e", the exponent's sign and its three digits.  Integer
# digits are kept from the first copy and fraction digits from the second,
# so the kept bytes of a row are a few runs: numpy compresses those several
# times faster than bytes kept one in two.
_A, _B, _E = 5, 23, 41  # d_j at columns _A + j and _B + j, "." at _B, "e" at _E
_REPR_WIDTH = _E + 5


@functools.cache
def _repr_keeps() -> np.ndarray:
    """Row i is the keep mask of layout i in a repr frame.  The layouts are,
    in order: fixed point for sign x decimal point after -3..16 digits x
    1..17 significant digits, then scientific for sign x 2 or 3 exponent
    digits x 1..17 significant digits."""
    layouts = []
    for neg in (0, 1):
        for point in range(-3, 17):
            for n in range(1, 18):
                if point <= 0:  # "0.", -point zeros, the digits
                    cols = [1, 2, *range(3, 3 - point), *range(_B + 1, _B + n + 1)]
                else:  # beyond n the digits are zeros: "120.0", "1.0"
                    cols = [*range(_A + 1, _A + point + 1), _B]
                    cols += range(_B + point + 1, _B + max(n, point + 1) + 1)
                layouts.append([0] * neg + cols)
    for neg in (0, 1):
        for width in (2, 3):
            for n in range(1, 18):
                fraction = [_B, *range(_B + 2, _B + n + 1)] if n > 1 else []
                exponent = [_E, _E + 1, *range(_REPR_WIDTH - width, _REPR_WIDTH)]
                layouts.append([0] * neg + [_A + 1] + fraction + exponent)
    keeps = np.zeros((len(layouts), _REPR_WIDTH), dtype=bool)
    for i, cols in enumerate(layouts):
        keeps[i, cols] = True
    return keeps


def _repr_frame(v: np.ndarray):
    """repr of each float of the 1-D array v as a (text, keep) frame: exact
    digits for zeros and normal floats, repr itself for NaN, infinities and
    subnormals."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    bits = v.view(np.uint64)
    neg = bits >> _U(63) == _U(1)
    bits = bits & _LOW63
    be = bits >> _U(52)
    normal = (be != _U(0)) & (be != _U(2047))
    f, k = _shortest_decimal(np.where(normal, bits, _U(0x3FF0_0000_0000_0000)))
    f = np.where(normal, f, _U(0))  # the others print as 0.0 until replaced below
    ndigits = np.searchsorted(_POW10, f, side="right")
    hi, lo = np.divmod(f * _POW10[17 - ndigits], _U(10**8))  # 17 digits
    zero = f == _U(0)
    point = np.where(zero, 1, k + ndigits)  # the value is 0.d1d2...d17 * 10**point
    exp = np.abs(point - 1)
    quads = np.empty((len(v), 6), dtype=np.uint32)  # d1, d2..d5, ..., d14..d17, exp
    high, quads[:, 2] = np.divmod(hi.astype(np.uint32), 10**4)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10**4)
    quads[:, 3], quads[:, 4] = np.divmod(lo.astype(np.uint32), 10**4)
    quads[:, 5] = exp
    digits = _digit_quads()[quads].view(np.uint8)  # "000", d1..d17, "0", exp
    text = np.empty((len(v), _REPR_WIDTH), dtype=np.uint8)
    text[:, :3] = np.frombuffer(b"-0.", dtype=np.uint8)
    text[:, 3 : _B] = digits[:, :20]
    text[:, _B] = ord(".")
    text[:, _B + 1 : _E] = digits[:, 3:20]
    text[:, _E] = ord("e")
    text[:, _E + 1] = np.where(point < 1, ord("-"), ord("+"))
    text[:, _E + 2 :] = digits[:, 21:]
    # significant digits: up to the last nonzero one
    nsig = np.where(zero, 1, 17 - np.argmax(digits[:, 19:2:-1] != ord("0"), axis=1))
    layout = np.where(
        (point < -3) | (point > 16),  # scientific, after the 2 * 20 * 17 fixed ones
        (2 * 20 + neg * 2 + (exp >= 100)) * 17,
        (neg * 20 + point + 3) * 17,
    ) + nsig - 1
    keep = _repr_keeps()[layout]
    for i in np.flatnonzero(~normal & (bits != _U(0))).tolist():
        cell = repr(float(v[i])).encode()
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
        keep[i] = np.arange(_REPR_WIDTH) < len(cell)
    return text, keep


def _float_cells(a: np.ndarray) -> list:
    """repr of each float of a; all +0.0 is "0.0" repeated."""
    if not (a.any() or np.signbit(a).any()):
        return ["0.0"] * len(a)
    return list(map(repr, a.tolist()))


def _value_frames(data: np.ndarray) -> list:
    """The (text, keep) frames of the repr of data.real and of data.imag, from
    one _repr_frame call; a part that is all +0.0, as the imaginary part of
    real data, is "0.0" repeated."""
    n = len(data)
    parts = [data.real, data.imag]
    zeros = np.broadcast_to(np.frombuffer(b"0.0", np.uint8), (n, 3)), np.ones((n, 3), bool)
    frames = [zeros, zeros]
    live = [i for i, part in enumerate(parts) if part.any() or np.signbit(part).any()]
    if live:
        text, keep = _repr_frame(np.concatenate([parts[i] for i in live]))
        for j, i in enumerate(live):
            frames[i] = text[j * n : (j + 1) * n], keep[j * n : (j + 1) * n]
    return frames


def _grid_x_cells(k: np.ndarray, j_level: int) -> list:
    """repr(k * 2.0**-j_level) for each grid index of the int64 array k:
    exact digits where |k * 5**j_level| < 10**15 and x = 0 or |x| >= 1e-4,
    repr itself elsewhere."""
    x = k * 2.0**-j_level
    scale = max(j_level, 1)  # so that integers print as "3.0"
    mult = 10**scale >> j_level  # x = k * mult / 10**scale
    if mult >= 10**15:
        return list(map(repr, x.tolist()))
    mag = np.abs(k)
    mag = np.where(mag <= (10**15 - 1) // mult, mag, 0) * mult
    # at most 15 significant digits (DBL_DIG), so the exact digits are the
    # shortest round-trip ones; repr is positional for 0 and 1e-4 <= |x| < 1e16
    exact = (mag >= 10 ** max(scale - 4, 0)) | (k == 0)
    # k = odd * 2**v makes x = odd / 2**(j - v): j - v decimals, the last a 5
    low = np.where(k == 0, 1 << j_level, k & -k)
    decimals = np.clip(j_level + 1 - np.frexp(low)[1], 1, scale)
    cells = _frame_cells(_decimal_frame(mag, k < 0, scale, decimals))
    for i in np.flatnonzero(~exact).tolist():
        cells[i] = repr(float(x[i]))
    return cells


def _fixed2_cells(v: np.ndarray) -> list:
    """"%.2f" % f for each float f of v: rounded half to even in integers
    from the mantissa, by "%.2f" itself for NaN, infinities and |f| >= 2**40."""
    m, e = np.frexp(v)  # |v| = |m| 2**e with 0.5 <= |m| < 1, or m = 0
    exact = np.isfinite(v) & (e <= 40)
    mant = (np.where(exact, np.abs(m), 0.0) * 2.0**53).astype(np.int64)
    # |v| = mant 2**-s with s >= 13, and num < 2**60; s above 62 is cut to 62,
    # which still rounds 100 |v| < 0.2 to 0
    num = 100 * mant
    s = np.clip(53 - e, 13, 62).astype(np.int64)
    q = num >> s
    rem = num - (q << s)
    half = np.int64(1) << (s - 1)
    q += (rem > half) | ((rem == half) & (q % 2 == 1))  # round half to even
    cells = _frame_cells(_decimal_frame(q, np.signbit(v), 2, 2))
    for i in np.flatnonzero(~exact).tolist():
        cells[i] = "%.2f" % float(v[i])
    return cells


def write_signal_csv(sig: Signal, path) -> None:
    data = sig.data
    offset = sig.offset

    def frames(rows):
        k = np.arange(offset + rows.start, offset + rows.stop, dtype=np.int64)
        return _join_frames(
            [_decimal_frame(np.abs(k), k < 0, 0),
             *_value_frames(data[rows])],
            b"\r\n",
        )

    _write_rows(
        path,
        "index,re,im\r\n",
        len(data),
        [
            lambda rows: list(map(repr, range(offset + rows.start, offset + rows.stop))),
            lambda rows: list(map(repr, data.real[rows].tolist())),
            lambda rows: list(map(repr, data.imag[rows].tolist())),
        ],
        # indices from 10**18 on take the row path
        frames=frames if -(10**18) < offset and offset + len(data) <= 10**18 else None,
    )


_SIGNAL_ROW = np.dtype([("index", np.int64), ("re", float), ("im", float)])


def read_signal_csv(path) -> Signal:
    """Signal from `index,re,im` rows; missing indices read as zero and the
    last row of a repeated index wins.

    A headed file of three-column rows is parsed in bulk by numpy.  Any file
    numpy rejects (no header, 2- or 4-column rows, blank cells, malformed
    rows, indices beyond int64) goes through the row parser, which accepts
    the same files as numpy plus those and reports errors as `path:line`.
    Both reject an index spread above `defaults.MAX_SAMPLES` before allocating.
    """
    path = Path(path)
    try:
        rows = _load_signal_rows(path)
        if rows is None:
            return _parse_signal_rows(path)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from exc
    if not len(rows):
        return Signal.zero()
    index = rows["index"]
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    last = order[np.append(ordered[1:] != ordered[:-1], True)]  # last row per index
    lo, hi = int(ordered[0]), int(ordered[-1])
    _check_spread(path, lo, hi)
    dense = np.zeros(hi - lo + 1, dtype=complex)
    slots = index[last] - lo
    dense.real[slots] = rows["re"][last]
    dense.imag[slots] = rows["im"][last]
    return Signal.from_samples(lo, dense)


def _check_spread(path: Path, lo: int, hi: int) -> None:
    if hi - lo + 1 > defaults.MAX_SAMPLES:
        raise InputFormatError(
            f"{path}: indices {lo}..{hi} span {hi - lo + 1} samples, "
            f"more than {defaults.MAX_SAMPLES}"
        )


def _load_signal_rows(path: Path):
    """The rows of a headed three-column signal file as a _SIGNAL_ROW array,
    or None when np.loadtxt does not accept the file."""
    with path.open() as fh:
        if fh.readline().split(",", 1)[0].strip().lower() != "index":
            return None
    with warnings.catch_warnings():
        # a header-only file is an empty signal, not a numpy warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(
                path, dtype=_SIGNAL_ROW, delimiter=",", comments=None,
                skiprows=1, ndmin=1,
            )
        except ValueError:
            return None


def _parse_signal_rows(path: Path) -> Signal:
    entries = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0].strip().lower() == "index":
                continue
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                idx = int(row[0])
                re = float(row[1])
                im = float(row[2]) if len(row) > 2 else 0.0
            except (ValueError, IndexError) as exc:
                raise InputFormatError(
                    f"{path}:{lineno}: expected 'index,re,im', got {row!r}"
                ) from exc
            entries[idx] = complex(re, im)
    if not entries:
        return Signal.zero()
    lo = min(entries)
    hi = max(entries)
    _check_spread(path, lo, hi)
    return Signal.from_samples(lo, [entries.get(i, 0.0) for i in range(lo, hi + 1)])


def write_grid_csv(g: GridFunction, path) -> None:
    """One row per grid cell: its left endpoint and value."""
    data = g.data
    lo, j = g.support_lo, g.j_level

    def x_cells(rows):
        return _grid_x_cells(np.arange(lo + rows.start, lo + rows.stop), j)

    _write_rows(
        path,
        "x,value_re,value_im\r\n",
        len(data),
        [
            x_cells,
            lambda rows: _float_cells(data.real[rows]),
            lambda rows: _float_cells(data.imag[rows]),
        ],
        frames=lambda rows: _join_frames(
            [_str_frame(x_cells(rows)), *_value_frames(data[rows])], b"\r\n"
        ),
    )


def read_grid_csv(path, j_level: int) -> GridFunction:
    """GridFunction from `x,value_re,value_im` rows; row i must be at
    x = (lo + i) * 2**-j_level, the grid points in order without gaps."""
    path = Path(path)
    xs = []
    vals = []
    lines = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1 and row and row[0].strip().lower() == "x":
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    xs.append(float(row[0]))
                    vals.append(complex(float(row[1]), float(row[2]) if len(row) > 2 else 0.0))
                except (ValueError, IndexError) as exc:
                    raise InputFormatError(
                        f"{path}:{lineno}: expected 'x,value_re,value_im', got {row!r}"
                    ) from exc
                lines.append(lineno)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from exc
    if not xs:
        raise InputFormatError(f"{path}: no samples")
    k = np.array(xs) * 2.0**j_level  # exact: a power-of-two scale
    want = np.round(k[0]) + np.arange(len(k))
    bad = np.flatnonzero((k != want) | ~(np.abs(want) < 2.0**53))
    if len(bad):
        i = bad[0]
        expected = f"{float(want[i]) * 2.0**-j_level!r}, the next point" if i else "a point"
        raise InputFormatError(f"{path}:{lines[i]}: x = {xs[i]!r} is not {expected} "
                               f"of the 2**-{j_level} grid")
    return GridFunction.from_values(j_level, int(want[0]), vals)


def write_svg_polyline(
    xs: Sequence[float], ys: Sequence[float], path, width: int = 640, height: int = 320
) -> None:
    """Static polyline plot of (x, y) pairs with a light axis box."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 0:
        raise ValueError("nothing to plot")
    pad = 10.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    px = pad + (xs - x0) * sx
    py = height - pad - (ys - y0) * sy
    _write_rows(
        path,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" '
        f'stroke="#cccccc"/>\n'
        '<polyline points="',
        len(px),
        [lambda rows: _fixed2_cells(px[rows]), lambda rows: _fixed2_cells(py[rows])],
        tail='" fill="none" stroke="#1f77b4" stroke-width="1"/>\n</svg>\n',
        lead=" ",
        end="",
    )
