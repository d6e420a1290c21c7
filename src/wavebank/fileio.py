"""File formats used by the command line: JSON for banks/matrices/steps,
CSV for signals and grid functions, minimal SVG polylines for plots.

The writers' bytes are fixed: CSV cells are the `repr` of their number, CSV
lines end in CRLF and SVG points are "%.2f,%.2f".  The grid `x` column, SVG
coordinates and all-+0.0 blocks of grid values get that text from exact
integer arithmetic in numpy; the helpers below say when a cell falls back to
`repr` or "%.2f".  Rows are written in blocks of at most 2**13, and a write
that fails part way removes the file.
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


def _write_rows(path, head: str, n: int, columns, tail="", lead="", end="\r\n") -> None:
    """Write head, n rows and tail to path, _BLOCK_ROWS rows per write.

    columns[c](rows) gives column c's cells for the slice `rows`.  A row is
    lead (not before the first row), its cells joined by ",", then end.  A
    failure part way removes the file.
    """
    path = Path(path)
    template = [lead] + [None, ","] * len(columns)
    template[-1] = end
    with path.open("w", newline="") as fh:
        try:
            fh.write(head)
            for start in range(0, n, _BLOCK_ROWS):
                rows = slice(start, min(start + _BLOCK_ROWS, n))
                parts = template * (rows.stop - start)
                for c, column in enumerate(columns):
                    parts[2 * c + 1 :: len(template)] = column(rows)
                if not start:
                    parts[0] = ""
                fh.write("".join(parts))
            fh.write(tail)
        except BaseException:
            fh.close()
            path.unlink()
            raise


@functools.cache
def _digit_quads() -> np.ndarray:
    """Entry r < 10**4 is the four ASCII digits of r, as the bytes of one uint32."""
    digits = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _decimal_cells(mag: np.ndarray, neg: np.ndarray, scale: int, decimals) -> list:
    """Exact positional text of -mag / 10**scale where neg, else mag / 10**scale,
    one str per entry: '-' where neg, the integer digits, '.', then the first
    `decimals` (1..scale, per entry or for all) of the `scale` decimals, the
    caller making sure the others are zeros.  mag is a nonempty int64 array
    with entries in 0..10**18 - 1, and scale >= 1."""
    width = max(len(str(int(mag.max()))), scale + 1)  # at least one integer digit
    point = width - scale
    quads = np.empty((len(mag), -(-width // 4)), dtype=np.uint32)
    rest = mag
    for g in range(quads.shape[1] - 1, -1, -1):
        rest, quads[:, g] = rest // 10**4, _digit_quads()[rest % 10**4]
    digits = quads.view(np.uint8)[:, 4 * quads.shape[1] - width :]
    text = np.insert(digits, [0, point, width], [ord("-"), ord("."), ord("\n")], axis=1)
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 0] = neg
    # no leading zeros: the integer digit worth 10**p needs mag >= 10**(p + scale)
    keep[:, 1:point] = mag[:, None] >= 10 ** np.arange(width - 1, scale, -1, dtype=np.int64)
    keep[:, point + 2 : -1] = np.arange(scale) < np.reshape(decimals, (-1, 1))
    cells = text[keep].tobytes().decode("ascii").split("\n")
    cells.pop()
    return cells


def _float_cells(a: np.ndarray) -> list:
    """repr of each float of a; all +0.0 is "0.0" repeated."""
    if not (a.any() or np.signbit(a).any()):
        return ["0.0"] * len(a)
    return list(map(repr, a.tolist()))


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
    cells = _decimal_cells(mag, k < 0, scale, decimals)
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
    cells = _decimal_cells(q, np.signbit(v), 2, 2)
    for i in np.flatnonzero(~exact).tolist():
        cells[i] = "%.2f" % float(v[i])
    return cells


def write_signal_csv(sig: Signal, path) -> None:
    data = sig.data
    offset = sig.offset
    _write_rows(
        path,
        "index,re,im\r\n",
        len(data),
        [
            lambda rows: list(map(repr, range(offset + rows.start, offset + rows.stop))),
            lambda rows: list(map(repr, data.real[rows].tolist())),
            lambda rows: list(map(repr, data.imag[rows].tolist())),
        ],
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
    _write_rows(
        path,
        "x,value_re,value_im\r\n",
        len(data),
        [
            lambda rows: _grid_x_cells(np.arange(lo + rows.start, lo + rows.stop), j),
            lambda rows: _float_cells(data.real[rows]),
            lambda rows: _float_cells(data.imag[rows]),
        ],
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
