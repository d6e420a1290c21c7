"""File formats used by the command line: JSON for banks/matrices/steps,
CSV for signals and grid functions, minimal SVG polylines for plots."""

from __future__ import annotations

import csv
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


def _write_rows(path, header: str, *columns) -> None:
    """`header` then one row per entry of the columns, each cell its repr
    (shortest round-trip floats), CRLF line ends: the bytes csv.writer gives
    for these cells, built as one string."""
    body = "".join(f"{a!r},{b!r},{c!r}\r\n" for a, b, c in zip(*columns))
    with Path(path).open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.write(body)


def write_signal_csv(sig: Signal, path) -> None:
    data = sig.data
    _write_rows(
        path,
        "index,re,im",
        range(sig.offset, sig.end),
        data.real.tolist(),
        data.imag.tolist(),
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
    _write_rows(
        path,
        "x,value_re,value_im",
        g.x().tolist(),
        data.real.tolist(),
        data.imag.tolist(),
    )


def read_grid_csv(path, j_level: int) -> GridFunction:
    path = Path(path)
    xs = []
    vals = []
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
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from exc
    if not xs:
        raise InputFormatError(f"{path}: no samples")
    step = 2.0 ** (-j_level)
    lo = round(xs[0] / step)
    return GridFunction.from_values(j_level, lo, vals)


def write_svg_polyline(
    xs: Sequence[float], ys: Sequence[float], path, width: int = 640, height: int = 320
) -> None:
    """Static polyline plot of (x, y) pairs with a light axis box.

    The pixel coordinates are computed as two arrays and formatted with
    "%.2f" in one join, the same bytes as formatting each point on its own.
    """
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
    pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" '
        f'stroke="#cccccc"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1"/>\n'
        "</svg>\n"
    )
    Path(path).write_text(svg)
