"""Signal and grid CSV formats: reader semantics, writer bytes, and the
agreement of the bulk reader with the row-by-row parser."""

import csv
import warnings

import numpy as np
import pytest

from helpers import random_signal
from wavebank import defaults
from wavebank.cascade import GridFunction
from wavebank.fileio import (
    InputFormatError,
    read_signal_csv,
    write_grid_csv,
    write_signal_csv,
    write_svg_polyline,
)
from wavebank.operators import Signal


def _reference_polyline_points(xs, ys, width=640, height=320):
    """The point-at-a-time formatting the bulk SVG writer must match."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 10.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    return " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )


def _read_text(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    return read_signal_csv(path)


def _reference_signal_bytes(sig, path):
    """The row-at-a-time writer the bulk writer must match byte for byte."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, v in enumerate(sig.samples):
            writer.writerow([sig.offset + i, repr(v.real), repr(v.imag)])
    return path.read_bytes()


class TestReadSignalCsv:
    def test_gaps_are_zero_filled(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n2,1.0,0.5\n5,-3.0,0.0\n")
        assert sig.offset == 2
        assert sig.samples == (1.0 + 0.5j, 0, 0, -3.0)

    def test_duplicate_index_last_row_wins(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n0,1.0,0.0\n1,2.0,0.0\n0,7.0,-1.0\n")
        assert sig.offset == 0 and sig.samples == (7.0 - 1.0j, 2.0)

    def test_unsorted_rows(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n3,3.0,0.0\n1,1.0,0.0\n2,2.0,0.0\n")
        assert sig.offset == 1 and sig.samples == (1.0, 2.0, 3.0)

    def test_negative_offset(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n-4,1.0,2.0\n-3,0.5,0.0\n")
        assert sig.offset == -4 and sig.samples == (1.0 + 2.0j, 0.5)

    def test_two_columns_mean_zero_imaginary_part(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n0,1.5\n1,2.5\n")
        assert sig.samples == (1.5, 2.5)
        assert all(v.imag == 0.0 for v in sig.samples)

    def test_fourth_column_is_ignored(self, tmp_path):
        sig = _read_text(tmp_path, "index,re,im\n0,1.0,2.0,junk\n1,3.0,4.0,\n")
        assert sig.samples == (1.0 + 2.0j, 3.0 + 4.0j)

    def test_no_header(self, tmp_path):
        sig = _read_text(tmp_path, "0,1.0,0.0\n1,2.0,1.0\n")
        assert sig.offset == 0 and sig.samples == (1.0, 2.0 + 1.0j)

    def test_blank_and_comma_only_rows_are_skipped(self, tmp_path):
        text = "index,re,im\n\n0,1.0,0.0\n,,\n  \n1,2.0,0.0\n , , \n"
        sig = _read_text(tmp_path, text)
        assert sig.offset == 0 and sig.samples == (1.0, 2.0)

    def test_float_index_reports_line(self, tmp_path):
        with pytest.raises(InputFormatError, match=r"s\.csv:3:"):
            _read_text(tmp_path, "index,re,im\n0,1.0,0.0\n3.0,2.0,0.0\n")

    def test_header_only_is_zero_without_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = _read_text(tmp_path, "index,re,im\n")
        assert sig == Signal.zero()

    def test_index_beyond_int64(self, tmp_path):
        big = 2**63
        sig = _read_text(tmp_path, f"index,re,im\n{big},1.0,0.0\n")
        assert sig.offset == big and sig.samples == (1.0,)

    def test_headerless_copy_reads_the_same(self, tmp_path):
        # the same rows with and without the header go through different
        # parsers; both must give the identical signal
        rng = np.random.default_rng(5)
        sig = random_signal(rng, 257, offset=-40)
        path = tmp_path / "s.csv"
        write_signal_csv(sig, path)
        bare = tmp_path / "bare.csv"
        bare.write_bytes(path.read_bytes().split(b"\r\n", 1)[1])
        a, b = read_signal_csv(path), read_signal_csv(bare)
        assert a == b == sig
        assert a.samples == sig.samples


    # the bulk reader (headed three-column rows) and the row parser (no header)
    WIDE = ["index,re,im\n0,1.0,0.0\n{hi},1.0,0.0\n", "0,1.0\n{hi},1.0\n"]

    @pytest.mark.parametrize("text", WIDE)
    def test_index_spread_above_bound_rejected(self, tmp_path, text):
        # 10**12 + 1 samples would be 16 TB; the check fires before allocating
        with pytest.raises(InputFormatError, match="1000000000001 samples, more than"):
            _read_text(tmp_path, text.format(hi=10**12))

    @pytest.mark.parametrize("text", WIDE)
    def test_index_spread_bound_is_inclusive(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(defaults, "MAX_SAMPLES", 4)
        assert len(_read_text(tmp_path, text.format(hi=3)).samples) == 4
        with pytest.raises(InputFormatError, match="5 samples, more than 4"):
            _read_text(tmp_path, text.format(hi=4))


class TestWriteCsv:
    def test_signal_golden_bytes(self, tmp_path):
        sig = Signal.from_samples(-1, [0.1, -2.5 + 1j, complex(3e-20, -0.0)])
        path = tmp_path / "s.csv"
        write_signal_csv(sig, path)
        assert path.read_bytes() == (
            b"index,re,im\r\n-1,0.1,0.0\r\n0,-2.5,1.0\r\n1,3e-20,-0.0\r\n"
        )

    def test_grid_golden_bytes(self, tmp_path):
        g = GridFunction.from_values(2, -1, [0.5, 1j, -0.125])
        path = tmp_path / "g.csv"
        write_grid_csv(g, path)
        assert path.read_bytes() == (
            b"x,value_re,value_im\r\n-0.25,0.5,0.0\r\n0.0,0.0,1.0\r\n"
            b"0.25,-0.125,0.0\r\n"
        )

    def test_zero_signal_writes_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        write_signal_csv(Signal.zero(), path)
        assert path.read_bytes() == b"index,re,im\r\n"

    def test_matches_row_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        sig = random_signal(rng, 500, offset=-123).scale(1e-7)
        path = tmp_path / "s.csv"
        write_signal_csv(sig, path)
        assert path.read_bytes() == _reference_signal_bytes(sig, tmp_path / "r.csv")
        assert read_signal_csv(path) == sig


class TestWriteSvgPolyline:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "p.svg"
        write_svg_polyline([-1.0, 0.0, 3.0], [2.0, -0.5, 0.25], path)
        assert path.read_bytes() == (
            b'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="320" '
            b'viewBox="0 0 640 320">\n'
            b'<rect x="0" y="0" width="640" height="320" fill="white" '
            b'stroke="#cccccc"/>\n'
            b'<polyline points="10.00,10.00 165.00,310.00 630.00,220.00" '
            b'fill="none" stroke="#1f77b4" stroke-width="1"/>\n'
            b"</svg>\n"
        )

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 0.5, 1.0, 1.5], [0.7, 0.7, 0.7, 0.7]),  # flat ys
            ([2.5], [-4.0]),  # a single point
            ([-3.0, -2.2, -1.7, -0.1], [-1e-3, -5.5, -2.25, -0.3]),  # negative
        ],
        ids=["flat", "single-point", "negative"],
    )
    def test_matches_point_writer(self, tmp_path, xs, ys):
        path = tmp_path / "p.svg"
        write_svg_polyline(xs, ys, path)
        want = _reference_polyline_points(xs, ys)
        assert f'<polyline points="{want}" ' in path.read_text()

    def test_matches_point_writer_on_a_cascade_sized_plot(self, tmp_path):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-2.0, 5.0, 4097))
        ys = np.cumsum(rng.normal(size=4097)) * 1e-3
        path = tmp_path / "p.svg"
        write_svg_polyline(xs, ys, path, width=800, height=200)
        want = _reference_polyline_points(xs, ys, width=800, height=200)
        assert f'<polyline points="{want}" ' in path.read_text()
