"""Signal and grid CSV formats: reader semantics, writer bytes, and the
agreement of the bulk reader with the row-by-row parser."""

import cmath
import csv
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_signal
from wavebank import defaults, fileio
from wavebank.cascade import GridFunction, scaling_function, wavelet_from_scaling
from wavebank.cli import main
from wavebank.design import daubechies4
from wavebank.filterbank import FilterBank
from wavebank.fileio import (
    InputFormatError,
    read_grid_csv,
    read_signal_csv,
    write_grid_csv,
    write_signal_csv,
    write_svg_polyline,
)
from wavebank.operators import Signal, pyramid_decompose


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


def _reference_svg_bytes(xs, ys, width=640, height=320):
    """The whole SVG file the polyline writer must produce."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" '
        f'stroke="#cccccc"/>\n'
        f'<polyline points="{_reference_polyline_points(xs, ys, width, height)}" '
        'fill="none" stroke="#1f77b4" stroke-width="1"/>\n'
        "</svg>\n"
    ).encode()


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


def _reference_grid_bytes(g, path):
    """The row-at-a-time grid writer: repr of x = k * 2**-J and of the value."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value_re", "value_im"])
        for x, v in zip(g.x().tolist(), g.values):
            writer.writerow([repr(x), repr(v.real), repr(v.imag)])
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

    @settings(
        derandomize=True, max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(1, 60),
        lo=st.integers(-(10**6), 10**6),
        seed=st.integers(0, 2**32 - 1),
        crlf=st.booleans(),
    )
    def test_bulk_and_row_parsers_agree(self, tmp_path, n, lo, seed, crlf):
        # unsorted rows with repeated and missing indices, under a header
        # (numpy's bulk parser) and without one (the row parser)
        rng = np.random.default_rng(seed)
        index = (lo + rng.integers(0, 2 * n, size=n)).tolist()
        values = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-30, 30, size=(n, 2))
        values[rng.random((n, 2)) < 0.1] = -0.0
        body = "".join(f"{k},{re!r},{im!r}\n" for k, (re, im) in zip(index, values.tolist()))
        if crlf:
            body = body.replace("\n", "\r\n")
        headed, bare = tmp_path / "headed.csv", tmp_path / "bare.csv"
        headed.write_text("index,re,im\n" + body, newline="")
        bare.write_text(body, newline="")
        assert fileio._load_signal_rows(headed) is not None  # the bulk parser reads it
        a, b = read_signal_csv(headed), read_signal_csv(bare)
        last = dict(zip(index, values.tolist()))  # the last row per index wins
        first = min(last)
        want = np.zeros(max(last) - first + 1, dtype=complex)
        for k, (re, im) in last.items():
            want.real[k - first], want.imag[k - first] = re, im
        ref = Signal.from_samples(first, want)
        for sig in (a, b):
            assert sig.offset == ref.offset
            assert sig.data.tobytes() == ref.data.tobytes()


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

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 1.0, 2.0], [np.nan, 1.0, 2.0]),
            ([0.0, 1.0, 2.0], [np.inf, 0.0, -np.inf]),
            ([0.0, 1e300], [-1e300, 1e300]),
        ],
        ids=["nan", "inf", "huge"],
    )
    def test_matches_point_writer_on_non_finite_pixels(self, tmp_path, xs, ys):
        path = tmp_path / "p.svg"
        with np.errstate(invalid="ignore", over="ignore"):
            write_svg_polyline(xs, ys, path)
            assert path.read_bytes() == _reference_svg_bytes(xs, ys)


# "%.2f" ties of the binary value round half to even; below 2**-10 every
# value rounds to (-)0.00; NaN, infinities and |v| >= 2**40 are formatted
# by "%.2f" itself
FIXED2_EDGES = [
    0.125, 0.375, -0.125, -0.375, 0.625, 2.675, 1.005, 0.005, -0.005, 0.015,
    2.0**-10, -(2.0**-10), 2.0**-11, -(2.0**-11), 5e-324, -5e-324, 0.0, -0.0,
    np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**40, -(2.0**40),
    2.0**40 - 2.0**-12, 2.0**40 - 0.125, 639.995, 630.0, 10.0,
]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(x: float, step: int) -> float:
    for _ in range(abs(step)):
        x = math.nextafter(x, math.copysign(math.inf, step))
    return x


# the float64 kernel's hard cases: any bit pattern (NaN, infinities and
# subnormals included), signed zeros, powers of two (where the lower
# neighbour is nearer) and of ten with their neighbours, both sides of
# repr's switches to scientific notation, and integers beyond 2**53
REPR_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.builds(
        _neighbours,
        st.one_of(
            st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
            st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
            st.sampled_from([1e-4, 1e16]),
        ),
        st.integers(-2, 2),
    ),
    st.floats(0.9e-4, 1.1e-4),
    st.floats(0.9e16, 1.1e16),
    st.integers(-(2**80), 2**80).map(float),
)


class TestExactText:
    """The numpy text paths against repr, "%.2f" and the row writers."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.tuples(REPR_VALUES, st.booleans()), min_size=1, max_size=50))
    def test_repr_frame_matches_repr(self, values):
        a = np.array([-x if negate else x for x, negate in values])
        assert fileio._frame_cells(fileio._repr_frame(a)) == list(map(repr, a.tolist()))

    def test_repr_frame_on_random_bit_patterns(self):
        rng = np.random.default_rng(2020)
        a = rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64)
        assert fileio._frame_cells(fileio._repr_frame(a)) == list(map(repr, a.tolist()))

    def test_fixed2_edges(self):
        want = ["%.2f" % v for v in FIXED2_EDGES]
        assert fileio._fixed2_cells(np.array(FIXED2_EDGES)) == want

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-700.0, 700.0),
            st.integers(-(10**7), 10**7).map(lambda k: k / 8),  # exact ties
            st.sampled_from(FIXED2_EDGES),
        ),
        min_size=1,
        max_size=40,
    ))
    def test_fixed2_matches_format(self, values):
        assert fileio._fixed2_cells(np.array(values)) == ["%.2f" % v for v in values]

    @settings(
        derandomize=True, max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        j=st.integers(0, defaults.MAX_J),
        # around 0 the rows cross x = 0 and, for J >= 14, |x| = 1e-4
        lo=st.one_of(st.integers(-40, 8), st.integers(-(2**24), 2**24)),
        n=st.integers(1, 60),
        imag=st.sampled_from(["zero", "one -0.0", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_matches_row_writer(self, tmp_path, j, lo, n, imag, seed):
        rng = np.random.default_rng(seed)
        re = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
        im = rng.normal(size=n) if imag == "random" else np.zeros(n)
        if imag == "one -0.0":
            im[rng.integers(n)] = -0.0
        data = np.empty(n, dtype=complex)
        data.real, data.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
        g = GridFunction.from_values(j, lo, data)
        assert imag != "one -0.0" or np.signbit(g.data.imag).any()
        path = tmp_path / "g.csv"
        write_grid_csv(g, path)
        assert path.read_bytes() == _reference_grid_bytes(g, tmp_path / "r.csv")

    @pytest.mark.parametrize(
        "j, lo, n",
        [
            (16, -10, 40),  # |x| < 1e-4 for |k| <= 6 takes repr
            (16, 6000, 1200),  # |k * 5**16| >= 10**15 from k = 6554 on
            (16, 0, 3 * 2**12),
            (0, -5, 11),  # integers print as "3.0"
            (24, -3, 7),  # 5**24 >= 10**15: every row takes repr
        ],
    )
    def test_grid_x_column_boundaries(self, j, lo, n):
        k = np.arange(lo, lo + n)
        want = [repr(x) for x in (k * 2.0**-j).tolist()]
        assert fileio._grid_x_cells(k, j) == want

    @pytest.mark.parametrize("n", [2**13 - 1, 2**13, 2**13 + 1])
    def test_block_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        sig = random_signal(rng, n, offset=-7)
        write_signal_csv(sig, tmp_path / "s.csv")
        want = _reference_signal_bytes(sig, tmp_path / "r.csv")
        assert (tmp_path / "s.csv").read_bytes() == want
        g = GridFunction.from_values(12, -5, sig.samples)
        write_grid_csv(g, tmp_path / "g.csv")
        want = _reference_grid_bytes(g, tmp_path / "r.csv")
        assert (tmp_path / "g.csv").read_bytes() == want
        write_svg_polyline(g.x(), g.data.real, tmp_path / "p.svg")
        want = _reference_svg_bytes(g.x(), g.data.real)
        assert (tmp_path / "p.svg").read_bytes() == want

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_frame_threshold_edges(self, tmp_path, step):
        # below the threshold a block takes the row path, from it the frames
        n = fileio._FRAME_ROWS + step
        rng = np.random.default_rng(n)
        sig = random_signal(rng, n, offset=-(n // 2))
        write_signal_csv(sig, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == _reference_signal_bytes(sig, tmp_path / "r.csv")
        g = GridFunction.from_values(14, -(n // 3), sig.data * 10.0 ** rng.integers(-8, 8, n))
        write_grid_csv(g, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == _reference_grid_bytes(g, tmp_path / "r.csv")

    @pytest.mark.parametrize(
        "n", [fileio._FRAME_ROWS - 1, fileio._FRAME_ROWS, fileio._FRAME_ROWS + 1,
              2**13 + fileio._FRAME_ROWS],  # the last: two frame blocks
    )
    def test_svg_frame_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        xs = np.sort(rng.uniform(-3.0, 4.0, n))
        ys = np.cumsum(rng.normal(size=n))
        write_svg_polyline(xs, ys, tmp_path / "p.svg")
        assert (tmp_path / "p.svg").read_bytes() == _reference_svg_bytes(xs, ys)

    @staticmethod
    def count_row_path_cells(monkeypatch):
        """Patch `_fixed2_cells`, the row path's formatter, to record the
        length of each column it is given."""
        calls = []
        real = fileio._fixed2_cells

        def row_path_cells(v):
            calls.append(len(v))
            return real(v)

        monkeypatch.setattr(fileio, "_fixed2_cells", row_path_cells)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 599])
    def test_short_svg_block_takes_the_frame_path(self, tmp_path, monkeypatch, n):
        calls = self.count_row_path_cells(monkeypatch)
        rng = np.random.default_rng(n)
        xs = np.sort(rng.uniform(-3.0, 4.0, n))
        ys = np.cumsum(rng.normal(size=n))
        write_svg_polyline(xs, ys, tmp_path / "p.svg")
        assert calls == []
        assert (tmp_path / "p.svg").read_bytes() == _reference_svg_bytes(xs, ys)

    def test_short_svg_block_with_a_nan_takes_the_row_path(self, tmp_path, monkeypatch):
        calls = self.count_row_path_cells(monkeypatch)
        xs, ys = np.arange(5.0), np.array([0.0, 1.0, np.nan, 2.0, 1.5])
        with np.errstate(invalid="ignore"):
            write_svg_polyline(xs, ys, tmp_path / "p.svg")
            want = _reference_svg_bytes(xs, ys)
        assert calls == [5, 5]
        assert (tmp_path / "p.svg").read_bytes() == want

    @pytest.mark.parametrize("special", ["nan-y", "nan-pixel", "huge-pixel"])
    def test_svg_frame_block_with_a_special_cell_takes_the_row_path(
        self, tmp_path, monkeypatch, special
    ):
        # a NaN y makes every y pixel NaN; an infinite y makes its own pixel
        # NaN; a height of 2**45 + 20 puts the lowest y at pixel 2**45 + 10
        n, height = 2 * fileio._FRAME_ROWS, 320
        xs = np.arange(n) / 64.0
        ys = np.sin(xs)
        if special == "huge-pixel":
            height = 2**45 + 20
        else:
            ys[n // 2] = np.nan if special == "nan-y" else np.inf
        calls = []
        real = fileio._fixed2_cells

        def row_path_cells(v):
            calls.append(len(v))
            return real(v)

        monkeypatch.setattr(fileio, "_fixed2_cells", row_path_cells)
        with np.errstate(invalid="ignore"):
            write_svg_polyline(xs, ys, tmp_path / "p.svg", height=height)
            want = _reference_svg_bytes(xs, ys, height=height)
        assert calls == [n, n]  # the x and y columns of the row path
        assert (tmp_path / "p.svg").read_bytes() == want

    def test_frame_block_with_special_cells(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 2 * fileio._FRAME_ROWS
        special = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1e-5, -1.5e300,
                   1e16, 1.2345678901234568e17, 0.0, -0.0, 1e-4, 9999999999999998.0]
        re = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
        im = rng.normal(size=n)
        re[1 : 1 + len(special)] = special
        im[-1 - len(special) : -1] = special
        data = np.empty(n, dtype=complex)
        data.real, data.imag = re, im
        for sig in (Signal.from_samples(-3, data), Signal.from_samples(2**62, data)):
            write_signal_csv(sig, tmp_path / "s.csv")
            want = _reference_signal_bytes(sig, tmp_path / "r.csv")
            assert (tmp_path / "s.csv").read_bytes() == want
        g = GridFunction.from_values(3, 5, data)
        write_grid_csv(g, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == _reference_grid_bytes(g, tmp_path / "r.csv")

    @pytest.mark.parametrize("imag", ["+0.0", "one -0.0", "all zero"])
    def test_frame_blocks_of_real_values(self, tmp_path, imag):
        # an all-+0.0 part of a frame block is "0.0" repeated; -0.0 is not +0.0
        rng = np.random.default_rng(10)
        n = fileio._FRAME_ROWS + 3
        data = np.zeros(n, dtype=complex)
        if imag != "all zero":
            data.real = rng.normal(size=n)
        if imag == "one -0.0":
            data.imag[n // 2] = -0.0
        g = GridFunction.from_values(4, -7, data)
        write_grid_csv(g, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == _reference_grid_bytes(g, tmp_path / "r.csv")
        sig = Signal.from_samples(11, data)
        write_signal_csv(sig, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == _reference_signal_bytes(sig, tmp_path / "r.csv")

    @pytest.mark.parametrize(
        "offset",
        [-(10**18) + 1, 10**18 - fileio._FRAME_ROWS, 10**18 - fileio._FRAME_ROWS + 1, 2**63],
    )
    def test_index_digits_near_the_int64_limit(self, tmp_path, offset):
        # indices from 10**18 on take the row path
        rng = np.random.default_rng(9)
        sig = random_signal(rng, fileio._FRAME_ROWS, offset=offset)
        write_signal_csv(sig, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == _reference_signal_bytes(sig, tmp_path / "r.csv")

    def test_failed_block_leaves_no_file(self, tmp_path, monkeypatch):
        calls = []
        real = fileio._grid_x_cells

        def fail_on_second_block(k, j_level):
            calls.append(len(k))
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return real(k, j_level)

        monkeypatch.setattr(fileio, "_grid_x_cells", fail_on_second_block)
        path = tmp_path / "g.csv"
        path.write_text("an earlier file\n")
        g = GridFunction.from_values(10, 0, np.ones(2**13 + 5))
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_grid_csv(g, path)
        assert calls == [2**13, 5]
        assert not path.exists()

    def test_failed_svg_frame_block_leaves_no_file(self, tmp_path, monkeypatch):
        calls = []
        real = fileio._fixed2_units

        def fail_on_second_block(v):
            calls.append(len(v))
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return real(v)

        monkeypatch.setattr(fileio, "_fixed2_units", fail_on_second_block)
        path = tmp_path / "p.svg"
        path.write_text("an earlier file\n")
        n = 2**13 + fileio._FRAME_ROWS
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_svg_polyline(np.arange(n), np.ones(n), path)
        assert calls == [2 * 2**13, 2 * fileio._FRAME_ROWS]  # x and y of each block
        assert not path.exists()

    # offsets near +-(10**18 - n), where the index digits leave the frame
    # path, and beyond int64
    @pytest.mark.parametrize("where", ["small", "top", "bottom", "beyond"])
    @settings(
        derandomize=True, max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        # 0..2 full blocks, then a block of either path: a frame block can be
        # followed by a row block
        blocks=st.integers(0, 2),
        rest=st.one_of(st.integers(1, 2 * fileio._FRAME_ROWS), st.integers(1, 2**13)),
        step=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signal_matches_row_writer(self, tmp_path, blocks, rest, where, step, seed):
        rng = np.random.default_rng(seed)
        n = blocks * 2**13 + rest
        offset = {
            "small": int(rng.integers(-(2**20), 2**20)),
            "top": 10**18 - n,
            "bottom": -(10**18 - n),
            "beyond": 2**63,
        }[where] + step
        data = np.empty(n, dtype=complex)
        data.real = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
        data.imag = rng.normal(size=n)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 0.0]
        for part in (data.real, data.imag):
            at = rng.integers(0, n, size=rng.integers(0, 8))
            part[at] = rng.choice(special, size=len(at))
        data[0] = data[-1] = 1.5 - 0.25j  # no end zeros to trim: the offset stays
        sig = Signal.from_samples(offset, data)
        assert sig.offset == offset and len(sig.data) == n
        write_signal_csv(sig, tmp_path / "s.csv")
        want = _reference_signal_bytes(sig, tmp_path / "r.csv")
        assert (tmp_path / "s.csv").read_bytes() == want


class TestReadGridCsv:
    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0.5,1.0,0.0\n0.25,2.0,0.0\n0.75,3.0,0.0\n", 3),  # shuffled
            ("0.25,1.0,0.0\n0.5,2.0,0.0\n1.0,3.0,0.0\n", 4),  # a gap
            ("0.3,1.0,0.0\n", 2),  # off the grid
            ("0.25,1.0,0.0\n0.5,2.0,0.0\n0.8,3.0,0.0\n", 4),
            ("inf,1.0,0.0\n", 2),
        ],
        ids=["shuffled", "gap", "off-grid", "off-grid-later", "inf"],
    )
    def test_rows_must_be_consecutive_grid_points(self, tmp_path, rows, line):
        path = tmp_path / "g.csv"
        path.write_text("x,value_re,value_im\n" + rows)
        with pytest.raises(InputFormatError, match=rf"g\.csv:{line}: x = "):
            read_grid_csv(path, j_level=2)

    @pytest.mark.parametrize(
        "text, message",
        [(None, "No such file or directory"), ("x,value_re,value_im\n", "no samples")],
        ids=["missing", "header-only"],
    )
    def test_missing_or_empty_file_is_input_error(self, tmp_path, text, message):
        path = tmp_path / "g.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InputFormatError, match=rf"g\.csv: {message}$"):
            read_grid_csv(path, j_level=2)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,value_re,value_im\n-0.25,1.0,0.0\n\n0.0,2.0,1.0\n")
        g = read_grid_csv(path, j_level=2)
        assert g.support_lo == -1 and g.values == (1.0, 2.0 + 1.0j)


class TestBothReaders:
    """The signal and grid readers parse rows alike: integer x values at
    j_level 0 are consecutive grid points and valid indices."""

    BODIES = [
        "0,1.0,0.0\n1,2.0,1.0\n",
        "\n-2,1.0,0.5\n,,\n-1,2.0\n  \n0,3.0,-1.0\n",  # blank and two-column rows
        "5,1e-300,-0.0\n6,inf,nan\n",
    ]
    MALFORMED = [  # (body, line of the bad row without a header)
        ("0,1.0,0.0\n\n1,abc,0.0\n", 3),
        ("0,1.0,0.0\n1\n", 2),
        ("0,1.0,0.0\n1,2.0,0.0\n\n2,3.0,x\n", 4),
    ]

    READERS = [
        ("index,re,im", read_signal_csv),
        ("x,value_re,value_im", lambda path: read_grid_csv(path, 0)),
    ]

    def _read(self, tmp_path, headed, body):
        """What each reader makes of body, under its own header if headed."""
        out = []
        for columns, read in self.READERS:
            path = tmp_path / "rows.csv"
            path.write_text(columns + "\n" + body if headed else body)
            try:
                out.append(read(path))
            except InputFormatError as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize("headed", [False, True])
    def test_same_files_read_alike(self, tmp_path, headed, body):
        sig, grid = self._read(tmp_path, headed, body)
        assert sig.offset == grid.offset
        assert sig.data.tobytes() == grid.data.tobytes()

    @pytest.mark.parametrize("body, line", MALFORMED)
    @pytest.mark.parametrize("headed", [False, True])
    def test_same_malformed_line(self, tmp_path, headed, body, line):
        where = f"{tmp_path / 'rows.csv'}:{line + headed}"
        for (columns, _), exc in zip(self.READERS, self._read(tmp_path, headed, body)):
            assert isinstance(exc, InputFormatError)
            assert str(exc).startswith(f"{where}: expected '{columns}'")


class TestEndToEndBytes:
    """Every file the CLI writes at benchmark sizes equals the row writers'."""

    def test_cascade_j14_with_wavelets_and_plots(self, tmp_path):
        d4 = daubechies4()
        bank = FilterBank(2, (d4.lowpass, d4.filters[1].scale(cmath.exp(0.7j))))
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(json.dumps(bank.to_json()))
        out = tmp_path / "out"
        out.mkdir()
        argv = ["cascade", str(bank_path), "--j", "14", "--iters", "20",
                "-o", str(out / "phi.csv"), "--plot", str(out / "phi.svg"),
                "--psi-prefix", str(out / "psi_")]
        assert main(argv) == 0
        phi = scaling_function(bank, 14, 20).phi
        (psi,) = wavelet_from_scaling(bank, phi)
        assert psi.data.imag.any()  # the rotated high-pass makes psi complex
        ref = tmp_path / "ref"
        for name, g in [("phi", phi), ("psi_1", psi)]:
            want = _reference_grid_bytes(g, ref)
            assert (out / f"{name}.csv").read_bytes() == want
        assert (out / "phi.svg").read_bytes() == _reference_svg_bytes(phi.x(), phi.data.real)
        want = _reference_svg_bytes(psi.x(), psi.data.real)
        assert (out / "phi_psi1.svg").read_bytes() == want
        assert sorted(p.name for p in out.iterdir()) == [
            "phi.csv", "phi.svg", "phi_psi1.svg", "psi_1.csv"
        ]

    def test_cascade_j12_plots(self, tmp_path):
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(json.dumps(daubechies4().to_json()))
        out = tmp_path / "out"
        out.mkdir()
        argv = ["cascade", str(bank_path), "--j", "12", "--iters", "20",
                "-o", str(out / "phi.csv"), "--plot", str(out / "phi.svg"),
                "--psi-prefix", str(out / "psi_")]
        assert main(argv) == 0
        phi = scaling_function(daubechies4(), 12, 20).phi
        (psi,) = wavelet_from_scaling(daubechies4(), phi)
        assert len(phi.data) > 2**13  # two frame blocks
        assert (out / "phi.svg").read_bytes() == _reference_svg_bytes(phi.x(), phi.data.real)
        want = _reference_svg_bytes(psi.x(), psi.data.real)
        assert (out / "phi_psi1.svg").read_bytes() == want

    def test_pyramid_bands(self, tmp_path):
        rng = np.random.default_rng(21)
        sig = random_signal(rng, 2**15 + 3, offset=-11)
        sig_path = tmp_path / "sig.csv"
        write_signal_csv(sig, sig_path)
        out = tmp_path / "bands"
        argv = ["pyramid", str(sig_path.parent / "bank.json"), "--signal", str(sig_path),
                "--levels", "3", "--out-dir", str(out)]
        (tmp_path / "bank.json").write_text(json.dumps(daubechies4().to_json()))
        assert main(argv) == 0
        dec = pyramid_decompose(read_signal_csv(sig_path), daubechies4(), 3)
        bands = {"coarse.csv": dec.coarse}
        for level, details in enumerate(dec.details, start=1):
            for band, d in enumerate(details, start=1):
                bands[f"detail_{level}_{band}.csv"] = d
        assert sorted(p.name for p in out.iterdir()) == sorted(bands)
        for name, band in bands.items():
            want = _reference_signal_bytes(band, tmp_path / "ref.csv")
            assert (out / name).read_bytes() == want


@pytest.mark.parametrize(
    "call, fragment",
    [(lambda path: write_svg_polyline([], [], path), "nothing to plot")],
    ids=["empty-plot"],
)
def test_refusal(tmp_path, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(tmp_path / "p.svg")
    assert not (tmp_path / "p.svg").exists()
