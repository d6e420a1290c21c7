import csv
import json
import math

import numpy as np
import pytest

from wavebank import cli
from wavebank.cli import main
from wavebank.cascade import scaling_function
from wavebank.design import (
    LiftingStep,
    ProjectionParam,
    bank_from_projections,
    daubechies4,
    dft_matrix,
    lifting_recompose,
)
from wavebank.fileio import read_signal_csv, write_signal_csv
from wavebank.filterbank import FilterBank, filters_from_polyphase
from wavebank.laurent import LaurentPoly, MatLaurentPoly
from wavebank.operators import Signal


@pytest.fixture
def d4_file(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(daubechies4().to_json()))
    return path


@pytest.fixture
def signal_file(tmp_path):
    rng = np.random.default_rng(0)
    sig = Signal.from_samples(0, rng.normal(size=32))
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    return path, sig


class TestParser:
    def test_two_calls_build_one_parser(self, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert main(["verify", "--random-banks", "1", "--seed", "1"]) == 0
        assert main(["verify", "--random-banks", "2", "--seed", "2"]) == 0
        assert built == [1]


class TestDesignVerify:
    def test_design_then_verify(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "projections": [
                        {"lambda": 0.3, "theta": 1.0},
                        {"lambda": 0.8, "theta": 4.0},
                    ]
                }
            )
        )
        bank_path = tmp_path / "bank.json"
        assert main(["design", "--projections", str(params), "-o", str(bank_path)]) == 0
        assert main(["verify", str(bank_path)]) == 0

    def test_design_daubechies4(self, tmp_path, capsys):
        out = tmp_path / "d4.json"
        assert main(["design", "--daubechies4", "-o", str(out)]) == 0
        bank = FilterBank.from_json(json.loads(out.read_text()))
        assert bank.lowpass.approx_eq(daubechies4().lowpass, 1e-15)

    def test_design_six_tap(self, tmp_path):
        out = tmp_path / "six.json"
        assert main(["design", "--six-tap", "0.7", "2.1", "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_verify_broken_bank_fails(self, tmp_path):
        m = LaurentPoly.from_coeffs(0, [2**-0.5, 2**-0.5])
        broken = FilterBank(2, (m, m))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken.to_json()))
        assert main(["verify", str(path)]) == 1

    def test_verify_random_banks(self):
        assert main(["verify", "--random-banks", "5", "--seed", "7"]) == 0

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"N": 2,\n  "filters": [oops]\n}')
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err  # line-numbered diagnostic

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_verify_needs_a_bank_or_random_banks(self, capsys):
        assert main(["verify"]) == 2
        assert capsys.readouterr().err == "verify: provide a bank file or --random-banks\n"


    def test_verify_aliasing_bank_is_usage_error(self, tmp_path, capsys):
        m0 = LaurentPoly.from_coeffs(0, [0.5] + [0.0] * 2047 + [0.5])
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(FilterBank(2, (m0, m0.shift(1))).to_json()))
        assert main(["verify", str(path)]) == 2
        assert "required 2049" in capsys.readouterr().err
        assert main(["verify", str(path), "--grid", "4096"]) == 1

    @pytest.mark.parametrize("shift", [1024, 3000])
    def test_verify_prints_class_of_shifted_bank(self, tmp_path, capsys, shift):
        # det A is c*z^(1 + shift), beyond what phases on 1024 points resolve
        d4 = daubechies4()
        bank = FilterBank(2, tuple(f.shift(shift) for f in d4.filters))
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(bank.to_json()))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"winding class {shift + 1}")

    def test_bank_in_h_convention_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(dict(daubechies4().to_json(), convention="h")))
        assert main(["verify", str(path)]) == 2
        assert 'input error' in capsys.readouterr().err


class TestCascadeCommand:
    def test_writes_csv_and_svg(self, tmp_path, d4_file):
        out = tmp_path / "phi.csv"
        plot = tmp_path / "phi.svg"
        code = main(
            ["cascade", str(d4_file), "--j", "10", "--iters", "12",
             "-o", str(out), "--plot", str(plot)]
        )
        assert code == 0
        assert plot.read_text().startswith("<svg")
        # CSV values match the library to full precision
        phi = scaling_function(daubechies4(), 10, 12).phi
        with out.open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(phi.values)
        for row, x, v in zip(rows, phi.x(), phi.values):
            assert float(row[0]) == pytest.approx(x, abs=1e-15)
            assert float(row[1]) == v.real  # repr round-trips exactly
            assert float(row[2]) == v.imag

    def test_wavelet_outputs(self, tmp_path, d4_file):
        out = tmp_path / "phi.csv"
        code = main(
            ["cascade", str(d4_file), "--j", "8", "--iters", "20", "-o", str(out),
             "--psi-prefix", str(tmp_path / "psi_")]
        )
        assert code == 0
        assert (tmp_path / "psi_1.csv").exists()


class TestPyramidPackets:
    def test_pyramid_round_trip(self, tmp_path, d4_file, signal_file):
        sig_path, sig = signal_file
        outdir = tmp_path / "bands"
        code = main(
            ["pyramid", str(d4_file), "--signal", str(sig_path),
             "--levels", "3", "--out-dir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "coarse.csv").exists()
        assert (outdir / "detail_1_1.csv").exists()
        assert (outdir / "detail_3_1.csv").exists()

    def test_packets_full_partition(self, tmp_path, d4_file, signal_file):
        sig_path, _ = signal_file
        outdir = tmp_path / "leaves"
        code = main(
            ["packets", str(d4_file), "--signal", str(sig_path),
             "--depth", "2", "--out-dir", str(outdir)]
        )
        assert code == 0
        for n in range(4):
            assert (outdir / f"2_{n}.csv").exists()

    def test_packets_custom_partition(self, tmp_path, d4_file, signal_file):
        sig_path, _ = signal_file
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"leaves": [[1, 1], [2, 0], [2, 1]]}))
        outdir = tmp_path / "leaves"
        code = main(
            ["packets", str(d4_file), "--signal", str(sig_path),
             "--partition", str(part), "--out-dir", str(outdir)]
        )
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["1_1.csv", "2_0.csv", "2_1.csv"]

    def test_invalid_partition_is_usage_error(self, tmp_path, d4_file, signal_file):
        sig_path, _ = signal_file
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"leaves": [[1, 0]]}))
        code = main(
            ["packets", str(d4_file), "--signal", str(sig_path),
             "--partition", str(part), "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2


class TestTransferCommand:
    def test_d4_passes(self, tmp_path, d4_file):
        out = tmp_path / "spec.json"
        assert main(["transfer", str(d4_file), "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["pf_holds"] is True

    def test_stretched_haar_fails(self, tmp_path):
        bank = FilterBank.from_lowpass(
            LaurentPoly.from_coeffs(0, [2**-0.5, 0, 0, 2**-0.5])
        )
        path = tmp_path / "stretched.json"
        path.write_text(json.dumps(bank.to_json()))
        out = tmp_path / "spec.json"
        assert main(["transfer", str(path), "-o", str(out)]) == 1
        assert json.loads(out.read_text())["pf_holds"] is False

    def test_d4_periodization_passes(self, tmp_path, d4_file):
        out = tmp_path / "spec.json"
        argv = ["transfer", str(d4_file), "-o", str(out), "--per", "--n-max", "200"]
        assert main(argv) == 0
        per = json.loads(out.read_text())["per"]
        assert set(per) == {"max_dev_from_1", "is_constant_1", "tail_estimate", "n_max"}
        assert per["is_constant_1"] is True
        assert per["n_max"] == 200

    def test_stretched_haar_periodization_fails(self, tmp_path, capsys):
        bank = FilterBank.from_lowpass(
            LaurentPoly.from_coeffs(0, [2**-0.5, 0, 0, 2**-0.5])
        )
        path = tmp_path / "stretched.json"
        path.write_text(json.dumps(bank.to_json()))
        out = tmp_path / "spec.json"
        argv = ["transfer", str(path), "-o", str(out), "--per", "--n-max", "200"]
        assert main(argv) == 1
        assert "periodization deviates from 1 by" in capsys.readouterr().out
        assert json.loads(out.read_text())["per"]["is_constant_1"] is False

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, tmp_path, d4_file, capsys, n_max):
        out = tmp_path / "spec.json"
        argv = ["transfer", str(d4_file), "-o", str(out), "--per", "--n-max", n_max]
        assert main(argv) == 2
        assert "error: n_max must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_n_max_with_tail_above_tolerance_is_usage_error(self, tmp_path, capsys):
        # tail estimate 2 / (pi**2 * 5) = 0.041 exceeds the 1e-2 flatness
        # tolerance, so an orthonormal bank would fail the check
        path = tmp_path / "haar.json"
        path.write_text(json.dumps(FilterBank.haar().to_json()))
        out = tmp_path / "spec.json"
        argv = ["transfer", str(path), "-o", str(out), "--per", "--n-max", "5"]
        assert main(argv) == 2
        assert "n_max must be >= 21" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree", [129, 511])
    def test_long_bank_rejected_before_computing(
        self, tmp_path, monkeypatch, capsys, degree
    ):
        from wavebank import cli

        def never(*args, **kwargs):
            raise AssertionError("transfer ran on a bank above the degree bound")

        monkeypatch.setattr(cli, "spectrum", never)
        monkeypatch.setattr(cli, "per_check", never)
        taps = [2**-0.5] + [0.0] * (degree - 1) + [2**-0.5]
        bank = FilterBank.from_lowpass(LaurentPoly.from_coeffs(0, taps))
        path = tmp_path / "long.json"
        path.write_text(json.dumps(bank.to_json()))
        out = tmp_path / "spec.json"
        assert main(["transfer", str(path), "-o", str(out), "--per"]) == 2
        assert f"error: the degree of |m0|^2 must be in 0..128, got {degree}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_eight_tap_bank_within_bound(self, tmp_path):
        params = [(0.3, 1.0), (0.6, 2.0), (0.2, 0.5)]
        bank = bank_from_projections([ProjectionParam(*p) for p in params])
        assert bank.lowpass.span == 7
        path = tmp_path / "eight.json"
        path.write_text(json.dumps(bank.to_json()))
        out = tmp_path / "spec.json"
        assert main(["transfer", str(path), "-o", str(out), "--per"]) == 0
        assert json.loads(out.read_text())["per"]["is_constant_1"] is True


class TestOptionBounds:
    """Oversized or negative size options exit 2 before the bank or signal
    is read: the bank and signal paths below do not exist."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["cascade", "nope.json", "--j", "17", "-o", "phi.csv"], "--j"),
            (["cascade", "nope.json", "--j", "-1", "-o", "phi.csv"], "--j"),
            (["packets", "nope.json", "--signal", "s.csv", "--depth", "13",
              "--out-dir", "x"], "--depth"),
            (["packets", "nope.json", "--signal", "s.csv", "--depth", "0",
              "--out-dir", "x"], "--depth"),
            (["pyramid", "nope.json", "--signal", "s.csv", "--levels", "33",
              "--out-dir", "x"], "--levels"),
            (["verify", "nope.json", "--grid", str(2**16 + 1)], "--grid"),
            (["design", "--daubechies4", "--grid", "0", "-o", "d4.json"], "--grid"),
            (["verify", "--random-banks", "10001"], "--random-banks"),
            (["verify", "--random-banks", "-2"], "--random-banks"),
        ],
    )
    def test_rejected_before_reading(self, tmp_path, monkeypatch, capsys, argv, option):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"error: {option} must be in" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["cascade", "nope.json", "--iters", "0", "-o", "phi.csv"], "--iters"),
            (["cascade", "nope.json", "--iters", "1001", "-o", "phi.csv"], "--iters"),
            (["cascade", "nope.json", "--iters", "1000000000", "-o", "phi.csv"],
             "--iters"),
            (["transfer", "nope.json", "--per", "--n-max", "1000001", "-o", "t.json"],
             "--n-max"),
            (["transfer", "nope.json", "--n-max", str(10**18), "-o", "t.json"],
             "--n-max"),
        ],
    )
    def test_iteration_counts_rejected_before_reading(
        self, tmp_path, monkeypatch, capsys, argv, option
    ):
        # an unbounded --iters or --n-max sets how long the command runs
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"error: {option} must be in 1.." in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_packet_leaves_bounded_for_more_bands(self, tmp_path, signal_file, capsys):
        # depth 8 is admitted for two bands (256 leaves) but makes 3**8 = 6561
        bank = tmp_path / "n3.json"
        three_band = filters_from_polyphase(MatLaurentPoly.from_constant(dft_matrix(3)))
        bank.write_text(json.dumps(three_band.to_json()))
        argv = ["packets", str(bank), "--signal", str(signal_file[0]), "--depth", "8",
                "--out-dir", str(tmp_path / "leaves")]
        assert main(argv) == 2
        assert "more than 4096" in capsys.readouterr().err
        assert not (tmp_path / "leaves").exists()

    @pytest.mark.parametrize("depth", [13, 10**6])
    def test_partition_depth_bounded(self, tmp_path, d4_file, signal_file, capsys, depth):
        # a depth-13 partition would write 4097 leaf files, and validating a
        # deep one allocates N**depth counters
        leaves = [[1, 1]] + [[depth, n] for n in range(2**12)]
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"leaves": leaves}))
        argv = ["packets", str(d4_file), "--signal", str(signal_file[0]),
                "--partition", str(part), "--out-dir", str(tmp_path / "leaves")]
        assert main(argv) == 2
        assert f"must be in 1..12, got {depth}" in capsys.readouterr().err
        assert not (tmp_path / "leaves").exists()

    def test_empty_partition_is_usage_error(self, tmp_path, d4_file, signal_file, capsys):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"leaves": []}))
        argv = ["packets", str(d4_file), "--signal", str(signal_file[0]),
                "--partition", str(part), "--out-dir", str(tmp_path / "leaves")]
        assert main(argv) == 2
        assert "no leaves" in capsys.readouterr().err
        assert not (tmp_path / "leaves").exists()

    def test_signal_index_spread_is_input_error(self, tmp_path, d4_file, capsys):
        # indices 0 and 10**12 would make a 16 TB signal; it is never allocated
        sig = tmp_path / "wide.csv"
        sig.write_text("index,re,im\n0,1.0,0.0\n1000000000000,1.0,0.0\n")
        argv = ["pyramid", str(d4_file), "--signal", str(sig),
                "--out-dir", str(tmp_path / "bands")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "more than 4194304" in err
        assert not (tmp_path / "bands").exists()


class TestLiftCommand:
    def test_factorize_and_recompose(self, tmp_path):
        steps = [
            LiftingStep("diag", k_const=2.0),
            LiftingStep("lower", poly=LaurentPoly.from_coeffs(-1, [1.0, 0.5])),
            LiftingStep("upper", poly=LaurentPoly.from_coeffs(0, [0.0, 2.0])),
        ]
        A = lifting_recompose(steps)
        mat_path = tmp_path / "mat.json"
        mat_path.write_text(json.dumps(A.to_json()))
        steps_path = tmp_path / "steps.json"
        assert main(["lift", str(mat_path), "-o", str(steps_path)]) == 0

        back_path = tmp_path / "back.json"
        assert main(
            ["lift", str(steps_path), "--recompose", "-o", str(back_path)]
        ) == 0
        B = MatLaurentPoly.from_json(json.loads(back_path.read_text()))
        diff = A - B
        resid = max(
            diff.entry(i, j).max_abs_coeff() for i in range(2) for j in range(2)
        )
        assert resid <= 1e-9

    def test_zero_top_left_entry_is_swapped_in_first(self, tmp_path, capsys):
        # a = 0 takes the factorization's lower step by -1 before any reduction
        A = MatLaurentPoly.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        mat_path, steps_path = tmp_path / "mat.json", tmp_path / "steps.json"
        mat_path.write_text(json.dumps(A.to_json()))
        assert main(["lift", str(mat_path), "-o", str(steps_path)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 4 steps to {steps_path} (recomposition residual 0.000e+00)\n"
        )
        assert len(json.loads(steps_path.read_text())["steps"]) == 4

    def test_bad_determinant_is_usage_error(self, tmp_path):
        A = MatLaurentPoly.from_constant(np.diag([2.0, 1.0]))
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(A.to_json()))
        assert main(["lift", str(path), "-o", str(tmp_path / "steps.json")]) == 2


    def test_factorization_error_is_usage_error(self, tmp_path, monkeypatch, capsys):
        from wavebank import cli
        from wavebank.design import FactorizationError

        def stall(A):
            raise FactorizationError("degree reduction stalled", A)

        monkeypatch.setattr(cli, "lifting_factorize", stall)
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(MatLaurentPoly.from_constant(np.eye(2)).to_json()))
        assert main(["lift", str(path), "-o", str(tmp_path / "steps.json")]) == 2
        assert "error: degree reduction stalled" in capsys.readouterr().err


class TestJsonInputErrors:
    @pytest.mark.parametrize(
        "argv, obj, reason",
        [
            (["design", "-o", "{tmp}/bank.json", "--projections"],
             {"projections": [{"lambda": 2.0, "theta": 0.5}]}, "lam must lie in [0, 1]"),
            (["packets", "{bank}", "--signal", "{signal}", "--out-dir", "{tmp}/out",
              "--partition"],
             {"leaves": [[1, 0], "a"]}, "not enough values to unpack"),
            (["lift", "-o", "{tmp}/back.json", "--recompose"],
             {"steps": [{"kind": "twist", "poly": {"min_deg": 0, "coeffs": [[1.0, 0.0]]}}]},
             "unknown step kind 'twist'"),
        ],
        ids=["projection-lambda", "partition-leaf", "step-kind"],
    )
    def test_value_errors_in_files_are_input_errors(
        self, tmp_path, d4_file, signal_file, capsys, argv, obj, reason
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        names = dict(tmp=tmp_path, bank=d4_file, signal=signal_file[0])
        assert main([a.format(**names) for a in argv] + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ") and reason in err


def _d4_json_with(change):
    """The four-tap bank file's JSON text after change(obj) edits it."""
    obj = daubechies4().to_json()
    change(obj)
    return json.dumps(obj)


def _set_min_deg(obj, degree):
    for f in obj["filters"]:
        f["min_deg"] = degree


class TestExitCodes:
    """Unwritable outputs, oversized and non-finite numbers exit 2 with a
    one-line message, never 1 or a traceback."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["design", "--daubechies4", "-o", "{tmp}/missing/d4.json"], None),
            (["cascade", "{bank}", "--j", "4", "-o", "{tmp}/missing/phi.csv"], None),
            (["pyramid", "{bank}", "--signal", "{signal}", "--levels", "1",
              "--out-dir", "{input}"], "x"),
            (["verify", "{input}"],
             _d4_json_with(lambda obj: obj["filters"][0]["coeffs"][0].__setitem__(0, 10**400))),
            (["design", "-o", "{tmp}/bank.json", "--projections", "{input}"],
             '{"projections": [{"lambda": %d, "theta": 0.5}]}' % 10**400),
            (["verify", "{input}"], _d4_json_with(lambda obj: _set_min_deg(obj, 10**20))),
        ],
        ids=["design-output", "cascade-output", "pyramid-out-dir-is-a-file",
             "huge-tap", "huge-lambda", "huge-min-deg"],
    )
    def test_unwritable_or_oversized_exits_2(
        self, tmp_path, d4_file, signal_file, capsys, argv, text
    ):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        names = dict(tmp=tmp_path, bank=d4_file, signal=signal_file[0], input=path)
        assert main([a.format(**names) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(("error: ", "input error: ")) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["verify", "{input}"],
             _d4_json_with(lambda obj: obj["filters"][0]["coeffs"][1].__setitem__(0, math.nan))),
            (["transfer", "{input}", "--per", "-o", "{tmp}/t.json"],
             _d4_json_with(lambda obj: obj["filters"][0]["coeffs"][1].__setitem__(0, math.nan))),
            (["lift", "{input}", "--recompose", "-o", "{tmp}/m.json"],
             '{"steps": [{"kind": "lower", "poly": {"min_deg": 0, "coeffs": [[NaN, 0]]}}]}'),
            (["lift", "{input}", "--recompose", "-o", "{tmp}/m.json"],
             '{"steps": [{"kind": "diag", "k": [Infinity, 0]}]}'),
            (["lift", "{input}", "-o", "{tmp}/s.json"],
             '{"n": 2, "min_deg": 0, "coeffs": [[[[1, 0], [0, 0]], [[0, 0], [1e999, 0]]]]}'),
        ],
        ids=["nan-tap-verify", "nan-tap-transfer", "nan-step", "infinite-diag",
             "overflowing-matrix-entry"],
    )
    def test_non_finite_numbers_are_input_errors(
        self, tmp_path, capsys, argv, text
    ):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([a.format(tmp=tmp_path, input=path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ") and "must be finite" in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["verify", "{input}"], _d4_json_with(lambda obj: _set_min_deg(obj, 10**20))),
            (["verify", "{input}"],
             _d4_json_with(lambda obj: obj["filters"][0].__setitem__("min_deg", 10**20))),
            (["lift", "{input}", "-o", "{tmp}/s.json"],
             '{"n": 1, "min_deg": %d, "coeffs": [[[[1, 0]]], [[[1, 0]]]]}' % (2**63 - 1)),
        ],
        ids=["all-filters", "lowpass-only", "matrix-end"],
    )
    def test_min_deg_beyond_int64_is_input_error(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([a.format(tmp=tmp_path, input=path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ") and "min_deg" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_min_deg_near_the_int64_end_still_verifies(self, tmp_path, capsys):
        shift = 9223372036854775000
        path = tmp_path / "input.json"
        path.write_text(_d4_json_with(lambda obj: _set_min_deg(obj, shift)))
        assert main(["verify", str(path)]) == 0
        assert f"winding class {shift + 1}" in capsys.readouterr().out

    def test_verify_refuses_a_wide_gap_before_allocating_its_span(self, tmp_path, capsys):
        # m0 at degree 0 and m1 at 10**12: the polyphase span alone would be 16 TB
        path = tmp_path / "input.json"
        path.write_text(_d4_json_with(lambda obj: obj["filters"][1].__setitem__("min_deg", 10**12)))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "required" in err and err.count("\n") == 1

    @pytest.mark.parametrize("angles", [["nan", "0"], ["0", "inf"]])
    def test_non_finite_six_tap_angle_exits_2(self, tmp_path, capsys, angles):
        out = tmp_path / "six.json"
        assert main(["design", "--six-tap", *angles, "-o", str(out)]) == 2
        assert "angle must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["pyramid", "--levels", "1"], ["packets", "--depth", "1"]],
                             ids=["pyramid", "packets"])
    def test_non_finite_signal_sample_exits_2(self, tmp_path, d4_file, capsys, argv):
        sig = tmp_path / "s.csv"
        sig.write_text("index,re,im\n0,1.0,0.0\n1,nan,0.0\n2,inf,0.0\n3,2.0,0.0\n")
        out = tmp_path / "out"
        command, *options = argv
        assert main([command, str(d4_file), "--signal", str(sig), *options,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {sig}: ") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pyramid", "packets"])
    def test_missing_signal_file_exits_2(self, tmp_path, d4_file, capsys, command):
        sig, out = tmp_path / "nope.csv", tmp_path / "out"
        argv = [command, str(d4_file), "--signal", str(sig), "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {sig}: No such file or directory\n"
        assert not out.exists()


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        sig = Signal.from_samples(-3, [1.0, 2.5 - 1j, 0.0, 4.0])
        path = tmp_path / "s.csv"
        write_signal_csv(sig, path)
        back = read_signal_csv(path)
        assert back.offset == sig.offset and back.samples == sig.samples

    def test_grid_round_trip(self, tmp_path):
        from wavebank.cascade import GridFunction
        from wavebank.fileio import read_grid_csv, write_grid_csv

        g = GridFunction.from_values(4, -5, np.arange(12, dtype=float) * 0.25 - 1j)
        path = tmp_path / "g.csv"
        write_grid_csv(g, path)
        back = read_grid_csv(path, j_level=4)
        assert back.support_lo == g.support_lo
        assert back.values == g.values

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,re,im\n0,1.0,0.0\nbad,row\n")
        from wavebank.fileio import InputFormatError

        with pytest.raises(InputFormatError, match=":3:"):
            read_signal_csv(path)


def test_design_has_no_tol_option(tmp_path, capsys):
    # design prints only the residual and always exits 0, so a tolerance
    # would change nothing; argparse rejects the option as a usage error
    out = tmp_path / "d4.json"
    with pytest.raises(SystemExit) as exc:
        main(["design", "--daubechies4", "--tol", "1e-3", "-o", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["verify", "{bank}"],
     ["pyramid", "{bank}", "--signal", "{signal}", "--out-dir", "{tmp}/out"],
     ["packets", "{bank}", "--signal", "{signal}", "--out-dir", "{tmp}/out"]],
    ids=["verify", "pyramid", "packets"],
)
def test_checks_have_no_tol_option(tmp_path, d4_file, signal_file, capsys, argv):
    # every verdict is taken at defaults.TOL
    names = dict(tmp=tmp_path, bank=d4_file, signal=signal_file[0])
    with pytest.raises(SystemExit) as exc:
        main([a.format(**names) for a in argv] + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "modes", [[], ["--daubechies4", "--six-tap", "0.7", "2.1"]], ids=["none", "two"]
)
def test_design_takes_exactly_one_mode(tmp_path, capsys, modes):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["design", *modes, "-o", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: wavebank design")
    assert not out.exists()
