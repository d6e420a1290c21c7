"""Command line front end.

Subcommands: design, verify, cascade, pyramid, packets, transfer, lift.
Exit status 0 on success, 1 when a verification fails (quadrature check,
Perron-Frobenius check, reconstruction residual), 2 on usage or input
errors, unwritable outputs included.  Numeric defaults are the table in
`wavebank.defaults`.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import defaults
from .cascade import scaling_function, wavelet_from_scaling
from .design import (
    FactorizationError,
    ProjectionParam,
    bank_from_projections,
    daubechies4,
    lifting_factorize,
    lifting_recompose,
    LiftingStep,
    six_tap_from_angles,
    unitary_from_projections,
)
from .fileio import (
    InputFormatError,
    dump_json,
    load_json,
    read_signal_csv,
    write_grid_csv,
    write_signal_csv,
    write_svg_polyline,
)
from .filterbank import (
    FilterBank,
    check_qmf,
    filters_from_polyphase,
    polyphase_from_filters,
)
from .laurent import (
    MatLaurentPoly,
    SingularOnTorusError,
    is_unitary_on_torus,
    k1_class,
)
from .operators import (
    PacketPartition,
    packet_decompose,
    packet_reconstruct,
    pyramid_decompose,
    pyramid_reconstruct,
)
from .transfer import TransferSpec, per_check, spectrum

OK, VERIFY_FAILED, USAGE_ERROR = 0, 1, 2


def _require_range(option: str, value: int, lo: int, hi: int) -> None:
    """Reject an option or input size outside lo..hi before anything is sized by it."""
    if not lo <= value <= hi:
        raise ValueError(f"{option} must be in {lo}..{hi}, got {value}")


def _parse_json(path, parse, expected: str):
    """parse(the JSON object in path), any KeyError, TypeError, ValueError or
    OverflowError reported as an input error: "path: expected (the exception)"."""
    obj = load_json(path)
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{path}: {expected} ({exc})") from exc


def _load_bank(path) -> FilterBank:
    return _parse_json(path, FilterBank.from_json, "not a filter bank file")


def _read_signal(path):
    """The signal CSV at path, a NaN or infinite sample an input error."""
    signal = read_signal_csv(path)
    bad = np.flatnonzero(~np.isfinite(signal.data))
    if len(bad):
        raise InputFormatError(
            f"{path}: samples must be finite, index {signal.offset + int(bad[0])} "
            f"is {complex(signal.data[bad[0]])}"
        )
    return signal


def _cmd_design(args) -> int:
    _require_range("--grid", args.grid, 1, defaults.MAX_GRID)
    if args.daubechies4:
        bank = daubechies4()
    elif args.six_tap is not None:
        bank = six_tap_from_angles(args.six_tap[0], args.six_tap[1])
    else:
        params = _parse_json(
            args.projections,
            lambda obj: [
                ProjectionParam(float(p["lambda"]), float(p["theta"]))
                for p in obj["projections"]
            ],
            "expected {'projections': [{'lambda': .., 'theta': ..}, ...]}",
        )
        bank = bank_from_projections(params)
    dump_json(bank.to_json(), args.output)
    report = check_qmf(bank, args.grid)
    print(f"wrote {args.output} (quadrature residual {report.max_residual:.3e})")
    return OK


def _cmd_verify(args) -> int:
    _require_range("--grid", args.grid, 1, defaults.MAX_GRID)
    _require_range("--random-banks", args.random_banks, 0, defaults.MAX_BANKS)
    failures = 0
    if args.random_banks:
        rng = np.random.default_rng(args.seed)
        banks = []  # (name, bank, its designed polyphase matrix A, or None)
        for _ in range(args.random_banks):
            k = int(rng.integers(0, 9))
            params = [
                ProjectionParam(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi)))
                for _ in range(k)
            ]
            A = unitary_from_projections(params)
            banks.append((f"random(k={k})", filters_from_polyphase(A), A))
    else:
        if not args.bank:
            print("verify: provide a bank file or --random-banks", file=sys.stderr)
            return USAGE_ERROR
        banks = [(str(args.bank), _load_bank(args.bank), None)]
    for name, bank, A in banks:
        qmf = check_qmf(bank, args.grid)  # refuses a span wider than the grid
        if A is None:
            A = polyphase_from_filters(bank)
        unit = is_unitary_on_torus(A, args.grid)
        try:
            winding_txt = str(k1_class(A, args.grid))
        except SingularOnTorusError:
            winding_txt = "undefined (det vanishes on torus)"
        status = "ok" if (qmf.passed and unit.passed) else "FAIL"
        print(
            f"{name}: {status} quadrature residual {qmf.max_residual:.3e} "
            f"(lowpass {'ok' if qmf.lowpass_ok else 'off'}), polyphase residual "
            f"{unit.max_residual:.3e}, winding class {winding_txt}"
        )
        if not (qmf.passed and unit.passed):
            failures += 1
        if qmf.passed != unit.passed:
            print(f"{name}: quadrature and polyphase verdicts disagree", file=sys.stderr)
    return VERIFY_FAILED if failures else OK


def _cmd_cascade(args) -> int:
    _require_range("--j", args.j, 0, defaults.MAX_J)
    _require_range("--iters", args.iters, 1, defaults.MAX_ITERS)
    bank = _load_bank(args.bank)
    result = scaling_function(bank, args.j, args.iters)
    stem = Path(args.plot or ".")
    outputs = [(result.phi, args.output, args.plot)]  # (grid, csv path, svg path)
    if args.psi_prefix:
        outputs += [
            (psi, f"{args.psi_prefix}{i}.csv",
             args.plot and stem.with_name(f"{stem.stem}_psi{i}{stem.suffix}"))
            for i, psi in enumerate(wavelet_from_scaling(bank, result.phi), start=1)
        ]
    for grid, csv_path, svg_path in outputs:
        write_grid_csv(grid, csv_path)
        if svg_path:
            write_svg_polyline(grid.x(), grid.value_array().real, svg_path)
    status = "converged" if result.converged else (
        "diverged" if result.diverged else "not converged"
    )
    print(
        f"cascade {status} after {result.iterations} iterations "
        f"(last squared L2 diff {result.diffs[-1]:.3e}); wrote {args.output}"
    )
    return OK if result.converged else VERIFY_FAILED


def _cmd_pyramid(args) -> int:
    _require_range("--levels", args.levels, 1, defaults.MAX_LEVELS)
    bank = _load_bank(args.bank)
    signal = _read_signal(args.signal)
    dec = pyramid_decompose(signal, bank, args.levels)
    files = [("coarse.csv", dec.coarse)]
    for level, bands in enumerate(dec.details, start=1):
        files += [(f"detail_{level}_{band}.csv", s) for band, s in enumerate(bands, 1)]
    return _write_and_reconstruct(
        args, files, "band files", signal, lambda: pyramid_reconstruct(dec, bank)
    )


def _cmd_packets(args) -> int:
    partition = None
    if args.partition:
        partition = _parse_json(
            args.partition,
            lambda obj: PacketPartition.from_leaves(obj["leaves"]),
            "expected {'leaves': [[k, n], ...]}",
        )
    # from either source, the depth sizes the leaves
    option = "--depth" if partition is None else f"the depth of {args.partition}"
    depth = args.depth if partition is None else partition.depth
    _require_range(option, depth, 1, defaults.MAX_DEPTH)
    bank = _load_bank(args.bank)
    if bank.scale_n**depth > 2**defaults.MAX_DEPTH:
        raise ValueError(
            f"{option} {depth} allows {bank.scale_n}**{depth} leaves, "
            f"more than {2**defaults.MAX_DEPTH}"
        )
    signal = _read_signal(args.signal)
    if partition is None:
        partition = PacketPartition.full(depth, bank.scale_n)
    leaf_map = packet_decompose(signal, bank, partition)
    files = [(f"{k}_{n}.csv", sig) for (k, n), sig in sorted(leaf_map.items())]
    return _write_and_reconstruct(
        args, files, "leaves", signal, lambda: packet_reconstruct(leaf_map, bank, partition)
    )


def _write_and_reconstruct(args, files, what: str, signal, reconstruct) -> int:
    """Write each (name, signal) of files under --out-dir, then fail (exit 1)
    when reconstruct() is off signal by more than TOL * max(1, |signal|)."""
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sig in files:
        write_signal_csv(sig, outdir / name)
    err = (reconstruct() - signal).norm()
    print(f"wrote {len(files)} {what} to {outdir}; reconstruction error {err:.3e}")
    return OK if err <= defaults.TOL * max(1.0, signal.norm()) else VERIFY_FAILED


def _cmd_transfer(args) -> int:
    if args.n_max > defaults.MAX_N_MAX:  # below 1, per_check names its own bound
        _require_range("--n-max", args.n_max, 1, defaults.MAX_N_MAX)
    bank = _load_bank(args.bank)
    # the weight W = |m0|^2 has degree span(m0); eig and SVD grow as its cube
    _require_range(
        "the degree of |m0|^2", bank.lowpass.span, 0, defaults.MAX_TRANSFER_DEGREE
    )
    spec = TransferSpec.for_bank(bank)
    report = spectrum(spec)
    payload = report.to_json()
    if args.per:
        payload["per"] = per_check(bank, n_max=args.n_max).to_json()
    dump_json(payload, args.output)
    leading = ", ".join(f"{l.real:+.6f}{l.imag:+.6f}j" for l in report.eigenvalues[:4])
    print(
        f"wrote {args.output}; peripheral spectrum "
        f"{'is {1} (simple)' if report.pf_holds else 'violates the PF condition'}; "
        f"leading eigenvalues [{leading}]"
    )
    if args.per and not payload["per"]["is_constant_1"]:
        print(f"periodization deviates from 1 by {payload['per']['max_dev_from_1']:.3e}")
    ok = report.pf_holds and (not args.per or payload["per"]["is_constant_1"])
    return OK if ok else VERIFY_FAILED


def _cmd_lift(args) -> int:
    if args.recompose:
        steps = _parse_json(
            args.matrix,
            lambda obj: [LiftingStep.from_json(s) for s in obj["steps"]],
            "not a steps file",
        )
        A = lifting_recompose(steps)
        dump_json(A.to_json(), args.output)
        print(f"recomposed {len(steps)} steps into {args.output}")
        return OK
    A = _parse_json(args.matrix, MatLaurentPoly.from_json, "not a matrix file")
    steps = lifting_factorize(A)
    dump_json({"steps": [s.to_json() for s in steps]}, args.output)
    resid = float(np.max(np.abs((A - lifting_recompose(steps)).coeffs)))
    print(f"wrote {len(steps)} steps to {args.output} (recomposition residual {resid:.3e})")
    return OK if resid <= 1e-9 else VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebank",
        description="design, verify and exercise wavelet filter banks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct a filter bank and write it as JSON")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--projections", help="JSON file of projection parameters")
    mode.add_argument("--daubechies4", action="store_true", help="the four-tap bank")
    mode.add_argument("--six-tap", nargs=2, type=float, metavar=("THETA", "RHO"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--grid", type=int, default=defaults.GRID_SIZE)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("verify", help="quadrature + polyphase unitarity check")
    p.add_argument("bank", nargs="?", help="filter bank JSON file")
    p.add_argument("--random-banks", type=int, default=0, metavar="K",
                   help="verify K random projection-designed banks instead")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=defaults.GRID_SIZE)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cascade", help="iterate the scaling-function cascade")
    p.add_argument("bank")
    p.add_argument("--j", type=int, default=defaults.J_LEVEL, help="grid level")
    p.add_argument("--iters", type=int, default=defaults.ITERS)
    p.add_argument("-o", "--output", required=True, help="CSV output for phi")
    p.add_argument("--plot", help="SVG polyline output")
    p.add_argument("--psi-prefix", help="also write wavelets to PREFIX<i>.csv")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("pyramid", help="multilevel analyze/reconstruct a signal")
    p.add_argument("bank")
    p.add_argument("--signal", required=True, help="CSV signal (index,re,im)")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pyramid)

    p = sub.add_parser("packets", help="wavelet packet transform of a signal")
    p.add_argument("bank")
    p.add_argument("--signal", required=True)
    p.add_argument("--partition", help="JSON {'leaves': [[k,n],...]}")
    p.add_argument("--depth", type=int, default=3, help="full partition depth")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_packets)

    p = sub.add_parser("transfer", help="transfer-operator spectrum report")
    p.add_argument("bank")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--per", action="store_true", help="include periodization check")
    p.add_argument("--n-max", type=int, default=defaults.N_MAX)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("lift", help="lifting factorization of an SL2 matrix")
    p.add_argument("matrix", help="matrix JSON (or steps JSON with --recompose)")
    p.add_argument("--recompose", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_lift)

    return parser


_parser = None


def main(argv=None) -> int:
    """Run one command line and return its exit status.  The parser is built
    on the first call and reused, so the option defaults it takes from
    `defaults` (GRID_SIZE, J_LEVEL, ITERS, N_MAX) are those of that call."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OverflowError, OSError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
