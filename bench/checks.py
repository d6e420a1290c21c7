"""Correctness checks of each op's output, computed by the benchmark itself.

Every check reads the files an op wrote with the benchmark's own parsers and
compares them with what is known from construction of its inputs.  It
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PARSEVAL_RTOL = 1e-9  # orthogonal banks preserve energy up to rounding
CASCADE_SUM_TOL = 1e-9  # the cascade rescales every iterate to Riemann sum 1
CASCADE_NORM_TOL = 1e-3  # |phi|^2 and |psi|^2 integrate to 1 for J >= 10
MATRIX_ATOL = 1e-9


def read_csv(path: Path) -> np.ndarray:
    """Rows of a three-column CSV with a header line, shape (rows, 3)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def dense(min_deg: int, coeffs, lo: int, hi: int) -> np.ndarray:
    """Coefficient block of degrees lo..hi from a JSON polynomial or matrix."""
    arr = np.asarray(coeffs, dtype=float)
    vals = arr[..., 0] + 1j * arr[..., 1]
    out = np.zeros((hi - lo + 1,) + vals.shape[1:], dtype=complex)
    out[min_deg - lo : min_deg - lo + len(vals)] = vals
    return out


def close(a: dict, b: dict, atol: float) -> bool:
    """Two JSON Laurent polynomials (or matrices) agree coefficient-wise."""
    lo = min(a["min_deg"], b["min_deg"])
    hi = max(a["min_deg"] + len(a["coeffs"]), b["min_deg"] + len(b["coeffs"])) - 1
    diff = dense(a["min_deg"], a["coeffs"], lo, hi) - dense(b["min_deg"], b["coeffs"], lo, hi)
    return diff.size == 0 or float(np.max(np.abs(diff))) <= atol


def bands(op, out: Path, stdout: str):
    """pyramid/packets: file count, contiguous indices, and Parseval."""
    files = sorted(out.glob("*.csv"))
    if len(files) != op.expect["files"]:
        return f"{len(files)} band files, expected {op.expect['files']}"
    energy = 0.0
    for f in files:
        rows = read_csv(f)
        if len(rows) > 1 and np.any(np.diff(rows[:, 0]) != 1):
            return f"{f.name}: indices not contiguous"
        energy += float(np.sum(rows[:, 1] ** 2 + rows[:, 2] ** 2))
    want = op.expect["energy"]
    if abs(energy - want) > PARSEVAL_RTOL * want:
        return f"band energy {energy!r} != input energy {want!r}"
    return None


def design(op, out: Path, stdout: str):
    bank = json.loads((out / "bank.json").read_text())
    want = op.expect["filters"]
    if bank["N"] != 2 or len(bank["filters"]) != len(want):
        return "wrong band count"
    for got, exp in zip(bank["filters"], want):
        if not close(got, exp, 1e-12):
            return "designed filters differ from the projection product"
    return None


def verify(op, out: Path, stdout: str):
    if op.expect_rc == 1:
        return None if "FAIL" in stdout else "corrupted bank not reported as FAIL"
    if ": ok " not in stdout:
        return "bank not reported ok"
    if f"winding class {op.expect['winding']}" not in stdout:
        return f"winding class is not {op.expect['winding']}"
    return None


def random_banks(op, out: Path, stdout: str):
    lines = [l for l in stdout.splitlines() if l.startswith("random(")]
    if len(lines) != op.expect["count"] or any(": ok " not in l for l in lines):
        return f"{sum(': ok ' in l for l in lines)} of {op.expect['count']} random banks ok"
    return None


def lift(op, out: Path, stdout: str):
    steps = json.loads((out / "steps.json").read_text()).get("steps")
    return None if steps else "no lifting steps written"


def recompose(op, out: Path, stdout: str):
    back = json.loads((out / "back.json").read_text())
    want = op.expect["matrix"]
    scale = max(1.0, float(np.max(np.abs(np.asarray(want["coeffs"])))))
    if back["n"] != 2 or not close(back, want, MATRIX_ATOL * scale):
        return "recomposed matrix differs from the factored one"
    return None


def cascade(op, out: Path, stdout: str):
    step = 2.0 ** -op.expect["J"]
    phi = read_csv(out / "phi.csv")
    if len(phi) > 1 and not np.allclose(np.diff(phi[:, 0]), step, rtol=0, atol=1e-9 * step):
        return "phi grid spacing is not 2^-J"
    total = float(np.sum(phi[:, 1])) * step
    if abs(total - 1.0) > CASCADE_SUM_TOL or abs(float(np.sum(phi[:, 2])) * step) > CASCADE_SUM_TOL:
        return f"phi Riemann sum {total!r}, expected 1"
    if abs(float(np.sum(phi[:, 1] ** 2 + phi[:, 2] ** 2)) * step - 1.0) > CASCADE_NORM_TOL:
        return "phi is not unit-norm"
    psi = read_csv(out / "psi_1.csv")
    if abs(complex(np.sum(psi[:, 1]), np.sum(psi[:, 2]))) * step > CASCADE_SUM_TOL:
        return "psi does not integrate to 0"
    if abs(float(np.sum(psi[:, 1] ** 2 + psi[:, 2] ** 2)) * step - 1.0) > CASCADE_NORM_TOL:
        return "psi is not unit-norm"
    for svg in ("phi.svg", "phi_psi1.svg"):
        if "<polyline" not in (out / svg).read_text():
            return f"{svg} holds no polyline"
    return None


def transfer(op, out: Path, stdout: str):
    report = json.loads((out / "spectrum.json").read_text())
    if report["pf_holds"] != op.expect["pf_holds"]:
        return f"pf_holds is {report['pf_holds']}"
    if report["per"]["is_constant_1"] != op.expect["per_constant"]:
        return f"periodization is_constant_1 is {report['per']['is_constant_1']}"
    return None
