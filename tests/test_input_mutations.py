"""Valid input files with one field or cell mutated, through every command
that reads them: each run ends in exit 0, 1 or 2, or in argparse's usage
error, and never in a traceback."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebank.cli import main
from wavebank.design import LiftingStep, daubechies4, lifting_recompose
from wavebank.fileio import write_signal_csv
from wavebank.operators import Signal

STEPS = {"steps": [
    {"kind": "diag", "k": [2.0, 0.0]},
    {"kind": "lower", "poly": {"min_deg": -1, "coeffs": [[0.5, 0.0], [-0.25, 0.0]]}},
    {"kind": "upper", "poly": {"min_deg": 0, "coeffs": [[1.5, 0.0]]}},
]}
MATRIX = lifting_recompose([LiftingStep.from_json(s) for s in STEPS["steps"]]).to_json()

# (valid JSON, the command lines that read it as "{input}")
JSON_FILES = [
    (daubechies4().to_json(), [
        ["verify", "{input}"],
        ["transfer", "{input}", "--per", "--n-max", "50", "-o", "{tmp}/t.json"],
        ["cascade", "{input}", "--j", "4", "-o", "{tmp}/phi.csv"],
        ["pyramid", "{input}", "--signal", "{signal}", "--levels", "2",
         "--out-dir", "{tmp}/bands"],
        ["packets", "{input}", "--signal", "{signal}", "--depth", "2",
         "--out-dir", "{tmp}/leaves"],
    ]),
    (STEPS, [["lift", "{input}", "--recompose", "-o", "{tmp}/m.json"]]),
    ({"projections": [{"lambda": 0.3, "theta": 1.1}, {"lambda": 1.0, "theta": 0.0}]},
     [["design", "--projections", "{input}", "-o", "{tmp}/bank.json"]]),
    ({"leaves": [[1, 0], [2, 2], [2, 3]]},
     [["packets", "{bank}", "--signal", "{signal}", "--partition", "{input}",
       "--out-dir", "{tmp}/leaves"]]),
    (MATRIX, [["lift", "{input}", "-o", "{tmp}/steps.json"]]),
]
JSON_CASES = [(obj, argv) for obj, commands in JSON_FILES for argv in commands]
DROP = object()
REPLACEMENTS = [DROP, None, "x", [1, 2], math.nan, math.inf, -math.inf, 10**20, 10**400]

SIGNAL = Signal.from_samples(-3, np.random.default_rng(3).normal(size=16))
SIGNAL_ARGV = ["pyramid", "{bank}", "--signal", "{input}", "--levels", "2",
               "--out-dir", "{tmp}/bands"]


def _fields(obj, path=()):
    """The path (keys and indices) of every field below the root of obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _mutated(obj, path, value):
    """A copy of obj with the field at path dropped or replaced by value."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    holder = obj
    for key in parents:
        holder = holder[key]
    if value is DROP:
        del holder[last]
    else:
        holder[last] = value
    return obj


@st.composite
def cases(draw):
    """(input file text, command line, allowed exit codes): a JSON file with
    one field mutated, or the signal CSV with one cell made NaN, infinite,
    text or blank, which is always an input error."""
    case = draw(st.integers(0, len(JSON_CASES)))
    if case < len(JSON_CASES):
        obj, argv = JSON_CASES[case]
        path = draw(st.sampled_from(list(_fields(obj))))
        value = draw(st.sampled_from(REPLACEMENTS))
        return json.dumps(_mutated(obj, path, value)), argv, {0, 1, 2}
    row = draw(st.integers(1, len(SIGNAL.data)))
    col = draw(st.integers(0, 2))
    cell = draw(st.sampled_from(["nan", "inf", "x", ""]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_signal_csv(SIGNAL, path)
        lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = cell
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n", SIGNAL_ARGV, {2}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=cases())
def test_mutated_inputs_exit_0_1_or_2(case):
    text, argv, codes = case
    with tempfile.TemporaryDirectory() as tmp:
        names = dict(tmp=tmp, input=f"{tmp}/input", bank=f"{tmp}/d4.json",
                     signal=f"{tmp}/signal.csv")
        Path(names["input"]).write_text(text)
        Path(names["bank"]).write_text(json.dumps(daubechies4().to_json()))
        write_signal_csv(SIGNAL, names["signal"])
        try:
            code = main([a.format(**names) for a in argv])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
        assert code in codes
