"""The benchmark's per-layer tracer finds every name it wraps.

`bench/tracer.py` reads each traced method from its own class body
(`vars(cls)`), so moving one into a base class would silently drop that
layer's metrics; this guard fails instead.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from wavebank.cli import main
from wavebank.design import daubechies4
from wavebank.fileio import write_signal_csv
from wavebank.operators import Signal

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("wavebank_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_and_runs(tmp_path):
    bank = tmp_path / "d4.json"
    bank.write_text(json.dumps(daubechies4().to_json()))
    signal = tmp_path / "sig.csv"
    write_signal_csv(Signal.from_samples(0, np.random.default_rng(3).normal(size=64)), signal)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        pyramid = main(["pyramid", str(bank), "--signal", str(signal), "--levels", "2",
                        "--out-dir", str(tmp_path / "bands")])
        cascade = main(["cascade", str(bank), "--j", "8", "--iters", "20",
                        "-o", str(tmp_path / "phi.csv")])
    finally:
        tracer.uninstall()
    assert (pyramid, cascade) == (0, 0)
    assert tracer.absent == []
    assert not any(tracer.errors.values()) and not tracer.counter_failures
    for key in ("operators.Signal.from_samples", "laurent.LaurentPoly.from_coeffs",
                "cascade.GridFunction.from_values", "cascade.cascade_step"):
        assert tracer.stats[key][0] > 0, key
