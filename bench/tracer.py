"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions listed in LAYERS.  Each name is
patched in every `wavebank` module namespace that bound it (so both
`wavebank.operators.analyze` and `wavebank.cli.pyramid_decompose` go through
the wrapper) and on the class for methods.  A wrapper records a span (name,
op, parent span, start, end), the call count, self time (span minus the time
covered by child spans), the listed extra count, and exceptions escaping it.
Garbage-collector passes are timed with `gc.callbacks`.  Spans stay in memory
and are written out when the run ends.  A listed name that no longer exists
is reported as absent.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

MAX_SPANS = 50_000  # spans kept for the span file; the aggregates see every call


def _sig_len(s) -> int:
    return s.end - s.offset


def _file_bytes(index):
    def count(args, kwargs, res):
        return os.path.getsize(args[index] if len(args) > index else kwargs["path"])
    return count


class ByName:
    """Counter over the call's arguments by name, defaults applied."""

    def __init__(self, count):
        self.count = count

    def bind(self, fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, res):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return self.count(b.arguments, res)
        return count


def _taps(p) -> int:
    return 0 if p.is_zero else p.span + 1


# (layer, reported name, attribute path in wavebank.<layer>, extra count name,
#  counter(args, kwargs, result), a ByName counter, or "winding": the points
#  and refinements of the LaurentPoly.eval calls made inside winding_number).
LAYERS = [
    ("cli", "main", "main", None, None),
    ("fileio", "read_signal_csv", "read_signal_csv", "bytes", _file_bytes(0)),
    ("fileio", "write_signal_csv", "write_signal_csv", "bytes", _file_bytes(1)),
    ("fileio", "write_grid_csv", "write_grid_csv", "bytes", _file_bytes(1)),
    ("fileio", "load_json", "load_json", None, None),
    ("fileio", "dump_json", "dump_json", None, None),
    ("fileio", "write_svg_polyline", "write_svg_polyline", None, None),
    ("operators", "Signal.from_samples", "Signal.from_samples", "samples",
     lambda a, k, r: _sig_len(r)),
    ("operators", "analyze", "analyze", "samples", lambda a, k, r: _sig_len(a[0])),
    ("operators", "synthesize", "synthesize", "samples",
     lambda a, k, r: sum(_sig_len(b) for b in a[0])),
    ("operators", "convolve_poly", "convolve_poly", "madds",
     lambda a, k, r: _sig_len(a[0]) * _taps(a[1])),
    ("operators", "downsample", "downsample", None, None),
    ("operators", "upsample", "upsample", None, None),
    ("operators", "pyramid_decompose", "pyramid_decompose", None, None),
    ("operators", "pyramid_reconstruct", "pyramid_reconstruct", None, None),
    ("operators", "packet_decompose", "packet_decompose", None, None),
    ("operators", "packet_reconstruct", "packet_reconstruct", None, None),
    ("laurent", "LaurentPoly.from_coeffs", "LaurentPoly.from_coeffs", None, None),
    ("laurent", "LaurentPoly.mul", "LaurentPoly.__mul__", None, None),
    ("laurent", "LaurentPoly.eval", "LaurentPoly.eval", "points",
     lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["z"]))),
    ("laurent", "MatLaurentPoly.mul", "MatLaurentPoly.__mul__", None, None),
    ("laurent", "MatLaurentPoly.determinant", "MatLaurentPoly.determinant", None, None),
    ("laurent", "MatLaurentPoly.eval_grid", "MatLaurentPoly.eval_grid", "points",
     lambda a, k, r: len(r)),
    ("laurent", "is_unitary_on_torus", "is_unitary_on_torus", None, None),
    ("laurent", "winding_number", "winding_number", "points", "winding"),
    ("filterbank", "check_qmf", "check_qmf", "points",
     ByName(lambda b, r: b["grid_size"] * b["bank"].scale_n)),
    ("filterbank", "polyphase_from_filters", "polyphase_from_filters", None, None),
    ("filterbank", "filters_from_polyphase", "filters_from_polyphase", None, None),
    ("filterbank", "FilterBank.from_json", "FilterBank.from_json", None, None),
    ("design", "bank_from_projections", "bank_from_projections", None, None),
    ("design", "lifting_factorize", "lifting_factorize", "steps", lambda a, k, r: len(r)),
    ("design", "lifting_recompose", "lifting_recompose", None, None),
    ("transfer", "transfer_matrix", "transfer_matrix", "dim", lambda a, k, r: r.shape[0]),
    ("transfer", "spectrum", "spectrum", None, None),
    ("transfer", "per_check", "per_check", None, None),
    ("transfer", "per_samples", "per_samples", "factor_evals",
     ByName(lambda b, r: int(np.size(b["t"])) * (2 * b["n_max"] + 1) * b["k_terms"])),
    ("cascade", "scaling_function", "scaling_function", "iterations",
     lambda a, k, r: r.iterations),
    ("cascade", "cascade_step", "cascade_step", "points",
     lambda a, k, r: a[1].support_hi - a[1].support_lo + 1),
    ("cascade", "wavelet_from_scaling", "wavelet_from_scaling", None, None),
    ("cascade", "fourier_infinite_product", "fourier_infinite_product", "points",
     lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["t"]))),
    ("cascade", "GridFunction.from_values", "GridFunction.from_values", "points",
     lambda a, k, r: r.support_hi - r.support_lo + 1),
]

MODULES = sorted({layer for layer, *_ in LAYERS})


def metric_names() -> list:
    """Per-layer metric names and units, in report order."""
    out = []
    for layer, name, _, extra, _ in LAYERS:
        out.append((f"{layer}.{name}.calls", "calls/op"))
        out.append((f"{layer}.{name}.self_ms", "ms/op"))
        if extra:
            out.append((f"{layer}.{name}.{extra}", f"{extra}/op"))
        if name == "winding_number":
            out.append((f"{layer}.{name}.refinements", "refinements/op"))
    out += [(f"{m}.errors", "errors/op") for m in MODULES]
    out += [(f"{m}.self_share", "%") for m in MODULES]
    out += [("runtime.gc.collections", "collections/op"), ("runtime.gc.ms", "ms/op")]
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # key -> [calls, self seconds, extra count, refinements]
        self.errors = {m: 0 for m in MODULES}
        self.absent = []
        self.counter_failures = set()
        self.spans = []  # [name index, op, parent span or -1, start, end]
        self.names = []
        self.op = -1
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start = 0.0
        self._stack = []
        self._patches = []  # (namespace, attribute, original, wrapper)
        self._built = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every wrapped name; the wrappers are built on the first call."""
        if not self._built:
            self._build()
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for target, attr, original, _ in reversed(self._patches):
            setattr(target, attr, original)

    def _build(self) -> None:
        self._built = True
        pkg = [m for n, m in sys.modules.items() if n == "wavebank" or n.startswith("wavebank.")]
        for layer, name, path, extra, counter in LAYERS:
            key = f"{layer}.{name}"
            self.stats[key] = [0, 0.0, 0, 0]
            module = sys.modules.get(f"wavebank.{layer}")
            owner, attr = module, path
            if module is not None and "." in path:
                owner, attr = getattr(module, path.split(".")[0], None), path.split(".")[1]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(key)
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            pre = None
            if counter == "winding":
                pre, counter = self._eval_snapshot, self._winding_count
            elif isinstance(counter, ByName):
                counter = counter.bind(fn)
            wrapper = self._wrap(key, layer, fn, counter, pre)
            replacement = staticmethod(wrapper) if is_static else wrapper
            for target in [owner] if owner is not module else pkg:
                for a, v in vars(target).items():
                    if v is raw:
                        self._patches.append((target, a, v, replacement))

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_start

    # -- spans --------------------------------------------------------------

    def _wrap(self, key, layer, fn, counter, pre):
        stat = self.stats[key]
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        name_id = len(self.names)
        self.names.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            span = None
            if len(spans) < MAX_SPANS:
                span = [name_id, self.op, parent, 0.0, 0.0]
                frame.append(len(spans))
                spans.append(span)
            else:
                frame.append(-1)
            stack.append(frame)
            snap = pre() if pre else None
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                if span is not None:
                    span[3], span[4] = t0, t1
            if counter is not None:
                try:
                    if pre:
                        counter(stat, snap)
                    else:
                        stat[2] += counter(args, kwargs, res)
                except Exception:  # a renamed attribute must not stop the run
                    self.counter_failures.add(key)
            return res

        return wrapper

    def _eval_snapshot(self):
        s = self.stats["laurent.LaurentPoly.eval"]
        return s[0], s[2]

    def _winding_count(self, stat, snap):
        calls, points = self._eval_snapshot()
        stat[2] += points - snap[1]
        stat[3] += max(calls - snap[0] - 1, 0)

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-op values of every per-layer metric (0 for absent names)."""
        per = max(ops, 1)
        values = {}
        for layer, name, _, extra, _ in LAYERS:
            key = f"{layer}.{name}"
            calls, self_s, count, refinements = self.stats.get(key, [0, 0.0, 0, 0])
            values[f"{key}.calls"] = calls / per
            values[f"{key}.self_ms"] = 1e3 * self_s / per
            if extra:
                values[f"{key}.{extra}"] = count / per
            if name == "winding_number":
                values[f"{key}.refinements"] = refinements / per
        total = sum(s[1] for s in self.stats.values()) or 1.0
        for m in MODULES:
            values[f"{m}.errors"] = self.errors[m] / per
            own = sum(s[1] for k, s in self.stats.items() if k.startswith(m + "."))
            values[f"{m}.self_share"] = 100.0 * own / total
        values["runtime.gc.collections"] = self.gc_collections / per
        values["runtime.gc.ms"] = 1e3 * self.gc_seconds / per
        return values

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as fh:
            json.dump({"names": self.names, "fields": ["name", "op", "parent", "start_s", "end_s"]}, fh)
            fh.write("\n")
            for n, op, parent, start, end in self.spans:
                fh.write(f"[{n},{op},{parent},{start - t0:.7f},{end - t0:.7f}]\n")
