"""wavebank benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  One client runs ops in a closed loop: the next
`wavebank.cli.main(argv)` call starts only after the previous one returned
and its output was checked.  Input generation, output checks and clean-up
happen outside the timed calls.

--trace 0 times whole cycles of ops until their summed wall time reaches
--seconds and reports the end-to-end metrics.  Between ops, at least every
0.1 s of op time, a speed probe times a fixed bit of work that does not use
wavebank; each op's wall time is scaled by the reference probe time over the
probes around it, so a stretch in which a shared CPU runs slower does not move
the metrics.  The unscaled values go to the report.

--trace 1 runs whole cycles until --seconds, each job once untraced and once
with every layer wrapped, and reports the per-layer metrics (per traced op)
and the tracing overhead.

The last line of standard output is the JSON result; a report with per-op
records and input properties goes to .bench_out/.

--all runs every workload with --trace 0 and 1 in child processes, prints
one table, and rewrites BENCHMARK.json from the definitions below.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from inputs import WORKLOADS, Generator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
RUN_SECONDS = 20
SETUP_PROBES = 5
SPEED_EVERY_S = 0.1  # op time between two speed probes
SPEED_REF_S = 0.002  # speed probe time that leaves op times unscaled

WHY = {
    "pyramid-long": "pyramid on 2^13-2^17-sample CSV signals: few large arrays through "
                    "operators plus big CSV reads and writes; bypasses transfer, design and "
                    "determinants",
    "packets-deep": "packets at depth 5-8 on 2^10-2^13 samples: hundreds of tiny "
                    "analyze/synthesize calls and leaf files per op; bypasses transfer, "
                    "design and determinants",
    "bank-verify": "design, verify (N = 2..6, corrupted banks), random banks and lifting: "
                   "Laurent algebra, torus sampling and Laplace determinants; bypasses "
                   "operators and cascade",
    "diagnose": "cascade at J = 10..14 with wavelets and plots, plus transfer --per on "
                "Daubechies and stretched Haar banks; bypasses operators",
}

# The tail is one fixed percentile per workload, so that it means the same on
# every commit: the highest multiple of 5 (or 99) with at least ten of a
# seed-commit run's ops beyond it.  The report gives the op count and how many
# lie beyond.
TAIL_PCT = {"pyramid-long": 60, "packets-deep": 90, "bank-verify": 99, "diagnose": 55}

END_TO_END = [
    # name, unit, better, bound (share of the parent's median).  The timing
    # metrics are scaled by the speed probe; their bounds leave room for the
    # run-to-run spread that remains on a shared CPU (README, Steadiness).
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("success_rate", "%", "higher", 0.001),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

TRACE_EXTRA = [
    ("trace.ops_per_s", "1/s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.absent", "count"),
]


def per_layer_metrics() -> list:
    return tracer.metric_names() + TRACE_EXTRA


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if u == "1/s" else "lower"}
            for n, u in per_layer_metrics()
        ],
    }


# -- running ops --------------------------------------------------------------


def speed_probe() -> float:
    """Seconds for a fixed bit of work like the package's own, building Python
    complex objects from a numpy array, without touching wavebank.  It is the
    mean of three tries with the garbage collector off, so it tracks how fast
    the CPU runs right now and not what the program left on the heap."""
    src = np.linspace(0.0, 1.0, 6000) + 0.5j
    total = 0.0
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            values = tuple(complex(v) for v in src)
            sum(abs(v) for v in values)
            total += time.perf_counter() - t0
    finally:
        gc.enable()
    return total / 3


class Runner:
    """Runs jobs through `wavebank.cli.main`, checks them and keeps per-op records."""

    def __init__(self, cli, work: Path, trace: tracer.Tracer | None = None, speed: bool = False):
        self.cli = cli
        self.work = work
        self.trace = trace
        self.records = []
        self.speed = [] if speed else None  # speed probe seconds
        self._since_probe = 0.0

    def probe_speed(self) -> None:
        self.speed.append(speed_probe())
        self._since_probe = 0.0

    def scaled_ms(self) -> list:
        """Each op's time scaled to the reference CPU speed.

        An op run after probe k is scaled by SPEED_REF_S over the median of
        probes k-1 to k+2, two on each side of it.  A stretch in which a
        shared CPU runs slower then moves the probes and the op alike and
        cancels out, and one noisy probe does not.
        """
        out = []
        for r in self.records:
            k = r["probe"]
            around = self.speed[max(k - 1, 0) : k + 3]
            out.append(r["ms"] * SPEED_REF_S / statistics.median(around))
        return out

    def run_job(self, job: list) -> float:
        """Run the ops of one job in a fresh directory; returns their timed seconds."""
        if self.trace is not None:
            self.trace.install()
        try:
            return self._run_job(job)
        finally:
            if self.trace is not None:
                self.trace.uninstall()

    def _run_job(self, job: list) -> float:
        out = Path(tempfile.mkdtemp(dir=self.work))
        timed = 0.0
        trace = self.trace
        for op in job:
            if self.speed is not None and (not self.speed or self._since_probe >= SPEED_EVERY_S):
                self.probe_speed()
            argv = [a.replace("{out}", str(out)) for a in op.argv]
            buf = io.StringIO()
            rc, error = None, None
            if trace is not None:
                trace.op = len(self.records)
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # counted as a failed op, the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            timed += dt
            self._since_probe += dt
            if error is None and rc != op.expect_rc:
                error = f"exit status {rc}, expected {op.expect_rc}"
            if error is None:
                try:
                    error = getattr(checks, op.check)(op, out, buf.getvalue())
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"output unreadable: {type(exc).__name__}: {exc}"
            self.records.append({
                "kind": op.kind, "ms": 1e3 * dt, "ok": error is None,
                "error": error, "props": op.props,
                "probe": len(self.speed) - 1 if self.speed is not None else None,
            })
        shutil.rmtree(out, ignore_errors=True)
        return timed


def run_cycles(gen, runners, seconds) -> list:
    """Run whole cycles from cycle 0 until the summed timed seconds reach `seconds`.

    Whole cycles keep every run's mix equal to the template's.  Every job runs
    once on each runner, the order alternating from job to job, so a traced
    and an untraced runner see the same inputs equally warm.  Returns the
    timed seconds per runner.
    """
    timed = [0.0] * len(runners)
    c = j = 0
    while sum(timed) < seconds:
        for job in gen.cycle(c):
            order = list(range(len(runners)))
            for i in order if j % 2 == 0 else reversed(order):
                timed[i] += runners[i].run_job(job)
            j += 1
        shutil.rmtree(gen.root / f"cycle{c}", ignore_errors=True)
        c += 1
    return timed


def setup_seconds(gen: Generator, work: Path) -> tuple[float, list]:
    """Median over fresh interpreters of import + one warm-up op of each kind."""
    samples = []
    for k in range(SETUP_PROBES):
        ops = []
        for i, job in enumerate(gen.warmup()):
            out = work / f"probe{k}" / f"job{i}"
            out.mkdir(parents=True)
            ops += [[a.replace("{out}", str(out)) for a in op.argv] for op in job]
        ops_file = work / f"probe{k}.json"
        ops_file.write_text(json.dumps(ops))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"), str(ops_file)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(work / f"probe{k}", ignore_errors=True)
    return statistics.median(samples), samples


def summarize_inputs(records: list) -> dict:
    """Op mix by subcommand and the distribution of each input property."""
    mix = collections.Counter(r["kind"] for r in records)
    values = collections.defaultdict(list)
    for r in records:
        for key, v in r["props"].items():
            values[key].append(v)
    props = {}
    for key, vs in sorted(values.items()):
        if key == "length":
            buckets = collections.Counter(f"2^{int(math.log2(v))}" for v in vs)
            props[key] = {"min": min(vs), "median": statistics.median(vs), "max": max(vs),
                          "by_power_of_two": dict(sorted(buckets.items()))}
        else:
            props[key] = dict(sorted(collections.Counter(vs).items(), key=lambda kv: str(kv[0])))
    return {"ops": len(records), "mix": dict(sorted(mix.items())), "properties": props}


def end_to_end(workload, runner, setup_s) -> tuple[dict, dict]:
    """End-to-end metrics from the op times scaled to the reference CPU speed;
    the unscaled values go to the report."""
    records = runner.records
    ms = sorted(runner.scaled_ms())
    raw = sorted(r["ms"] for r in records)
    failed = sum(not r["ok"] for r in records)
    pct = TAIL_PCT[workload]
    tail = float(np.percentile(ms, pct))
    values = {
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "success_rate": 100.0 * (len(records) - failed) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_info = {"percentile": pct, "samples": len(ms), "beyond": sum(t > tail for t in ms)}
    unscaled = {"ops_per_s": 1e3 * len(raw) / sum(raw), "op_ms_p50": statistics.median(raw),
                "op_ms_tail": float(np.percentile(raw, pct)),
                "speed_probe_ms_median": 1e3 * statistics.median(runner.speed),
                "speed_probe_ms": [1e3 * v for v in runner.speed]}
    return values, tail_info, unscaled


def by_kind(records: list) -> dict:
    groups = collections.defaultdict(list)
    for r in records:
        groups[r["kind"]].append(r["ms"])
    return {k: {"n": len(v), "median_ms": statistics.median(v), "max_ms": max(v)}
            for k, v in sorted(groups.items())}


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "wavebank" / "__init__.py").is_file():
        print(f"error: no wavebank package under {src}", file=sys.stderr)
        return 2
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_ROOT))
    try:
        return _run_workload(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, src: Path, work: Path) -> int:
    gen = Generator(args.workload, args.seed, work / "inputs")
    setup_s, setup_samples = (None, [])
    if not args.trace:
        setup_s, setup_samples = setup_seconds(gen, work)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("wavebank.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: wavebank imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    warm = Runner(cli, work)
    for job in gen.warmup():
        warm.run_job(job)

    runner = Runner(cli, work, speed=not args.trace)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": WHY[args.workload]}
    if args.trace:
        tr = tracer.Tracer()
        untraced, runner = runner, Runner(cli, work, tr)
        timed_u, timed_t = run_cycles(gen, [untraced, runner], args.seconds)
        ops_u, ops_t = len(untraced.records), len(runner.records)
        metrics = tr.metrics(ops_t)
        metrics["trace.ops_per_s"] = ops_t / timed_t
        metrics["trace.ops_per_s_untraced"] = ops_u / timed_u
        metrics["trace.absent"] = len(tr.absent)
        records = untraced.records + runner.records
        spans_file = OUT_ROOT / f"spans-{args.workload}-s{args.seed}.jsonl"
        tr.write_spans(spans_file)
        report.update(
            absent=tr.absent, counter_failures=sorted(tr.counter_failures),
            overhead={"ops_per_s_untraced": ops_u / timed_u, "ops_per_s_traced": ops_t / timed_t,
                      "traced_over_untraced": (ops_t / timed_t) / (ops_u / timed_u)},
            self_share={m: metrics[f"{m}.self_share"] for m in tracer.MODULES},
            spans_file=str(spans_file.relative_to(ROOT)), spans_kept=len(tr.spans),
        )
        units = dict(per_layer_metrics())
    else:
        run_cycles(gen, [runner], args.seconds)
        runner.probe_speed()
        records = runner.records
        metrics, tail_info, unscaled = end_to_end(args.workload, runner, setup_s)
        report.update(tail=tail_info, setup_samples_s=setup_samples, unscaled=unscaled,
                      error_rate=1.0 - metrics["success_rate"] / 100.0)
        units = {n: u for n, u, _, _ in END_TO_END}

    records = warm.records + records
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    report.update(
        attempted=attempted, failed=failed, warmup_failed=sum(not r["ok"] for r in warm.records),
        inputs=summarize_inputs(runner.records), op_ms_by_kind=by_kind(runner.records),
        failures=[{"kind": r["kind"], "error": r["error"]} for r in records if not r["ok"]][:50],
        metrics=metrics, records=runner.records,
    )
    name = f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT_ROOT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(runner.records)} ops, "
          f"{failed} of {attempted} failed (warm-up included); report .bench_out/{name}")
    print(f"  mix {report['inputs']['mix']}")
    for key, dist in report["inputs"]["properties"].items():
        print(f"  {key}: {dist}")
    if args.trace:
        print(f"  tracing: {report['overhead']}; absent names {tr.absent or 'none'}")
        print("  self share %: " + ", ".join(f"{m} {v:.1f}" for m, v in report["self_share"].items()))
    else:
        t = report["tail"]
        print(f"  op_ms_tail is p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond it;"
              f" error_rate {report['error_rate']:.4g}")
        u = report["unscaled"]
        print(f"  unscaled: ops_per_s {u['ops_per_s']:.6g}, op_ms_p50 {u['op_ms_p50']:.6g}, "
              f"op_ms_tail {u['op_ms_tail']:.6g}; median speed probe "
              f"{u['speed_probe_ms_median']:.4g} ms (reference {1e3 * SPEED_REF_S:g} ms)")
    for key, v in metrics.items():
        if not args.trace or v:
            print(f"  {key:48s} {v:14.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


# -- all workloads ------------------------------------------------------------


def run_all(args) -> int:
    rows = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows[(w, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\n" + f"{'metric':22s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, unit, _, _ in END_TO_END:
        cells = "".join(f"{rows[(w, 0)]['metrics'][name]['value']:16.5g}" for w in WORKLOADS)
        print(f"{name + ' (' + unit + ')':22s}{cells}")
    for name in ("trace.ops_per_s", "trace.ops_per_s_untraced"):
        cells = "".join(f"{rows[(w, 1)]['metrics'][name]['value']:16.5g}" for w in WORKLOADS)
        print(f"{name:22s}{cells}")
    for m in tracer.MODULES:
        cells = "".join(f"{rows[(w, 1)]['metrics'][m + '.self_share']['value']:16.1f}"
                        for w in WORKLOADS)
        print(f"{m + ' share %':22s}{cells}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, traced and not")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload is required without --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
