#!/usr/bin/env bash
# The offline steps of the Tier-1 workflow, in order: the test suite, the
# command line run as a module (the entry function of the installed
# `wavebank` script), a 2 s benchmark smoke run of each workload with its
# outputs checked (its ops_per_s and peak_rss_mb printed, not gated), and
# the determinism check (every output byte-equal under two hash seeds).
#
#     tools/ci.sh
#
# Run from anywhere; it needs numpy, pytest and hypothesis, and no network.
# Exits non-zero at the first step that fails.
set -euo pipefail
cd "$(dirname "$0")/.."
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
workloads=(pyramid-long packets-deep bank-verify diagnose)

echo "== Tier-1 tests"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors

echo "== Command line as a module (the console script's entry function)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m wavebank.cli verify --random-banks 4 --seed 1

echo "== Benchmark smoke run (each workload, 2 s, outputs checked; speed and RSS shown, not gated)"
report='import json, sys
r = json.loads(sys.stdin.read())
shown = [(k, r.get("metrics", {}).get(k) or {}) for k in ("ops_per_s", "peak_rss_mb")]
print(sys.argv[1] + ":", ", ".join(
    "%s %.4g %s" % (k, m["value"], m["unit"]) for k, m in shown if m.get("value") is not None))
sys.exit(r.get("correct") is not True)'
for w in "${workloads[@]}"; do
  python3 bench/run.py --workload "$w" --seconds 2 --trace 0 | tail -n 1 \
    | python3 -c "$report" "$w" \
    || { echo "benchmark smoke run failed or incorrect: $w"; exit 1; }
done

echo "== Determinism (outputs byte-equal under two hash seeds)"
for w in "${workloads[@]}"; do
  PYTHONHASHSEED=0 python3 tools/same_outputs.py "$w" 1 1 "$scratch/hash0/$w"
  PYTHONHASHSEED=1 python3 tools/same_outputs.py "$w" 1 1 "$scratch/hash1/$w"
done
diff -r "$scratch/hash0" "$scratch/hash1"
echo "== all steps passed"
