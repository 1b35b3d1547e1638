#!/usr/bin/env bash
# Run the repro.bench surface: the paper's experiment tables (quick
# scale) followed by the oracle-ratio kernels checked against the
# committed BENCH_core.json.  Exits non-zero if any experiment fails its
# built-in assertions, or if a kernel's exact cost columns change or its
# speedup over its baseline body drops by more than 25%.  The end-to-end
# benchmark is separate: BENCHMARK.json and perfbench/run.py.
#
# Usage:  benchmarks/run_all.sh [--scale quick|full]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SCALE="quick"
if [[ "${1:-}" == "--scale" && -n "${2:-}" ]]; then
    SCALE="$2"
fi

echo "== experiments (scale=$SCALE) =="
python -m repro.bench --experiment all --scale "$SCALE"

echo
echo "== perf kernels vs committed BENCH_core.json =="
python -m repro.bench --perf --check
