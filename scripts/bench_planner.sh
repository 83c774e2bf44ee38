#!/usr/bin/env bash
# Planner throughput benchmark runner.
#
# Builds the release bench_planner binary, runs it (fast planner vs the
# frozen seed reference on the same stream; the binary asserts the two
# plans are byte-identical), validates the emitted BENCH_planner.json
# against the schema, and — when given a baseline — fails on regression.
#
# Usage:
#   scripts/bench_planner.sh                 # full point: 1M tasks, 64 GPUs
#   scripts/bench_planner.sh --smoke         # CI point: 20k tasks, 8 GPUs
#   scripts/bench_planner.sh --smoke --baseline OLD.json
#                                            # also fail on >20% slowdown
#   scripts/bench_planner.sh --smoke --oversub 2
#                                            # CI's second point: memory
#                                            # oversubscribed 2x, so both
#                                            # planners evict
#
# The full point writes BENCH_planner.json and a smoke run writes
# BENCH_planner_smoke.json (git-ignored), so a smoke run never overwrites
# the committed report; --out PATH overrides either.
#
# Extra flags after the mode are forwarded to bench_planner.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=""
SMOKE=0
BASELINE=""
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; ARGS+=(--tasks 20000 --gpus 8); shift ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) ARGS+=("$1"); shift ;;
  esac
done
if [ -z "$OUT" ]; then
  if [ "$SMOKE" = 1 ]; then OUT=BENCH_planner_smoke.json; else OUT=BENCH_planner.json; fi
fi

echo "== building bench_planner (release) =="
cargo build --release -p micco-bench --bin bench_planner

echo "== running =="
./target/release/bench_planner --out "$OUT" "${ARGS[@]:-}"

echo "== checking schema =="
python3 scripts/check_bench_schema.py "$OUT"

if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
  echo "== comparing against baseline $BASELINE =="
  python3 scripts/check_bench_schema.py "$OUT" --compare "$BASELINE"
elif [ -n "$BASELINE" ]; then
  echo "baseline $BASELINE not found — skipping regression gate (first run?)"
fi

echo "ok: $OUT"
