#!/usr/bin/env bash
# Multi-tenant serving benchmark runner.
#
# Builds the release bench_serve binary, runs it (an unloaded
# high-priority mix, the same mix under a low-priority flood, and a
# warm-restart proof over a durable store — the binary asserts the
# fair-share isolation and warm-start invariants itself), and validates
# the emitted BENCH_serve.json against the schema.
#
# Usage:
#   scripts/bench_serve.sh                # full point: 3s windows
#   scripts/bench_serve.sh --smoke        # CI point: 1s windows
#
# The full point writes BENCH_serve.json and a smoke run writes
# BENCH_serve_smoke.json (git-ignored), so a smoke run never overwrites
# the committed report; --out PATH overrides either.
#
# Extra flags after the mode are forwarded to bench_serve.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=""
SMOKE=0
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; ARGS+=(--duration 1); shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) ARGS+=("$1"); shift ;;
  esac
done
if [ -z "$OUT" ]; then
  if [ "$SMOKE" = 1 ]; then OUT=BENCH_serve_smoke.json; else OUT=BENCH_serve.json; fi
fi

echo "== building bench_serve (release) =="
cargo build --release -p micco-bench --bin bench_serve

echo "== running =="
./target/release/bench_serve --out "$OUT" ${ARGS[@]+"${ARGS[@]}"}

echo "== checking schema =="
python3 scripts/check_bench_schema.py "$OUT"

echo "ok: $OUT"
