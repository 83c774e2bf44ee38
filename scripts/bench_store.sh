#!/usr/bin/env bash
# Durable plan store benchmark runner.
#
# Builds the release bench_store binary, runs it (append throughput,
# recovery replay rate, compaction, and a warm-restart log-hit proof —
# the binary asserts all of its own invariants), and validates the
# emitted BENCH_store.json against the schema.
#
# Usage:
#   scripts/bench_store.sh                # full point: 50k records x 256 B
#   scripts/bench_store.sh --smoke        # CI point: 5k records
#
# The full point writes BENCH_store.json and a smoke run writes
# BENCH_store_smoke.json (git-ignored), so a smoke run never overwrites
# the committed report; --out PATH overrides either.
#
# Extra flags after the mode are forwarded to bench_store.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=""
SMOKE=0
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; ARGS+=(--records 5000); shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) ARGS+=("$1"); shift ;;
  esac
done
if [ -z "$OUT" ]; then
  if [ "$SMOKE" = 1 ]; then OUT=BENCH_store_smoke.json; else OUT=BENCH_store.json; fi
fi

echo "== building bench_store (release) =="
cargo build --release -p micco-bench --bin bench_store

echo "== running =="
./target/release/bench_store --out "$OUT" ${ARGS[@]+"${ARGS[@]}"}

echo "== checking schema =="
python3 scripts/check_bench_schema.py "$OUT"

echo "ok: $OUT"
