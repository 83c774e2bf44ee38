#!/usr/bin/env bash
# Regenerate every paper table/figure plus the extension experiments.
# Outputs: stdout transcripts in results/*.txt, CSV series in results/*.csv.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results

PAPER_BINS=(
  fig5_spearman
  tab4_regression
  tab5_overhead
  fig7_overall
  fig8_bounds
  fig9_scalability
  fig10_tensor_size
  fig11_oversub
  tab6_redstar
)
EXT_BINS=(
  baselines_matrix
  ext_async_copy
  ext_cluster
  ext_contention
  ext_job
  ext_planner
  ext_reordering
)

echo "== building =="
cargo build --release -p micco-bench

# Fail loudly before running anything if a binary did not build: a missing
# target would otherwise surface as a confusing mid-run cargo error after
# minutes of experiments.
missing=0
for b in "${PAPER_BINS[@]}" "${EXT_BINS[@]}"; do
  if [[ ! -x "target/release/$b" ]]; then
    echo "error: expected experiment binary target/release/$b is missing" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "error: build did not produce every experiment binary; aborting" >&2
  exit 1
fi

for b in "${PAPER_BINS[@]}" "${EXT_BINS[@]}"; do
  echo "== $b =="
  cargo run --release -q -p micco-bench --bin "$b" | tee "results/$b.txt"
done

echo "done; see results/"
