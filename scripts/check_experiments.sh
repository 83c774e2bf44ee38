#!/usr/bin/env bash
# Re-run every deterministic experiment binary and compare its output with
# the committed exhibits: each stdout transcript against results/<bin>.txt
# and each CSV series it writes against results/<name>.csv. A difference
# means the program's output moved and the committed exhibit is stale
# (regenerate with scripts/run_all_experiments.sh for an intended change).
#
# tab5_overhead measures wall-clock planning time and ext_topology is
# checked by the topology job, so neither is run here.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig5_spearman
  tab4_regression
  fig7_overall
  fig8_bounds
  fig9_scalability
  fig10_tensor_size
  fig11_oversub
  tab6_redstar
  baselines_matrix
  ext_async_copy
  ext_cluster
  ext_contention
  ext_job
  ext_planner
  ext_reordering
)
SKIP_CSV=(tab5_overhead.csv ext_topology.csv)

cargo build --release -q -p micco-bench

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for b in "${BINS[@]}"; do
  if ! MICCO_RESULTS_DIR="$out" "target/release/$b" > "$out/$b.txt"; then
    echo "error: $b exited with a failure" >&2
    status=1
    continue
  fi
  if ! diff -u "results/$b.txt" "$out/$b.txt"; then
    echo "error: $b stdout differs from results/$b.txt" >&2
    status=1
  fi
done

checked=0
for f in results/*.csv; do
  name=$(basename "$f")
  if [[ " ${SKIP_CSV[*]} " == *" $name "* ]]; then
    continue
  fi
  checked=$((checked + 1))
  if [[ ! -f "$out/$name" ]]; then
    echo "error: no binary wrote $name" >&2
    status=1
  elif ! cmp "$f" "$out/$name"; then
    echo "error: $name differs from results/$name" >&2
    status=1
  fi
done
written=$(find "$out" -maxdepth 1 -name '*.csv' | wc -l)
if [[ "$written" -ne "$checked" ]]; then
  echo "error: the binaries wrote $written CSV series but results/ holds $checked" >&2
  status=1
fi

if [[ "$status" -eq 0 ]]; then
  echo "ok: ${#BINS[@]} transcripts and $checked CSV series match results/"
fi
exit "$status"
