#!/usr/bin/env bash
# The benchmark in one command: builds release, then runs every workload in
# its own process, end to end (--trace 0) and per layer (--trace 1). Prints
# every metric by name with its unit, keeps the records under OUT, and exits
# non-zero if any answer differed from the one-shot oracle.
#
#   lapbench/run.sh [--seed N] [--quick] [--runs K] [--out DIR]
#
#   --quick    CI smoke: 3 s windows (so one set-up per run), end to end only
#              (same correctness checks; well under a minute)
#   --runs K   K end-to-end runs per workload, and
#   --out DIR  where to keep them: `lapbench compare` takes two such sets
#
# OUT (default lapbench/out) receives <workload>.json (run 1; further runs
# <workload>.<k>.json), layers-<workload>.json (the per-layer record) and
# trace-<workload>.json (Chrome trace-events of the traced replay).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
seed=11 seconds=10 runs=1 quick=0 out="$here/out"
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --quick) quick=1; seconds=3; shift ;;
    *) echo "usage: $0 [--seed N] [--quick] [--runs K] [--out DIR]" >&2; exit 2 ;;
  esac
done

lapbench() {
  cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
}

cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
mkdir -p "$out"
status=0
for workload in serve-hit serve-miss serve-chaos oneshot-wide; do
  for run in $(seq 1 "$runs"); do
    record="$out/$workload.json"
    [ "$run" -gt 1 ] && record="$out/$workload.$run.json"
    lapbench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      --out "$record" | grep -v '^{' || status=1
  done
  if [ "$quick" = 0 ]; then
    lapbench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$out/layers-$workload.json" --trace-out "$out/trace-$workload.json" \
      | grep -v '^{' || status=1
  fi
done
if [ "$status" != 0 ]; then
  echo "lapbench: at least one run failed or answered wrongly" >&2
fi
exit "$status"
