#!/usr/bin/env sh
# Alternating A/B pairs of one lapbench workload: a parent checkout
# against a change checkout.
#
#   scripts/ab-pairs.sh <parent-dir> <change-dir> <workload> <seed>...
#
# Each directory is a whole checkout of the repository (for a commit:
# `git archive <rev> | tar -x -C <dir>`). Both sides are built in release
# mode, each into its own `lapbench/target`. Then for every seed the two
# sides run
#
#   lapbench --workload <workload> --seed <seed> --trace 0 --out <record>
#
# back to back, each over lapbench's default 10 s window. Which side runs
# first alternates from pair to pair (parent first in the first pair),
# because the second run of a pair tends to read slower. The script
# prints each pair's `latency_p50_ms` and how many pairs the change won
# (lower p50), then runs `lapbench compare` on the two record sets, which
# applies the end-to-end bounds.
#
# Environment: OUT (where the records go, default a fresh directory under
# ${TMPDIR:-/tmp}).
set -eu

if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-dir> <change-dir> <workload> <seed>..." >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/ab-pairs.XXXXXX")}
mkdir -p "$out/parent" "$out/change"

for dir in "$parent" "$change"; do
    echo "==> building lapbench in $dir" >&2
    CARGO_TARGET_DIR="$dir/lapbench/target" \
        cargo build --release --quiet --offline --manifest-path "$dir/lapbench/Cargo.toml"
done

# run <side> <seed>: one lapbench run, its record under $out/<side>/; prints its p50.
run() {
    dir=$parent
    [ "$1" = change ] && dir=$change
    line=$("$dir/lapbench/target/release/lapbench" --workload "$workload" --seed "$2" \
        --trace 0 --out "$out/$1/$workload-$2.json" | tail -n 1)
    echo "$line" | sed -n 's/.*"latency_p50_ms":{"value":\([0-9.e+-]*\).*/\1/p'
}

wins=0
pairs=0
printf '%-6s %-7s %12s %12s %9s\n' seed first parent_p50 change_p50 change
for seed in "$@"; do
    if [ $((pairs % 2)) -eq 0 ]; then
        first=parent
        p=$(run parent "$seed")
        c=$(run change "$seed")
    else
        first=change
        c=$(run change "$seed")
        p=$(run parent "$seed")
    fi
    pairs=$((pairs + 1))
    delta=$(awk -v p="$p" -v c="$c" 'BEGIN { printf "%+.1f%%", (c - p) / p * 100 }')
    if awk -v p="$p" -v c="$c" 'BEGIN { exit !(c < p) }'; then
        wins=$((wins + 1))
    fi
    printf '%-6s %-7s %12.3f %12.3f %9s\n' "$seed" "$first" "$p" "$c" "$delta"
done
echo "change p50 lower in $wins/$pairs pairs (records in $out)"

"$change/lapbench/target/release/lapbench" compare "$out/parent" "$out/change"
