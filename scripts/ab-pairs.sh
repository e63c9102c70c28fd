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
# prints each pair's `latency_p50_ms` and `throughput_rps`, how many pairs
# the change won (lower p50), each side's p50 median and quartiles, and
# whether the medians differ by more than the parent's interquartile
# range: a gain is claimed only when the change wins at least nine pairs
# in ten and the medians are that far apart. Then it runs `lapbench
# compare` on the two record sets, which applies the end-to-end bounds.
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

# run <side> <seed>: one lapbench run, its record under $out/<side>/;
# prints its p50 and throughput.
run() {
    dir=$parent
    [ "$1" = change ] && dir=$change
    line=$("$dir/lapbench/target/release/lapbench" --workload "$workload" --seed "$2" \
        --trace 0 --out "$out/$1/$workload-$2.json" | tail -n 1)
    for metric in latency_p50_ms throughput_rps; do
        echo "$line" | sed -n "s/.*\"$metric\":{\"value\":\([0-9.e+-]*\).*/\1/p"
    done | paste -s -d ' ' -
}

# stats <file>: median and quartiles of the numbers in <file>, one a line,
# by linear interpolation between order statistics.
stats() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,    h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { v[NR + 1] = v[NR]; printf "%.3f %.3f %.3f\n", q(0.25), q(0.5), q(0.75) }'
}

wins=0
pairs=0
: > "$out/parent.p50"
: > "$out/change.p50"
printf '%-6s %-7s %12s %12s %9s %12s %12s %9s\n' \
    seed first parent_p50 change_p50 change parent_rps change_rps change
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
    set -- $p
    p50=$1 prps=$2
    set -- $c
    c50=$1 crps=$2
    echo "$p50" >> "$out/parent.p50"
    echo "$c50" >> "$out/change.p50"
    if awk -v p="$p50" -v c="$c50" 'BEGIN { exit !(c < p) }'; then
        wins=$((wins + 1))
    fi
    awk -v seed="$seed" -v first="$first" -v p="$p50" -v c="$c50" -v pr="$prps" -v cr="$crps" \
        'BEGIN { printf "%-6s %-7s %12.3f %12.3f %+8.1f%% %12.1f %12.1f %+8.1f%%\n",
                 seed, first, p, c, (c - p) / p * 100, pr, cr, (cr - pr) / pr * 100 }'
done
echo "change p50 lower in $wins/$pairs pairs (records in $out)"
set -- $(stats "$out/parent.p50") $(stats "$out/change.p50")
awk -v pq1="$1" -v pm="$2" -v pq3="$3" -v cq1="$4" -v cm="$5" -v cq3="$6" \
    -v wins="$wins" -v pairs="$pairs" 'BEGIN {
    printf "parent p50 median %.3f (quartiles %.3f, %.3f)\n", pm, pq1, pq3
    printf "change p50 median %.3f (quartiles %.3f, %.3f)\n", cm, cq1, cq3
    d = cm - pm; iqr = pq3 - pq1; far = (d < 0 ? -d : d) > iqr
    printf "medians differ by %+.3f (%+.1f%%); parent IQR %.3f: %s\n", d, d / pm * 100, iqr,
        far ? "beyond it" : "within it"
    printf "p50 gain claimable: %s\n", (far && d < 0 && wins * 10 >= pairs * 9) ? "yes" : "no"
}'

"$change/lapbench/target/release/lapbench" compare "$out/parent" "$out/change"
