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
# prints every end-to-end metric of each pair (`latency_p50_ms`,
# `throughput_rps`, `setup_s`, `latency_p95_ms`, `source_calls_per_req`:
# parent, change and the change in percent), how many pairs the change
# won (lower p50), each side's median of every metric, each side's p50
# quartiles, and whether the p50 medians differ by more than the parent's
# interquartile range: a gain is claimed only when the change wins at
# least nine pairs in ten and the medians are that far apart. Then each
# side runs once more at the first seed with `--trace 1`, and the script
# prints what moves `setup_s` on the `serve-*` workloads beside it:
# `obs.journal_events_per_req`, `daemon.recalibrations` and
# `engine.source_calls`, parent and change. Last it runs `lapbench
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
first_seed=$1
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/ab-pairs.XXXXXX")}
mkdir -p "$out/parent" "$out/change"

for dir in "$parent" "$change"; do
    echo "==> building lapbench in $dir" >&2
    CARGO_TARGET_DIR="$dir/lapbench/target" \
        cargo build --release --quiet --offline --manifest-path "$dir/lapbench/Cargo.toml"
done

# The end-to-end metrics, in the order they are printed; the first is the
# one a gain is claimed on.
metrics="latency_p50_ms throughput_rps setup_s latency_p95_ms source_calls_per_req"

# run <side> <seed> [<trace> <record> <metric>...]: one lapbench run,
# by default untraced with its record under $out/<side>/; prints the
# metrics (by default the end-to-end ones, in $metrics order).
run() {
    dir=$parent
    [ "$1" = change ] && dir=$change
    line=$("$dir/lapbench/target/release/lapbench" --workload "$workload" --seed "$2" \
        --trace "${3:-0}" --out "${4:-$out/$1/$workload-$2.json}" | tail -n 1)
    [ $# -gt 4 ] && shift 4 && names=$* || names=$metrics
    for metric in $names; do
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
for metric in $metrics; do
    : > "$out/parent.$metric"
    : > "$out/change.$metric"
done
printf '%-6s %-7s' seed first
for metric in $metrics; do
    printf ' | %-27s' "$metric"
done
printf '\n'
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
    printf '%-6s %-7s' "$seed" "$first"
    i=1
    for metric in $metrics; do
        pv=$(echo "$p" | cut -d ' ' -f "$i")
        cv=$(echo "$c" | cut -d ' ' -f "$i")
        echo "$pv" >> "$out/parent.$metric"
        echo "$cv" >> "$out/change.$metric"
        awk -v p="$pv" -v c="$cv" 'BEGIN { printf " | %9.3f %9.3f %+6.1f%%", p, c, (c - p) / p * 100 }'
        i=$((i + 1))
    done
    printf '\n'
    if awk -v p="${p%% *}" -v c="${c%% *}" 'BEGIN { exit !(c < p) }'; then
        wins=$((wins + 1))
    fi
done
echo "change p50 lower in $wins/$pairs pairs (records in $out)"
for metric in $metrics; do
    set -- $(stats "$out/parent.$metric") $(stats "$out/change.$metric")
    awk -v metric="$metric" -v pm="$2" -v cm="$5" \
        'BEGIN { printf "%-22s median parent %10.3f change %10.3f (%+.1f%%)\n", metric, pm, cm, (cm - pm) / pm * 100 }'
done
set -- $(stats "$out/parent.latency_p50_ms") $(stats "$out/change.latency_p50_ms")
awk -v pq1="$1" -v pm="$2" -v pq3="$3" -v cq1="$4" -v cm="$5" -v cq3="$6" \
    -v wins="$wins" -v pairs="$pairs" 'BEGIN {
    printf "parent p50 median %.3f (quartiles %.3f, %.3f)\n", pm, pq1, pq3
    printf "change p50 median %.3f (quartiles %.3f, %.3f)\n", cm, cq1, cq3
    d = cm - pm; iqr = pq3 - pq1; far = (d < 0 ? -d : d) > iqr
    printf "medians differ by %+.3f (%+.1f%%); parent IQR %.3f: %s\n", d, d / pm * 100, iqr,
        far ? "beyond it" : "within it"
    printf "p50 gain claimable: %s\n", (far && d < 0 && wins * 10 >= pairs * 9) ? "yes" : "no"
}'

# What moves setup_s: one traced run per side at the first seed.
traced="obs.journal_events_per_req daemon.recalibrations engine.source_calls"
for side in parent change; do
    set -- $(run "$side" "$first_seed" 1 "$out/$side-trace-$first_seed.json" $traced)
    printf '%-6s seed %s (--trace 1): journal events/req %s, recalibrations %s, source calls %s\n' \
        "$side" "$first_seed" "${1-?}" "${2-?}" "${3-?}"
done

"$change/lapbench/target/release/lapbench" compare "$out/parent" "$out/change"
