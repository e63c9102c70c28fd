#!/usr/bin/env sh
# Offline CI gate. No network, no registry: the workspace has zero
# third-party dependencies, so every step below runs from a cold cache.
#
#   scripts/ci.sh          # full gate
#   SKIP_SLOW=1 scripts/ci.sh   # skip the widened slow-tests sweep
#   RUN_SOAK=1 scripts/ci.sh    # additionally run the heavy soak sweeps
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test (tier-1: every workspace crate, default sweeps)"
cargo test -q

echo "==> lapbench (out-of-workspace benchmark): builds and tests against the public API"
cargo test -q --offline --manifest-path lapbench/Cargo.toml

echo "==> lapbench --quick: 3 s windows on all four workloads, every response byte-compared to the one-shot oracle"
lapbench/run.sh --quick --out "${TMPDIR:-/tmp}/lapq_ci_lapbench"
rm -rf "${TMPDIR:-/tmp}/lapq_ci_lapbench"

if [ "${SKIP_SLOW:-0}" != "1" ]; then
    echo "==> cargo test --features slow-tests (widened seeded sweeps)"
    cargo test -q --features slow-tests
fi

if [ "${RUN_SOAK:-0}" = "1" ]; then
    echo "==> soak sweeps (heavy randomized invariants, release mode)"
    cargo test -q --release --test soak -- --ignored
fi

echo "==> cargo clippy -D warnings (every workspace crate)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> observability smoke: lapq run --trace --metrics-json + obs-validate"
OBS_SNAPSHOT="${TMPDIR:-/tmp}/lapq_ci_metrics.json"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --trace --metrics-json "$OBS_SNAPSHOT" > /dev/null
target/release/lapq obs-validate "$OBS_SNAPSHOT"
rm -f "$OBS_SNAPSHOT"

echo "==> malformed-arity smoke: facts shorter than the schema are an error, not a panic"
ARITY_DIR="${TMPDIR:-/tmp}/lapq_ci_arity"
mkdir -p "$ARITY_DIR"
printf 'Catalog^oo. Library^o.\nQ(i, a) :- Catalog(i, a), not Library(i).\n' > "$ARITY_DIR/prog.lap"
printf 'Catalog(1). Catalog(2).\n' > "$ARITY_DIR/facts.lap"
if target/release/lapq run "$ARITY_DIR/prog.lap" "$ARITY_DIR/facts.lap" \
    > /dev/null 2> "$ARITY_DIR/stderr.txt"; then
    echo "malformed-arity smoke: lapq run accepted a one-column Catalog^oo" >&2
    exit 1
fi
grep -q 'arity' "$ARITY_DIR/stderr.txt"
if grep -q 'panicked' "$ARITY_DIR/stderr.txt"; then
    echo "malformed-arity smoke: lapq run panicked" >&2
    exit 1
fi
rm -rf "$ARITY_DIR"

echo "==> flight-recorder smoke: record, validate, replay bit-for-bit"
FR_JOURNAL="${TMPDIR:-/tmp}/lapq_ci_journal.json"
FR_RUN="${TMPDIR:-/tmp}/lapq_ci_journal_run.txt"
FR_REPLAY="${TMPDIR:-/tmp}/lapq_ci_journal_replay.txt"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.4 --fault-seed 11 --latency-ms 5 --retry 3 \
    --journal "$FR_JOURNAL" > "$FR_RUN"
target/release/lapq obs-validate "$FR_JOURNAL"
target/release/lapq replay "$FR_JOURNAL" > "$FR_REPLAY"
cmp "$FR_RUN" "$FR_REPLAY"
target/release/lapq report "$FR_JOURNAL" > /dev/null
rm -f "$FR_JOURNAL" "$FR_RUN" "$FR_REPLAY"

echo "==> chrome-trace smoke: export round-trips through obs-validate"
FR_TRACE="${TMPDIR:-/tmp}/lapq_ci_trace.json"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --chrome-trace "$FR_TRACE" > /dev/null
target/release/lapq obs-validate "$FR_TRACE"
rm -f "$FR_TRACE"

echo "==> overlapped-chaos smoke: two runs at --io-workers 8 agree, replay is bit-for-bit"
OV_JOURNAL="${TMPDIR:-/tmp}/lapq_ci_overlap.json"
OV_RUN_A="${TMPDIR:-/tmp}/lapq_ci_overlap_a.txt"
OV_RUN_B="${TMPDIR:-/tmp}/lapq_ci_overlap_b.txt"
OV_REPLAY="${TMPDIR:-/tmp}/lapq_ci_overlap_replay.txt"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.4 --fault-seed 11 --latency-ms 20 --retry 3 --io-workers 8 \
    --journal "$OV_JOURNAL" > "$OV_RUN_A"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.4 --fault-seed 11 --latency-ms 20 --retry 3 --io-workers 8 \
    > "$OV_RUN_B"
cmp "$OV_RUN_A" "$OV_RUN_B"
target/release/lapq obs-validate "$OV_JOURNAL"
target/release/lapq replay "$OV_JOURNAL" > "$OV_REPLAY"
cmp "$OV_RUN_A" "$OV_REPLAY"
rm -f "$OV_JOURNAL" "$OV_RUN_A" "$OV_RUN_B" "$OV_REPLAY"

echo "==> columnar smoke: batch widths agree, faulted record replays bit-for-bit"
COL_JOURNAL="${TMPDIR:-/tmp}/lapq_ci_columnar.json"
COL_RUN="${TMPDIR:-/tmp}/lapq_ci_columnar_run.txt"
COL_REPLAY="${TMPDIR:-/tmp}/lapq_ci_columnar_replay.txt"
COL_W1="${TMPDIR:-/tmp}/lapq_ci_columnar_w1.txt"
COL_W64="${TMPDIR:-/tmp}/lapq_ci_columnar_w64.txt"
# The batch width changes dedup windows (and hence the call counts the
# run footer reports) but never the answers.
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --batch-width 1 > "$COL_W1"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --batch-width 64 > "$COL_W64"
grep -v ' calls, ' "$COL_W1" > "$COL_W1.answers"
grep -v ' calls, ' "$COL_W64" > "$COL_W64.answers"
cmp "$COL_W1.answers" "$COL_W64.answers"
# A faulted overlapped columnar run records a journal that replays
# bit-for-bit without touching the sources.
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.4 --fault-seed 11 --latency-ms 5 --retry 3 \
    --batch-width 64 --io-workers 8 \
    --journal "$COL_JOURNAL" > "$COL_RUN"
target/release/lapq obs-validate "$COL_JOURNAL"
target/release/lapq replay "$COL_JOURNAL" > "$COL_REPLAY"
cmp "$COL_RUN" "$COL_REPLAY"
rm -f "$COL_JOURNAL" "$COL_RUN" "$COL_REPLAY" \
    "$COL_W1" "$COL_W64" "$COL_W1.answers" "$COL_W64.answers"

echo "==> calibration smoke: record, calibrate, re-run — plan differs, answers do not"
CAL_DIR="${TMPDIR:-/tmp}/lapq_ci_calibrate"
mkdir -p "$CAL_DIR"
# A schema where the static model's uniform extents pick the wrong join
# order: the A^o scan (40 rows) seeds the plan and D^io is called per row,
# while the true extents favour scanning D^oo (8 rows) first.
printf 'A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).\n' > "$CAL_DIR/prog.lap"
: > "$CAL_DIR/facts.lap"
i=0
while [ "$i" -lt 40 ]; do
    printf 'A(%d). ' "$i" >> "$CAL_DIR/facts.lap"
    i=$((i + 1))
done
i=0
while [ "$i" -lt 8 ]; do
    printf 'D(%d, %d). ' "$i" "$((100 + i))" >> "$CAL_DIR/facts.lap"
    i=$((i + 1))
done
target/release/lapq run "$CAL_DIR/prog.lap" "$CAL_DIR/facts.lap" \
    --journal "$CAL_DIR/journal.json" > "$CAL_DIR/static.txt"
target/release/lapq calibrate "$CAL_DIR/journal.json" --out "$CAL_DIR/profile.json" > /dev/null
target/release/lapq obs-validate "$CAL_DIR/profile.json"
target/release/lapq run "$CAL_DIR/prog.lap" "$CAL_DIR/facts.lap" \
    --feedback "$CAL_DIR/profile.json" > "$CAL_DIR/cal_a.txt"
# Frozen profile => the calibrated run is bit-for-bit repeatable.
target/release/lapq run "$CAL_DIR/prog.lap" "$CAL_DIR/facts.lap" \
    --feedback "$CAL_DIR/profile.json" > "$CAL_DIR/cal_b.txt"
cmp "$CAL_DIR/cal_a.txt" "$CAL_DIR/cal_b.txt"
# The answers (and completeness) are identical; only the call schedule moved.
grep -v ' calls, ' "$CAL_DIR/static.txt" > "$CAL_DIR/static_answers.txt"
grep -v ' calls, ' "$CAL_DIR/cal_a.txt" > "$CAL_DIR/cal_answers.txt"
cmp "$CAL_DIR/static_answers.txt" "$CAL_DIR/cal_answers.txt"
if cmp -s "$CAL_DIR/static.txt" "$CAL_DIR/cal_a.txt"; then
    echo "calibration smoke: calibrated plan did not change the call schedule" >&2
    exit 1
fi
# explain --feedback shows the dual est/cal annotations.
target/release/lapq explain "$CAL_DIR/prog.lap" --feedback "$CAL_DIR/profile.json" \
    | grep -q '; cal '
rm -rf "$CAL_DIR"

echo "==> daemon smoke: lapd on an ephemeral port, answers byte-identical to one-shot run"
LAPD_DIR="${TMPDIR:-/tmp}/lapq_ci_daemon"
mkdir -p "$LAPD_DIR"
# Watcher off (--watch-interval-ms 0): drift stays pending until the
# forced sweep below, so `health` deterministically shows the flags. The
# automatic watcher path is covered by tests/daemon.rs and experiment E25.
target/release/lapd --bind 127.0.0.1:0 --watch-interval-ms 0 \
    > "$LAPD_DIR/lapd.log" 2>&1 &
LAPD_PID=$!
# Scrape the ephemeral port from the startup line.
LAPD_ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    LAPD_ADDR=$(sed -n 's/^lapd listening on //p' "$LAPD_DIR/lapd.log")
    [ -n "$LAPD_ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$LAPD_ADDR" ]; then
    echo "daemon smoke: lapd did not report a listen address" >&2
    kill "$LAPD_PID" 2>/dev/null || true
    exit 1
fi
# Three clients, mixed workloads, each cmp'ed against one-shot lapq run.
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap > "$LAPD_DIR/oneshot_1.txt"
target/release/lapq query-daemon examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --addr "$LAPD_ADDR" > "$LAPD_DIR/daemon_1.txt"
cmp "$LAPD_DIR/oneshot_1.txt" "$LAPD_DIR/daemon_1.txt"
target/release/lapq run examples/data/example4.lap \
    examples/data/example4_facts.lap > "$LAPD_DIR/oneshot_2.txt"
target/release/lapq query-daemon examples/data/example4.lap \
    examples/data/example4_facts.lap --addr "$LAPD_ADDR" > "$LAPD_DIR/daemon_2.txt"
cmp "$LAPD_DIR/oneshot_2.txt" "$LAPD_DIR/daemon_2.txt"
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.4 --fault-seed 11 --retry 3 --io-workers 2 > "$LAPD_DIR/oneshot_3.txt"
target/release/lapq query-daemon examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --addr "$LAPD_ADDR" \
    --fault-rate 0.4 --fault-seed 11 --retry 3 --io-workers 2 > "$LAPD_DIR/daemon_3.txt"
cmp "$LAPD_DIR/oneshot_3.txt" "$LAPD_DIR/daemon_3.txt"
# A repeat of client 1 must be served from the plan cache, same bytes.
target/release/lapq query-daemon examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --addr "$LAPD_ADDR" > "$LAPD_DIR/daemon_1b.txt"
cmp "$LAPD_DIR/oneshot_1.txt" "$LAPD_DIR/daemon_1b.txt"
target/release/lapq daemon-ctl "$LAPD_ADDR" stats > "$LAPD_DIR/stats.txt"
grep -q 'plan cache:' "$LAPD_DIR/stats.txt"
# Satellite detail: per-entry cache lines, telemetry tallies, latency
# percentiles are all part of the stats payload now.
grep -q 'entry:' "$LAPD_DIR/stats.txt"
grep -q 'telemetry:' "$LAPD_DIR/stats.txt"
grep -q 'latency: gate wait' "$LAPD_DIR/stats.txt"

echo "==> telemetry smoke: drift workload, health flags it, profile validates, forced sweep heals it"
DRIFT_PROG="$LAPD_DIR/drift.lap"
printf 'A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).\n' > "$DRIFT_PROG"
# Phase 1 freezes the baselines at A=4 rows; phase 2 is the same query
# against a 100x larger A — rows-per-call blows past the drift factor.
DRIFT_SMALL="$LAPD_DIR/drift_small.lap"
DRIFT_BIG="$LAPD_DIR/drift_big.lap"
: > "$DRIFT_SMALL"
: > "$DRIFT_BIG"
i=0
while [ "$i" -lt 400 ]; do
    [ "$i" -lt 4 ] && printf 'A(%d). ' "$i" >> "$DRIFT_SMALL"
    printf 'A(%d). ' "$i" >> "$DRIFT_BIG"
    i=$((i + 1))
done
i=0
while [ "$i" -lt 8 ]; do
    printf 'D(%d, %d). ' "$i" $((100 + i)) >> "$DRIFT_SMALL"
    printf 'D(%d, %d). ' "$i" $((100 + i)) >> "$DRIFT_BIG"
    i=$((i + 1))
done
target/release/lapq query-daemon "$DRIFT_PROG" "$DRIFT_SMALL" \
    --addr "$LAPD_ADDR" > /dev/null
target/release/lapq query-daemon "$DRIFT_PROG" "$DRIFT_BIG" \
    --addr "$LAPD_ADDR" > /dev/null
# The drifted source shows up in the health rollup.
target/release/lapq daemon-ctl "$LAPD_ADDR" health > "$LAPD_DIR/health.txt"
grep -q '^A: .*drifting' "$LAPD_DIR/health.txt"
grep -q '^drift: A' "$LAPD_DIR/health.txt"
# The live profile round-trips through the exported-snapshot validator.
target/release/lapq daemon-ctl "$LAPD_ADDR" profile > "$LAPD_DIR/profile.json"
target/release/lapq obs-validate "$LAPD_DIR/profile.json"
# Forced recalibration sweep, then the handled drift stops flagging.
target/release/lapq daemon-ctl "$LAPD_ADDR" recalibrate | grep -q '^sweep: '
target/release/lapq daemon-ctl "$LAPD_ADDR" health > "$LAPD_DIR/health_after.txt"
if grep -q 'drifting' "$LAPD_DIR/health_after.txt"; then
    echo "telemetry smoke: drift still flagged after the forced sweep" >&2
    exit 1
fi
# The sweep republished exactly the plan one-shot calibrated planning
# builds from the same live profile: the post-sweep daemon answer is
# byte-identical to `lapq run --feedback <profile>` (answers AND call
# schedule). Plans the automatic watcher leaves untouched keep one-shot
# static bytes instead — tests/daemon.rs and experiment E25 pin that.
target/release/lapq run examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --feedback "$LAPD_DIR/profile.json" > "$LAPD_DIR/oneshot_1_cal.txt"
target/release/lapq query-daemon examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap --addr "$LAPD_ADDR" > "$LAPD_DIR/daemon_1c.txt"
cmp "$LAPD_DIR/oneshot_1_cal.txt" "$LAPD_DIR/daemon_1c.txt"
# Same answer tuples as the static plan — calibration only re-ordered.
grep -v ' calls, ' "$LAPD_DIR/oneshot_1.txt" > "$LAPD_DIR/oneshot_1_answers.txt"
grep -v ' calls, ' "$LAPD_DIR/daemon_1c.txt" > "$LAPD_DIR/daemon_1c_answers.txt"
cmp "$LAPD_DIR/oneshot_1_answers.txt" "$LAPD_DIR/daemon_1c_answers.txt"
target/release/lapq daemon-ctl "$LAPD_ADDR" stats \
    | grep -q 'recalibrations'
# Clean shutdown: the control frame must stop the process.
target/release/lapq daemon-ctl "$LAPD_ADDR" shutdown > /dev/null
i=0
while kill -0 "$LAPD_PID" 2>/dev/null; do
    if [ "$i" -ge 100 ]; then
        echo "daemon smoke: lapd did not exit after shutdown" >&2
        kill "$LAPD_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
grep -q 'lapd: shut down' "$LAPD_DIR/lapd.log"
rm -rf "$LAPD_DIR"

echo "==> resilience smoke: same seed must replay the same degraded answer"
CHAOS_A="${TMPDIR:-/tmp}/lapq_ci_chaos_a.txt"
CHAOS_B="${TMPDIR:-/tmp}/lapq_ci_chaos_b.txt"
target/release/lapq answer examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.5 --fault-seed 7 --retry 3 > "$CHAOS_A"
target/release/lapq answer examples/data/bookstore.lap \
    examples/data/bookstore_facts.lap \
    --fault-rate 0.5 --fault-seed 7 --retry 3 > "$CHAOS_B"
cmp "$CHAOS_A" "$CHAOS_B"
rm -f "$CHAOS_A" "$CHAOS_B"

echo "==> ci.sh: all green"
