#!/usr/bin/env sh
# Offline CI gate. No network, no registry: the workspace has zero
# third-party dependencies, so every step below runs from a cold cache.
#
#   scripts/ci.sh          # full gate
#   SKIP_SLOW=1 scripts/ci.sh   # skip the widened slow-tests sweep
#   RUN_SOAK=1 scripts/ci.sh    # additionally run the heavy soak sweeps
#
# The byte contracts (record -> replay, overlapped chaos, batch widths,
# calibrated re-runs, daemon = one-shot through the `lapd` binary, the
# observability exports) are rows of `tests/contract_table`, which the
# tier-1 `cargo test` below runs; the malformed-arity check is
# `tests/cli.rs::unrunnable_input_exits_1_with_a_named_error`. The
# experiments' acceptance bars (E1-E25, e.g. E21's <= 0.5x serial, E24's
# zero failures at 256 clients, E25's >= 80% recovery) are asserts inside
# the experiments, and tier-1 runs every registered one. What stays here
# is what tier-1 does not run: the out-of-workspace benchmark, the widened
# sweeps, the soak, clippy and the rustdoc link check.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test (tier-1: every workspace crate, the contract table included)"
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

echo "==> cargo doc -D warnings (every intra-doc link resolves, none points at a private item)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> ci.sh: all green"
