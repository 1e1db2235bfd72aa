#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload coord-fleet --seed 3 --seconds 20 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build messages go to stderr, so the last line of
# standard output is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/haccs-perfbench" "$@"
