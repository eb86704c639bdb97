#!/usr/bin/env bash
# Builds the binaries under test and the benchmark into one target
# directory, then runs the benchmark with the arguments given:
#
#   bash dgbench/run.sh --workload droop-sweep --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Cargo output goes to standard error, so the
# benchmark's result line stays the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline \
    --bin validate --bin all --bin dg-explore --bin dg-serve --bin dg-router >&2
cargo build --release --quiet --offline --manifest-path dgbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dgbench" "$@"
