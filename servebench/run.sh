#!/usr/bin/env bash
# Builds the release `winslett-serve` binary and the benchmark from source,
# then runs one benchmark run:
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run directories go to .bench_run.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p winslett-serve --bin winslett-serve >&2
cargo build --offline --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
  --server "$CARGO_TARGET_DIR/release/winslett-serve" "$@"
