#!/usr/bin/env bash
# Builds the benchmark harness and the real `serve` binary from source,
# then runs one benchmark workload:
#
#   bash ghostbench/run.sh --workload paper-windows --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build output and every file a run
# writes go under $CARGO_TARGET_DIR (default .bench_build). Build logs go
# to stderr; the last line of stdout is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [[ ! -f Cargo.toml || ! -d crates/bench ]]; then
    echo "ghostbench: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi

cargo build --release --offline --quiet -p ghosts-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path ghostbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/ghostbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --work-dir "$CARGO_TARGET_DIR/ghostbench-work" \
    "$@"
