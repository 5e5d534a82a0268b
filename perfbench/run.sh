#!/usr/bin/env bash
# Builds `fastbfs` and the benchmark harness from source, offline, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload rmat-batch --seed 1 --seconds 14 --trace 0
#
# Build output goes to standard error; the last line of standard output is
# the result. Artifacts go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p bfs-cli --bin fastbfs 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --fastbfs "$CARGO_TARGET_DIR/release/fastbfs"
