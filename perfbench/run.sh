#!/usr/bin/env bash
# Builds the benchmark and the `sorl-shardd` daemon from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tune_cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sorl-shard --bin sorl-shardd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --shardd "$CARGO_TARGET_DIR/release/sorl-shardd" "$@"
