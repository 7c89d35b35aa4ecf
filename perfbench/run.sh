#!/usr/bin/env bash
# Builds the hetsched binary and the benchmark binary `perf` from source,
# then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-ds2 --seed 24301 --seconds 20 --trace 0
#   bash perfbench/run.sh compare before.jsonl after.jsonl
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, so the result
# is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p hetsched-cli >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
