#!/usr/bin/env bash
# Builds qmxctl and the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build), so it never touches the repository's target/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qmx-cli --bin qmxctl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --qmxctl "$CARGO_TARGET_DIR/release/qmxctl" "$@"
