#!/usr/bin/env bash
# Builds the shipped `xknn` binary and the benchmark from source, then runs
# one workload:
#   bash perfbench/run.sh --workload warm_hot --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Run from the
# repository root; exits non-zero without a result anywhere else.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -f src/bin/xknn.rs ]; then
    echo "perfbench: no xknn sources here; run from the repository root" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin xknn >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --xknn "$target/release/xknn" --out "$target/perfbench" "$@"
