#!/usr/bin/env bash
# Builds the benchmark and the shipped qisim-serve binary from source,
# then runs one workload. Run from the repository root:
#   bash benchmark/run.sh --workload explore --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p qisim-serve --bin qisim-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/qisim-bench" --serve-bin "$target/release/qisim-serve" \
    --work-dir "$target/qisim-bench" "$@"
