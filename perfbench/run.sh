#!/usr/bin/env bash
# Builds the benchmark package (and the soctam-serve binary it drives) in
# release mode from this checkout's sources, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); traces and daemon journals go to .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
