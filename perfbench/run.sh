#!/usr/bin/env bash
# Builds smpq and the benchmark harness in release mode, then runs
#   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); the last line of stdout is the run's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: run from a checkout of the repository (no workspace at $root)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_NET_OFFLINE=true
cargo build --release --quiet -p smp-cli --bin smpq >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2

# Run as a child, not via exec: the harness reads its reaped children's
# CPU and peak memory, which must not include the build's.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
